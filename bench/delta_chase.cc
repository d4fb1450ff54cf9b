// Delta-chase microbench: per-question delay of the maintained conflict
// engine (maintained chased base + index-anchored conflict census) on
// the Fig. 5 synthetic workload.
//
// Two ladders, both TGD-heavy so the chase dominates the delay:
//   size   — growing fact count at fixed depth, the Fig. 5 (b) shape;
//   depth  — fixed size, conflict depth d1..d4 with growing TGD sets,
//            the Fig. 5 (c) shape.
//
// `--json` appends a machine-readable baseline (the BENCH_delta_chase.json
// format) after the tables; the checked-in baseline is produced with
//   ./build/bench/delta_chase --json
//
// The full size ladder runs 400 to 10,000 atoms; its JSON also reports
// each row's median delay over the 400-atom row's
// ("size_median_over_400"), the flatness Cor. 4.11 predicts.
//
// `--quick` shrinks both ladders and drops to one repetition — the CI
// regression gate's configuration (diffed against
// bench/baselines/BENCH_delta_chase_quick.json by bench/bench_diff).
// `--out FILE` writes the JSON to FILE instead of appending it to
// stdout.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/synthetic.h"
#include "util/logging.h"

namespace kbrepair {
namespace bench {
namespace {

int g_repetitions = 3;

struct EngineRun {
  double mean_delay_ms = 0;
  double median_delay_ms = 0;
  double max_delay_ms = 0;
  double questions = 0;
};

struct Comparison {
  std::string label;
  size_t num_facts = 0;
  size_t num_tgds = 0;
  int depth = 0;
  EngineRun incremental;
};

EngineRun RunEngine(const SyntheticKbOptions& gen_options) {
  SampleStats delays;
  SampleStats questions;
  for (int rep = 0; rep < g_repetitions; ++rep) {
    SyntheticKbOptions options = gen_options;
    options.seed = gen_options.seed + static_cast<uint64_t>(rep);
    StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
    KBREPAIR_CHECK(generated.ok()) << generated.status();
    const StrategyRun run =
        RunStrategy(generated->kb, Strategy::kOptiMcd, /*repetitions=*/1,
                    /*base_seed=*/777 + static_cast<uint64_t>(rep));
    delays.AddAll(run.delays.samples());
    questions.AddAll(run.questions.samples());
  }
  EngineRun out;
  const BoxplotSummary box = delays.Boxplot();
  out.mean_delay_ms = box.mean * 1e3;
  out.median_delay_ms = box.median * 1e3;
  out.max_delay_ms = box.max * 1e3;
  out.questions = questions.Mean();
  return out;
}

Comparison Compare(const SyntheticKbOptions& options,
                   const std::string& label) {
  Comparison c;
  c.label = label;
  c.num_facts = options.num_facts;
  c.num_tgds = options.num_tgds;
  c.depth = options.conflict_depth;
  c.incremental = RunEngine(options);
  return c;
}

void PrintComparison(const Comparison& c) {
  PrintRow({c.label, FormatDouble(c.incremental.mean_delay_ms, 2),
            FormatDouble(c.incremental.median_delay_ms, 2),
            FormatDouble(c.incremental.max_delay_ms, 2),
            FormatDouble(c.incremental.questions, 1)},
           {18, 12, 12, 12, 12});
}

std::string ComparisonJson(const Comparison& c) {
  auto engine_json = [](const EngineRun& run) {
    return std::string("{\"mean_delay_ms\": ") +
           FormatDouble(run.mean_delay_ms, 3) +
           ", \"median_delay_ms\": " + FormatDouble(run.median_delay_ms, 3) +
           ", \"max_delay_ms\": " + FormatDouble(run.max_delay_ms, 3) +
           ", \"avg_questions\": " + FormatDouble(run.questions, 1) + "}";
  };
  return "    {\"config\": \"" + c.label +
         "\", \"num_facts\": " + std::to_string(c.num_facts) +
         ", \"num_tgds\": " + std::to_string(c.num_tgds) +
         ", \"conflict_depth\": " + std::to_string(c.depth) +
         ",\n     \"incremental\": " + engine_json(c.incremental) + "}";
}

}  // namespace
}  // namespace bench
}  // namespace kbrepair

int main(int argc, char** argv) {
  using namespace kbrepair;
  using namespace kbrepair::bench;

  bool emit_json = false;
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
      emit_json = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--quick] [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  if (quick) g_repetitions = 1;

  std::printf(
      "Delta-chase microbench — per-question delay (ms), opti-mcd, "
      "maintained conflict engine, %d repetition(s)%s\n",
      g_repetitions, quick ? ", quick ladder" : "");

  const std::vector<size_t> sizes =
      quick ? std::vector<size_t>{400, 1000}
            : std::vector<size_t>{400, 1000, 2000, 3000, 5000, 10000};
  const int max_depth = quick ? 2 : 4;

  std::vector<Comparison> size_ladder;
  PrintHeader("size ladder — depth 2, 60 TGDs, 30% inconsistency");
  PrintRow({"size", "mean (ms)", "median (ms)", "max (ms)",
            "avg #questions"},
           {18, 12, 12, 12, 12});
  for (size_t num_facts : sizes) {
    SyntheticKbOptions options;
    options.seed = 21;
    options.num_facts = num_facts;
    options.inconsistency_ratio = 0.3;
    options.num_cdds = 40;
    options.cdd_min_atoms = 2;
    options.cdd_max_atoms = 4;
    options.min_arity = 2;
    options.max_arity = 6;
    options.num_tgds = 60;
    options.conflict_depth = 2;
    options.routed_violation_share = 0.6;
    options.min_multiplicity = 1;
    options.max_multiplicity = 2;
    size_ladder.push_back(
        Compare(options, std::to_string(num_facts) + " atoms"));
    PrintComparison(size_ladder.back());
  }

  std::vector<Comparison> depth_ladder;
  PrintHeader(
      "depth ladder — 400 atoms, 100% inconsistent, 150 CDDs, d1..d4");
  PrintRow({"depth", "mean (ms)", "median (ms)", "max (ms)",
            "avg #questions"},
           {18, 12, 12, 12, 12});
  for (int depth = 1; depth <= max_depth; ++depth) {
    SyntheticKbOptions options;
    options.seed = 13;  // the Fig. 5 (c) seed
    options.num_facts = 400;
    options.inconsistency_ratio = 1.0;
    options.num_cdds = 150;
    options.cdd_min_atoms = 2;
    options.cdd_max_atoms = 3;
    options.min_arity = 2;
    options.max_arity = 4;
    options.num_tgds = static_cast<size_t>(50 * depth);
    options.conflict_depth = depth;
    options.routed_violation_share = 0.6;
    options.min_multiplicity = 1;
    options.max_multiplicity = 2;
    const std::string depth_name = std::to_string(depth);
    const std::string num_tgds = std::to_string(options.num_tgds);
    depth_ladder.push_back(
        Compare(options, "d" + depth_name + " (" + num_tgds + " TGDs)"));
    PrintComparison(depth_ladder.back());
  }

  if (emit_json) {
    std::string json = "{\n  \"bench\": \"delta_chase\",\n";
    json += "  \"strategy\": \"opti-mcd\",\n";
    json += "  \"repetitions\": " + std::to_string(g_repetitions) + ",\n";
    json += "  \"size_ladder\": [\n";
    for (size_t i = 0; i < size_ladder.size(); ++i) {
      json += ComparisonJson(size_ladder[i]);
      json += i + 1 < size_ladder.size() ? ",\n" : "\n";
    }
    json += "  ],\n";
    if (!quick) {
      json += "  \"size_median_over_400\": {";
      for (size_t i = 0; i < size_ladder.size(); ++i) {
        json += "\"" + size_ladder[i].label + "\": " +
                FormatDouble(size_ladder[i].incremental.median_delay_ms /
                                 size_ladder[0].incremental.median_delay_ms,
                             2);
        json += i + 1 < size_ladder.size() ? ", " : "},\n";
      }
    }
    json += "  \"depth_ladder\": [\n";
    for (size_t i = 0; i < depth_ladder.size(); ++i) {
      json += ComparisonJson(depth_ladder[i]);
      json += i + 1 < depth_ladder.size() ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    if (out_path.empty()) {
      std::printf("\n--- JSON baseline ---\n%s", json.c_str());
    } else {
      FILE* f = std::fopen(out_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out_path.c_str());
        return 1;
      }
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::printf("\nJSON written to %s\n", out_path.c_str());
    }
  }
  return 0;
}
