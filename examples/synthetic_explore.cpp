// Exploring the synthetic-workload generator: sweep one knob, watch how
// the KB structure and the repair effort respond. A small CLI over the
// generator used by the benchmark harness.
//
// Usage:
//   synthetic_explore [ratio|depth|size] [strategy]
//
//   ratio: sweep inconsistency ratio 5%..40% at 500 atoms (default)
//   depth: sweep TGD conflict depth 1..4 (100% inconsistent, 300 atoms)
//   size:  sweep KB size 250..2000 atoms at 20% inconsistency

#include <cstdio>
#include <string>

#include "gen/synthetic.h"
#include "repair/delta_conflicts.h"
#include "repair/inquiry.h"
#include "repair/user.h"

namespace {

void RunOne(const kbrepair::SyntheticKbOptions& options,
            kbrepair::Strategy strategy, const std::string& label) {
  using namespace kbrepair;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 generated.status().ToString().c_str());
    return;
  }
  KnowledgeBase& kb = generated->kb;
  DeltaConflictEngine census(&kb.symbols(), &kb.tgds(), &kb.cdds());
  if (!census.Initialize(kb.facts()).ok()) return;
  const OverlapIndicators ind =
      ComputeOverlapIndicators(census.CanonicalConflicts());

  RandomUser user(7);
  InquiryOptions inquiry_options;
  inquiry_options.strategy = strategy;
  inquiry_options.seed = 7;
  InquiryEngine engine(&kb, inquiry_options);
  StatusOr<InquiryResult> result = engine.Run(user);
  if (!result.ok()) {
    std::fprintf(stderr, "inquiry failed: %s\n",
                 result.status().ToString().c_str());
    return;
  }
  std::printf("%-14s atoms=%-6zu conflicts=%-5zu scope=%-6.1f "
              "questions=%-5zu conflicts/q=%-6.2f meanDelay=%.2fms\n",
              label.c_str(), kb.facts().size(), census.size(),
              ind.avg_scope, result->num_questions(),
              result->ConflictsPerQuestion(),
              result->MeanDelaySeconds() * 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kbrepair;

  const std::string mode = argc > 1 ? argv[1] : "ratio";
  const StatusOr<Strategy> parsed =
      StrategyFromName(argc > 2 ? argv[2] : "opti-mcd");
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Strategy strategy = *parsed;
  std::printf("sweep=%s strategy=%s\n", mode.c_str(),
              StrategyName(strategy));

  SyntheticKbOptions base;
  base.seed = 1;
  base.num_cdds = 12;
  base.cdd_min_atoms = 2;
  base.cdd_max_atoms = 4;
  base.min_arity = 2;
  base.max_arity = 5;
  base.min_multiplicity = 1;
  base.max_multiplicity = 2;

  if (mode == "depth") {
    for (int depth = 1; depth <= 4; ++depth) {
      SyntheticKbOptions options = base;
      options.num_facts = 300;
      options.inconsistency_ratio = 1.0;
      options.num_tgds = static_cast<size_t>(30 * depth);
      options.conflict_depth = depth;
      options.routed_violation_share = 0.5;
      RunOne(options, strategy, "depth=" + std::to_string(depth));
    }
  } else if (mode == "size") {
    for (size_t size : {250u, 500u, 1000u, 2000u}) {
      SyntheticKbOptions options = base;
      options.num_facts = size;
      options.inconsistency_ratio = 0.2;
      RunOne(options, strategy, "size=" + std::to_string(size));
    }
  } else {
    for (double ratio : {0.05, 0.1, 0.2, 0.3, 0.4}) {
      SyntheticKbOptions options = base;
      options.num_facts = 500;
      options.inconsistency_ratio = ratio;
      RunOne(options, strategy,
             "ratio=" + std::to_string(static_cast<int>(100 * ratio)) +
                 "%");
    }
  }
  return 0;
}
