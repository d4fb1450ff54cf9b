// Micro-benchmarks (google-benchmark) for the framework's primitives.
// These back the complexity claims of Sections 3-4:
//
//  * chase saturation throughput (weakly-acyclic TGDs);
//  * homomorphism enumeration (allconflicts);
//  * naive vs. ⊥-early-stop consistency checking;
//  * Π-repairability: Algorithm 1 vs. the Π-REPOPT fast path;
//  * UPDATECONFLICTS vs. full naive-conflict recomputation;
//  * sound-question generation delay as the KB grows — the observable
//    side of the polynomial-delay result (Corollary 4.11);
//  * cold KB load: DLGP parse of a session-churn-shaped KB plus its
//    teardown, the text-handling share of a kbrepaird create, and the
//    FactBase build, copy and teardown a cold session makes.

// `--quick [--out FILE]` bypasses google-benchmark and emits a reduced
// join + saturation ladder in the BENCH_*.json schema bench_diff
// understands (baseline: bench/baselines/BENCH_micro_primitives_quick
// .json). The schema's engine columns are reused per ladder:
//   size_ladder  "join ..."        scratch = full naive-conflict rescan,
//                                  incremental = a batch of
//                                  kUpdateConflictsBatch UPDATECONFLICTS
//                                  steps (DeltaConflictEngine::
//                                  OnFixApplied);
//   depth_ladder "saturation ..."  scratch = a batch of
//                                  kSaturationBatch full chases
//                                  (IncrementalChase::Initialize).
// Each row therefore gates one hot primitive of the cache-dense chase
// path (flat posting-table candidate scan / arena-backed wave saturation).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "chase/incremental_chase.h"
#include "gen/synthetic.h"
#include "kb/homomorphism.h"
#include "parser/dlgp_parser.h"
#include "repair/conflict.h"
#include "repair/consistency.h"
#include "repair/delta_conflicts.h"
#include "repair/question.h"
#include "repair/repairability.h"
#include "util/logging.h"

namespace kbrepair {
namespace {

SyntheticKb MakeKb(size_t num_facts, double ratio, size_t num_tgds = 0,
                   int depth = 1) {
  SyntheticKbOptions options;
  options.seed = 99;
  options.num_facts = num_facts;
  options.inconsistency_ratio = ratio;
  options.num_cdds = 20;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 4;
  options.min_arity = 2;
  options.max_arity = 6;
  options.num_tgds = num_tgds;
  options.conflict_depth = depth;
  options.routed_violation_share = num_tgds > 0 ? 0.5 : 0.0;
  options.min_multiplicity = 1;
  options.max_multiplicity = 2;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  KBREPAIR_CHECK(generated.ok()) << generated.status();
  return std::move(generated).value();
}

// A full naive-conflict rescan of `facts`: every CDD-body match
// enumerated and materialized, as a from-scratch census would.
size_t NaiveRescan(KnowledgeBase& kb, const FactBase& facts) {
  HomomorphismFinder finder(&kb.symbols(), &facts);
  std::vector<std::vector<AtomId>> matches;
  for (const Cdd& cdd : kb.cdds()) {
    finder.FindAll(cdd.body(), [&](const Homomorphism& hom) {
      matches.push_back(hom.matched);
      return true;
    });
  }
  return matches.size();
}

void BM_ChaseSaturation(benchmark::State& state) {
  SyntheticKb generated =
      MakeKb(static_cast<size_t>(state.range(0)), 0.1, /*num_tgds=*/20,
             /*depth=*/2);
  KnowledgeBase& kb = generated.kb;
  size_t derived = 0;
  for (auto _ : state) {
    IncrementalChase chase(&kb.symbols(), &kb.tgds());
    KBREPAIR_CHECK(chase.Initialize(kb.facts()).ok());
    derived = chase.facts().size() - chase.num_original();
    benchmark::DoNotOptimize(derived);
  }
  state.counters["derived_atoms"] = static_cast<double>(derived);
}
BENCHMARK(BM_ChaseSaturation)->Arg(500)->Arg(1000)->Arg(2000);

// The raw backtracking join: enumerate every homomorphism of every CDD
// body, no conflict materialization — the candidate scan the flat
// posting index feeds.
void BM_CddBodyJoin(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.3);
  KnowledgeBase& kb = generated.kb;
  HomomorphismFinder finder(&kb.symbols(), &kb.facts());
  size_t total = 0;
  for (auto _ : state) {
    total = 0;
    for (const Cdd& cdd : kb.cdds()) {
      total += finder.Count(cdd.body());
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["matches"] = static_cast<double>(total);
}
BENCHMARK(BM_CddBodyJoin)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000);

void BM_AllConflicts(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.3);
  KnowledgeBase& kb = generated.kb;
  size_t conflicts = 0;
  for (auto _ : state) {
    DeltaConflictEngine census(&kb.symbols(), &kb.tgds(), &kb.cdds());
    KBREPAIR_CHECK(census.Initialize(kb.facts()).ok());
    conflicts = census.size();
    benchmark::DoNotOptimize(conflicts);
  }
  state.counters["conflicts"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_AllConflicts)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000);

void BM_ConsistencyNaive(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.2,
                                 /*num_tgds=*/10, /*depth=*/2);
  KnowledgeBase& kb = generated.kb;
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  for (auto _ : state) {
    StatusOr<bool> consistent = checker.IsConsistentNaive(kb.facts());
    KBREPAIR_CHECK(consistent.ok());
    benchmark::DoNotOptimize(consistent.value());
  }
}
BENCHMARK(BM_ConsistencyNaive)->Arg(1000)->Arg(2000);

void BM_ConsistencyOpt(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.2,
                                 /*num_tgds=*/10, /*depth=*/2);
  KnowledgeBase& kb = generated.kb;
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  for (auto _ : state) {
    StatusOr<bool> consistent = checker.IsConsistentOpt(kb.facts());
    KBREPAIR_CHECK(consistent.ok());
    benchmark::DoNotOptimize(consistent.value());
  }
}
BENCHMARK(BM_ConsistencyOpt)->Arg(1000)->Arg(2000);

void BM_PiRepairability(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.2);
  KnowledgeBase& kb = generated.kb;
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  for (auto _ : state) {
    StatusOr<bool> repairable = checker.IsPiRepairable(kb.facts(), {});
    KBREPAIR_CHECK(repairable.ok());
    benchmark::DoNotOptimize(repairable.value());
  }
}
BENCHMARK(BM_PiRepairability)->Arg(500)->Arg(1000)->Arg(2000);

void BM_PiRepOptScopeFastPath(benchmark::State& state) {
  SyntheticKb generated = MakeKb(1000, 0.2);
  KnowledgeBase& kb = generated.kb;
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  const PositionSet pi;
  KBREPAIR_CHECK(checker.EnsureSkeleton(kb.facts(), pi).ok());
  RepairabilityChecker::Scope scope(&checker, kb.facts(), pi);
  const TermId fresh = kb.symbols().MakeFreshNull();
  const Fix fix{0, 0, fresh};
  for (auto _ : state) {
    StatusOr<bool> keeps = scope.FixKeepsRepairable(fix);
    KBREPAIR_CHECK(keeps.ok());
    benchmark::DoNotOptimize(keeps.value());
  }
  state.counters["fast_paths"] =
      static_cast<double>(scope.num_fast_paths());
}
BENCHMARK(BM_PiRepOptScopeFastPath);

void BM_PiRepOptScopeFullCheck(benchmark::State& state) {
  SyntheticKb generated = MakeKb(1000, 0.2);
  KnowledgeBase& kb = generated.kb;
  // Freeze one position so its value collides and forces full checks,
  // each a rewrite-and-revert probe of the maintained skeleton.
  const TermId frozen_value = kb.facts().atom(0).args[0];
  PositionSet pi = {Position{0, 0}};
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  KBREPAIR_CHECK(checker.EnsureSkeleton(kb.facts(), pi).ok());
  RepairabilityChecker::Scope scope(&checker, kb.facts(), pi);
  const Fix fix{1, 0, frozen_value};
  for (auto _ : state) {
    StatusOr<bool> keeps = scope.FixKeepsRepairable(fix);
    KBREPAIR_CHECK(keeps.ok());
    benchmark::DoNotOptimize(keeps.value());
  }
  state.counters["full_checks"] =
      static_cast<double>(scope.num_full_checks());
}
BENCHMARK(BM_PiRepOptScopeFullCheck);

void BM_UpdateConflictsIncremental(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.3);
  KnowledgeBase& kb = generated.kb;
  DeltaConflictEngine engine(&kb.symbols(), &kb.tgds(), &kb.cdds());
  KBREPAIR_CHECK(engine.Initialize(kb.facts()).ok());
  const TermId fresh = kb.symbols().MakeFreshNull();
  const TermId original = kb.facts().atom(0).args[0];
  bool flip = false;
  for (auto _ : state) {
    const Status status = engine.OnFixApplied(0, 0, flip ? original : fresh);
    KBREPAIR_CHECK(status.ok()) << status;
    flip = !flip;
    benchmark::DoNotOptimize(engine.naive_size());
  }
}
BENCHMARK(BM_UpdateConflictsIncremental)->Arg(1000)->Arg(2000);

void BM_UpdateConflictsFullRecompute(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.3);
  KnowledgeBase& kb = generated.kb;
  FactBase working = kb.facts();
  const TermId fresh = kb.symbols().MakeFreshNull();
  const TermId original = working.atom(0).args[0];
  bool flip = false;
  for (auto _ : state) {
    working.SetArg(0, 0, flip ? original : fresh);
    flip = !flip;
    benchmark::DoNotOptimize(NaiveRescan(kb, working));
  }
}
BENCHMARK(BM_UpdateConflictsFullRecompute)->Arg(1000)->Arg(2000);

// Polynomial-delay evidence: time one full sound-question generation
// (conflict positions x active-domain candidates, each Π-REPOPT
// filtered) while the KB size grows.
void BM_SoundQuestionGeneration(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.2);
  KnowledgeBase& kb = generated.kb;
  RepairabilityChecker repairability(&kb.symbols(), &kb.tgds(),
                                     &kb.cdds());
  DeltaConflictEngine census(&kb.symbols(), &kb.tgds(), &kb.cdds());
  QuestionGenerator generator(&kb.symbols(), &repairability);
  KBREPAIR_CHECK(repairability.EnsureSkeleton(kb.facts(), {}).ok());
  KBREPAIR_CHECK(census.Initialize(kb.facts()).ok());
  KBREPAIR_CHECK(census.naive_size() > 0);
  const Conflict conflict = census.CanonicalNaiveConflicts().front();
  size_t question_size = 0;
  for (auto _ : state) {
    StatusOr<Question> question = generator.SoundQuestion(
        kb.facts(), {}, conflict, kb.cdds(),
        PositionSelection::kAllPositions);
    KBREPAIR_CHECK(question.ok());
    question_size = question->fixes.size();
    benchmark::DoNotOptimize(question_size);
  }
  state.counters["question_size"] = static_cast<double>(question_size);
}
BENCHMARK(BM_SoundQuestionGeneration)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000);

// A KB shaped like the session-churn benchmark's (arities 2-4, 60 TGDs,
// 20 CDDs).
SyntheticKb ChurnShapedKb(size_t num_facts) {
  SyntheticKbOptions options;
  options.seed = 1;
  options.num_facts = num_facts;
  options.inconsistency_ratio = 0.01;
  options.num_cdds = 20;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 3;
  options.min_arity = 2;
  options.max_arity = 4;
  options.num_tgds = 60;
  options.conflict_depth = 2;
  options.routed_violation_share = 0.6;
  options.min_multiplicity = 1;
  options.max_multiplicity = 2;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  KBREPAIR_CHECK(generated.ok()) << generated.status();
  return std::move(*generated);
}

// Cold KB load as a kbrepaird create runs it: ParseDlgp of the printed
// text of a session-churn-shaped KB, and the parsed KB's teardown, both
// timed.
void BM_ParseDlgp(benchmark::State& state) {
  const std::string text =
      PrintDlgp(ChurnShapedKb(static_cast<size_t>(state.range(0))).kb);
  for (auto _ : state) {
    StatusOr<KnowledgeBase> kb = ParseDlgp(text);
    KBREPAIR_CHECK(kb.ok()) << kb.status();
    benchmark::DoNotOptimize(kb->facts().size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseDlgp)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

// The FactBase side of a cold session: building F with Add, one copy
// (InquiryEngine::Begin copies F twice), and the teardown of both. Each
// stage is timed on its own and reported per iteration as add_ms,
// copy_ms and teardown_ms; the benchmark's time is their sum.
void BM_FactBaseLifecycle(benchmark::State& state) {
  const SyntheticKb generated =
      ChurnShapedKb(static_cast<size_t>(state.range(0)));
  const FactBase& source = generated.kb.facts();
  std::vector<Atom> atoms;
  for (AtomId id = 0; id < source.size(); ++id) {
    atoms.push_back(source.atom(id));
  }
  using Clock = std::chrono::steady_clock;
  const auto ms = [](Clock::duration elapsed) {
    return std::chrono::duration<double, std::milli>(elapsed).count();
  };
  double add_ms = 0;
  double copy_ms = 0;
  double teardown_ms = 0;
  for (auto _ : state) {
    const Clock::time_point start = Clock::now();
    auto facts = std::make_unique<FactBase>();
    for (const Atom& atom : atoms) facts->Add(atom);
    const Clock::time_point built = Clock::now();
    auto copy = std::make_unique<FactBase>(*facts);
    const Clock::time_point copied = Clock::now();
    benchmark::DoNotOptimize(copy->size());
    facts.reset();
    copy.reset();
    const Clock::time_point freed = Clock::now();
    add_ms += ms(built - start);
    copy_ms += ms(copied - built);
    teardown_ms += ms(freed - copied);
  }
  state.counters["add_ms"] =
      benchmark::Counter(add_ms, benchmark::Counter::kAvgIterations);
  state.counters["copy_ms"] =
      benchmark::Counter(copy_ms, benchmark::Counter::kAvgIterations);
  state.counters["teardown_ms"] =
      benchmark::Counter(teardown_ms, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FactBaseLifecycle)
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// --quick gate mode (bench_diff schema; see file comment).

struct QuickStats {
  double mean_ms = 0;
  double median_ms = 0;
  double max_ms = 0;
};

// Times `reps` calls of `fn` (after one untimed warmup call, so cold
// caches don't skew the gated mean) and summarizes per-call wall time.
template <typename Fn>
QuickStats MeasureMs(int reps, Fn&& fn) {
  fn();
  std::vector<double> samples;
  samples.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  std::sort(samples.begin(), samples.end());
  QuickStats out;
  for (double s : samples) out.mean_ms += s;
  out.mean_ms /= samples.size();
  out.median_ms = samples[samples.size() / 2];
  out.max_ms = samples.back();
  return out;
}

std::string StatsJson(const QuickStats& stats) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "{\"mean_delay_ms\": %.3f, \"median_delay_ms\": %.3f, "
                "\"max_delay_ms\": %.3f}",
                stats.mean_ms, stats.median_ms, stats.max_ms);
  return buffer;
}

std::string RowJson(const std::string& config, const QuickStats& scratch,
                    const QuickStats& incremental) {
  return "    {\"config\": \"" + config + "\",\n     \"scratch\": " +
         StatsJson(scratch) + ",\n     \"incremental\": " +
         StatsJson(incremental) + "}";
}

// UPDATECONFLICTS steps per incremental join sample. One step takes a
// few microseconds, far under bench_diff's quarter-millisecond absolute
// floor, so a sample times a batch: its mean clears the floor and a 2x
// slowdown of the step fails the gate.
constexpr int kUpdateConflictsBatch = 256;

// One join row: full naive rescan vs a batch of UPDATECONFLICTS steps of
// the maintained engine (each a pinned re-enumeration plus its per-fix
// self-check) on a TGD-free KB.
std::string JoinRow(size_t num_facts) {
  SyntheticKb generated = MakeKb(num_facts, 0.3);
  KnowledgeBase& kb = generated.kb;
  FactBase working = kb.facts();
  const TermId fresh = kb.symbols().MakeFreshNull();
  const TermId original = working.atom(0).args[0];
  bool flip = false;
  const QuickStats scratch = MeasureMs(12, [&] {
    working.SetArg(0, 0, flip ? original : fresh);
    flip = !flip;
    KBREPAIR_CHECK(NaiveRescan(kb, working) > 0);
  });
  DeltaConflictEngine engine(&kb.symbols(), &kb.tgds(), &kb.cdds());
  KBREPAIR_CHECK(engine.Initialize(working).ok());
  const QuickStats incremental = MeasureMs(12, [&] {
    for (int step = 0; step < kUpdateConflictsBatch; ++step) {
      const Status status =
          engine.OnFixApplied(0, 0, flip ? original : fresh);
      KBREPAIR_CHECK(status.ok()) << status;
      flip = !flip;
    }
  });
  return RowJson("join " + std::to_string(num_facts) + " facts", scratch,
                 incremental);
}

// Full chases per saturation sample. One chase of these workloads takes
// a tenth to a third of a millisecond, under bench_diff's
// quarter-millisecond absolute floor, so a sample times a batch: its
// mean clears the floor several times over and a 2x slowdown of the
// chase fails the gate.
constexpr int kSaturationBatch = 8;

// One saturation row: a batch of full chases (scratch column) over a
// TGD-heavy workload. A batch takes a few milliseconds — on an
// oversubscribed runner a scheduler preemption then shifts the
// 16-sample mean by a few percent instead of doubling it.
std::string SaturationRow(size_t num_facts) {
  SyntheticKb generated =
      MakeKb(num_facts, 0.1, /*num_tgds=*/20, /*depth=*/2);
  KnowledgeBase& kb = generated.kb;
  const QuickStats scratch = MeasureMs(16, [&] {
    for (int run = 0; run < kSaturationBatch; ++run) {
      IncrementalChase chase(&kb.symbols(), &kb.tgds());
      const Status status = chase.Initialize(kb.facts());
      KBREPAIR_CHECK(status.ok()) << status;
      benchmark::DoNotOptimize(chase.facts().size());
    }
  });
  return "    {\"config\": \"saturation " + std::to_string(num_facts) +
         " facts d2\",\n     \"scratch\": " + StatsJson(scratch) + "}";
}

int RunQuickGate(const std::string& out_path) {
  std::string json = "{\n  \"bench\": \"micro_primitives\",\n";
  json += "  \"size_ladder\": [\n";
  json += JoinRow(1000) + ",\n";
  json += JoinRow(2000) + "\n";
  json += "  ],\n  \"depth_ladder\": [\n";
  json += SaturationRow(2000) + ",\n";
  json += SaturationRow(4000) + "\n";
  json += "  ]\n}\n";
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace kbrepair

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (quick) return kbrepair::RunQuickGate(out_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
