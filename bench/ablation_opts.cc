// Ablation study (not in the paper, but quantifying the design choices
// Section 5 motivates): end-to-end inquiry cost with and without the
// optimizations.
//
//   * Algorithm 4 (two-phase: naive conflicts first + UPDATECONFLICTS,
//     then the chased census) vs. Algorithm 3 (allconflicts on the
//     chased base before every question). Both read chased conflicts
//     off the maintained delta engine, so the comparison isolates the
//     phase-one naive pass;
//   * per-strategy delay profile on one mid-size workload.

#include <cstdio>

#include "bench_common.h"
#include "gen/synthetic.h"
#include "util/logging.h"

namespace kbrepair {
namespace bench {
namespace {

constexpr int kRepetitions = 3;

SyntheticKbOptions Workload(uint64_t seed) {
  SyntheticKbOptions options;
  options.seed = seed;
  options.num_facts = 800;
  options.inconsistency_ratio = 0.25;
  options.num_cdds = 25;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 4;
  options.min_arity = 2;
  options.max_arity = 5;
  options.num_tgds = 12;
  options.conflict_depth = 2;
  options.routed_violation_share = 0.4;
  options.min_multiplicity = 1;
  options.max_multiplicity = 2;
  return options;
}

void Compare(Strategy strategy) {
  SampleStats two_phase_delay;
  SampleStats basic_delay;
  SampleStats two_phase_questions;
  SampleStats basic_questions;
  SampleStats two_phase_total;
  SampleStats basic_total;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (bool two_phase : {true, false}) {
      StatusOr<SyntheticKb> generated =
          GenerateSyntheticKb(Workload(300 + static_cast<uint64_t>(rep)));
      KBREPAIR_CHECK(generated.ok()) << generated.status();
      InquiryOptions options;
      options.two_phase = two_phase;
      const StrategyRun run =
          RunStrategy(generated->kb, strategy, /*repetitions=*/1,
                      /*base_seed=*/600 + static_cast<uint64_t>(rep),
                      options);
      SampleStats& delay = two_phase ? two_phase_delay : basic_delay;
      SampleStats& questions =
          two_phase ? two_phase_questions : basic_questions;
      SampleStats& total = two_phase ? two_phase_total : basic_total;
      delay.AddAll(run.delays.samples());
      questions.AddAll(run.questions.samples());
      double sum = 0;
      for (double d : run.delays.samples()) sum += d;
      total.Add(sum);
    }
  }
  PrintRow({StrategyName(strategy), FormatDouble(two_phase_questions.Mean(), 1),
            FormatDouble(basic_questions.Mean(), 1),
            FormatDouble(two_phase_delay.Mean() * 1e3, 2),
            FormatDouble(basic_delay.Mean() * 1e3, 2),
            FormatDouble(two_phase_total.Mean(), 2),
            FormatDouble(basic_total.Mean(), 2)},
           {12, 13, 13, 17, 17, 15, 15});
}

}  // namespace
}  // namespace bench
}  // namespace kbrepair

int main() {
  using namespace kbrepair;
  using namespace kbrepair::bench;

  std::printf(
      "Ablation — Algorithm 4 (two-phase + incremental structures) vs "
      "Algorithm 3 (full chased census per question)\n"
      "Workload: 800 atoms, 25%% inconsistent, 25 CDDs, 12 TGDs, depth "
      "2, %d repetitions\n",
      kRepetitions);
  PrintHeader("end-to-end inquiry cost");
  PrintRow({"strategy", "2ph #quest", "alg3 #quest", "2ph delay (ms)",
            "alg3 delay (ms)", "2ph compute(s)", "alg3 compute(s)"},
           {12, 13, 13, 17, 17, 15, 15});
  for (Strategy strategy : kAllStrategies) Compare(strategy);
  std::printf(
      "\n(The question counts may differ between the modes: conflict\n"
      "selection sees naive conflicts first in Algorithm 4, the full\n"
      "chased conflict set in Algorithm 3.)\n");
  return 0;
}
