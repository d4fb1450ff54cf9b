// Figure 5 reproduction: per-question delay-time boxplots with the
// opti-mcd strategy, 5 repetitions per configuration.
//
//   (a) fixed size (3000 atoms), inconsistency 20% -> 80%.
//       Paper shape: delay roughly independent of the ratio; all means
//       far below the interactive threshold.
//   (b) growing size (+0%, +20%, +40%, +60% over 3000 atoms), fixed 30%
//       inconsistency. Paper shape: delay (and its variance) grows with
//       the KB size.
//   (c) fixed size (400 atoms), 100% inconsistency, 150 CDDs, depth
//       d1..d4 with #TGDs = 50/100/150/200. Paper shape: delay grows
//       with the conflict depth (the chase works harder), staying well
//       within the interactive regime.

#include <cstdio>

#include "bench_common.h"
#include "gen/synthetic.h"
#include "service/metrics.h"
#include "util/logging.h"

namespace kbrepair {
namespace bench {
namespace {

constexpr int kRepetitions = 5;

// Pools per-question delays across repetitions and prints one boxplot
// row, then the service-histogram view of the same samples: the delays
// are fed through LatencyHistogram::Observe — the exact path the
// daemon's turn_delay / per-phase metrics use — and the quantiles are
// read back with QuantileSeconds, so the figure and /metrics agree by
// construction. A phase breakdown (from QuestionRecord::phases) shows
// where the delay goes.
void DelayRow(const SyntheticKbOptions& gen_options,
              const std::string& label) {
  SampleStats delays;
  SampleStats questions;
  trace::PhaseTotals phases;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    SyntheticKbOptions options = gen_options;
    options.seed = gen_options.seed + static_cast<uint64_t>(rep);
    StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
    KBREPAIR_CHECK(generated.ok()) << generated.status();
    InquiryOptions inquiry_options;
    const StrategyRun run =
        RunStrategy(generated->kb, Strategy::kOptiMcd, /*repetitions=*/1,
                    /*base_seed=*/777 + static_cast<uint64_t>(rep),
                    inquiry_options);
    delays.AddAll(run.delays.samples());
    questions.AddAll(run.questions.samples());
    phases.Add(run.phases);
  }
  const BoxplotSummary box = delays.Boxplot();
  PrintRow({label, FormatBoxplot(box, 4),
            std::to_string(box.outliers.size()),
            FormatDouble(questions.Mean(), 1)},
           {14, 46, 11, 14});
  LatencyHistogram histogram;
  for (const double delay : delays.samples()) histogram.Observe(delay);
  std::printf("  histogram p50/p95/max: %s/%s/%s s   phases: %s\n",
              FormatDouble(histogram.QuantileSeconds(0.5), 4).c_str(),
              FormatDouble(histogram.QuantileSeconds(0.95), 4).c_str(),
              FormatDouble(histogram.MaxSeconds(), 4).c_str(),
              FormatPhaseShares(phases).c_str());
  KBREPAIR_CHECK(histogram.QuantileSeconds(0.5) <=
                 histogram.QuantileSeconds(0.95));
  KBREPAIR_CHECK(histogram.QuantileSeconds(0.95) <= histogram.MaxSeconds());
}

}  // namespace
}  // namespace bench
}  // namespace kbrepair

int main() {
  using namespace kbrepair;
  using namespace kbrepair::bench;

  std::printf(
      "Figure 5 — per-question delay time (seconds), opti-mcd, %d "
      "repetitions\n(boxplot: min/q1/median/q3/max (mean))\n",
      kbrepair::bench::kRepetitions);

  // --- (a) increasing inconsistency, fixed 3000 atoms.
  PrintHeader("Figure 5 (a) — 3000 atoms, inconsistency 20%..80%");
  PrintRow({"ratio", "delay boxplot (s)", "#outliers", "avg #questions"},
           {14, 46, 11, 14});
  for (double ratio : {0.2, 0.4, 0.6, 0.8}) {
    SyntheticKbOptions options;
    options.seed = 11;
    options.num_facts = 3000;
    options.inconsistency_ratio = ratio;
    options.num_cdds = 40;
    options.cdd_min_atoms = 2;
    options.cdd_max_atoms = 4;
    options.min_arity = 2;
    options.max_arity = 6;
    options.min_multiplicity = 1;
    options.max_multiplicity = 2;
    DelayRow(options, FormatDouble(100 * ratio, 0) + "%");
  }

  // --- (b) increasing size, fixed 30% inconsistency.
  PrintHeader("Figure 5 (b) — size +0%..+60% over 3000 atoms, 30% ratio");
  PrintRow({"size", "delay boxplot (s)", "#outliers", "avg #questions"},
           {14, 46, 11, 14});
  for (double growth : {0.0, 0.2, 0.4, 0.6}) {
    SyntheticKbOptions options;
    options.seed = 12;
    options.num_facts = static_cast<size_t>(3000 * (1.0 + growth));
    options.inconsistency_ratio = 0.3;
    options.num_cdds = 40;
    options.cdd_min_atoms = 2;
    options.cdd_max_atoms = 4;
    options.min_arity = 2;
    options.max_arity = 6;
    options.min_multiplicity = 1;
    options.max_multiplicity = 2;
    const std::string percent = FormatDouble(100 * growth, 0);
    DelayRow(options, "+" + percent + "% (" +
                          std::to_string(options.num_facts) + ")");
  }

  // --- (c) increasing conflict depth, 100% inconsistency.
  PrintHeader(
      "Figure 5 (c) — 400 atoms, 100% inconsistent, 150 CDDs, depth "
      "d1..d4");
  PrintRow({"depth", "delay boxplot (s)", "#outliers", "avg #questions"},
           {14, 46, 11, 14});
  for (int depth = 1; depth <= 4; ++depth) {
    SyntheticKbOptions options;
    options.seed = 13;
    options.num_facts = 400;
    options.inconsistency_ratio = 1.0;
    options.num_cdds = 150;
    options.cdd_min_atoms = 2;
    options.cdd_max_atoms = 3;
    options.min_arity = 2;
    options.max_arity = 4;
    options.num_tgds = static_cast<size_t>(50 * depth);  // 50/100/150/200
    options.conflict_depth = depth;
    options.routed_violation_share = 0.6;
    options.min_multiplicity = 1;
    options.max_multiplicity = 2;
    const std::string depth_name = std::to_string(depth);
    DelayRow(options, "d" + depth_name + " (" +
                          std::to_string(options.num_tgds) + " TGDs)");
  }
  return 0;
}
