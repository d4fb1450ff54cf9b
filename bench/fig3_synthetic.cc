// Figure 3 reproduction: synthetic KBs with CDDs only, fixed size
// (1005 atoms), increasing inconsistency ratio 5% -> 30%.
//
//   (table) per-ratio KB characteristics (conflicts, avg atoms per
//           overlap, avg scope);
//   (a) average number of questions per strategy per ratio;
//   (b) average number of conflicts resolved per question.
//
// Paper reference shape: random worst everywhere and the gap to
// opti-join/opti-prop is large because the share of join positions is
// low (<30%); opti-mcd best; question counts grow with the ratio
// (paper: random 70->357, opti-mcd 15->70 over 5%->30%).

#include <cstdio>

#include "bench_common.h"
#include "gen/synthetic.h"
#include "repair/conflict.h"
#include "repair/delta_conflicts.h"
#include "util/logging.h"

namespace kbrepair {
namespace bench {
namespace {

constexpr int kRepetitions = 6;  // as in the paper's table
constexpr double kRatios[] = {0.05, 0.10, 0.16, 0.20, 0.25, 0.30};

SyntheticKbOptions Fig3Options(double ratio, uint64_t seed) {
  SyntheticKbOptions options;
  options.seed = seed;
  options.num_facts = 1005;
  options.inconsistency_ratio = ratio;
  options.num_cdds = 20;
  // Paper: s in [5,10], arity in [2,10], join share under 30%.
  options.cdd_min_atoms = 5;
  options.cdd_max_atoms = 10;
  options.min_arity = 2;
  options.max_arity = 10;
  options.join_position_share = 0.22;
  options.min_multiplicity = 1;
  options.max_multiplicity = 2;
  // With 5-10 body atoms an unbounded grid product explodes; three
  // multiplied atoms per cluster keeps the per-ratio conflict counts in
  // the paper's 56..496 band.
  options.max_multiplied_atoms = 3;
  return options;
}

}  // namespace
}  // namespace bench
}  // namespace kbrepair

int main() {
  using namespace kbrepair;
  using namespace kbrepair::bench;

  std::printf(
      "Figure 3 — synthetic KBs, 1005 atoms, CDDs only, inconsistency "
      "5%%..30%%\n(paper shape: opti-mcd << opti-join ~= opti-prop << "
      "random; counts grow with ratio)\n");

  // --- Characteristics table.
  PrintHeader("Figure 3 table — KB characteristics per ratio");
  PrintRow({"ratio", "size", "conflicts", "avg atoms/overlap", "avg scope",
            "join-pos share"},
           {8, 8, 11, 19, 11, 15});
  for (double ratio : kRatios) {
    StatusOr<SyntheticKb> generated =
        GenerateSyntheticKb(Fig3Options(ratio, /*seed=*/100));
    KBREPAIR_CHECK(generated.ok()) << generated.status();
    KnowledgeBase& kb = generated->kb;
    DeltaConflictEngine census(&kb.symbols(), &kb.tgds(), &kb.cdds());
    KBREPAIR_CHECK(census.Initialize(kb.facts()).ok());
    const OverlapIndicators ind =
        ComputeOverlapIndicators(census.CanonicalConflicts());
    PrintRow({FormatDouble(100 * ratio, 0) + "%",
              std::to_string(kb.facts().size()),
              std::to_string(census.size()),
              FormatDouble(ind.avg_atoms_per_overlap, 2),
              FormatDouble(ind.avg_scope, 1),
              FormatDouble(100 * generated->info.join_position_share, 0) +
                  "%"},
             {8, 8, 11, 19, 11, 15});
  }

  // --- (a) question counts and (b) conflicts per question.
  PrintHeader("Figure 3 (a) — avg #questions per strategy");
  PrintRow({"ratio", "opti-join", "opti-mcd", "opti-prop", "random"},
           {8, 11, 11, 11, 11});
  std::vector<std::vector<std::string>> conflict_rows;
  for (double ratio : kRatios) {
    std::vector<std::string> question_row = {FormatDouble(100 * ratio, 0) +
                                             "%"};
    std::vector<std::string> conflict_row = question_row;
    for (Strategy strategy : kAllStrategies) {
      SampleStats questions;
      SampleStats conflicts_per_question;
      for (int rep = 0; rep < kRepetitions; ++rep) {
        StatusOr<SyntheticKb> generated = GenerateSyntheticKb(
            Fig3Options(ratio, 100 + static_cast<uint64_t>(rep)));
        KBREPAIR_CHECK(generated.ok()) << generated.status();
        const StrategyRun run =
            RunStrategy(generated->kb, strategy, /*repetitions=*/1,
                        /*base_seed=*/500 + static_cast<uint64_t>(rep));
        questions.AddAll(run.questions.samples());
        conflicts_per_question.AddAll(
            run.conflicts_per_question.samples());
      }
      question_row.push_back(FormatDouble(questions.Mean(), 1));
      conflict_row.push_back(FormatDouble(conflicts_per_question.Mean(), 2));
    }
    PrintRow(question_row, {8, 11, 11, 11, 11});
    conflict_rows.push_back(conflict_row);
  }

  PrintHeader("Figure 3 (b) — avg conflicts resolved per question");
  PrintRow({"ratio", "opti-join", "opti-mcd", "opti-prop", "random"},
           {8, 11, 11, 11, 11});
  for (const std::vector<std::string>& row : conflict_rows) {
    PrintRow(row, {8, 11, 11, 11, 11});
  }
  return 0;
}
