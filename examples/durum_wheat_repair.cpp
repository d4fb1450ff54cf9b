// Repairing the Durum Wheat knowledge base (the paper's real-world
// case study, Section 6) with each questioning strategy.
//
// Reconstructs the KB, prints its characteristics table, then runs the
// inquiry with a simulated user under all four strategies and reports
// questions asked, conflicts resolved per question, and delay times.

#include <cstdio>

#include "gen/durum_wheat.h"
#include "repair/consistency.h"
#include "repair/delta_conflicts.h"
#include "repair/inquiry.h"
#include "repair/user.h"

int main(int argc, char** argv) {
  using namespace kbrepair;

  const DurumWheatVersion version =
      (argc > 1 && std::string(argv[1]) == "v2") ? DurumWheatVersion::kV2
                                                 : DurumWheatVersion::kV1;
  StatusOr<DurumWheatKb> durum = GenerateDurumWheatKb({version});
  if (!durum.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 durum.status().ToString().c_str());
    return 1;
  }
  KnowledgeBase& kb = durum->kb;

  DeltaConflictEngine census(&kb.symbols(), &kb.tgds(), &kb.cdds());
  if (!census.Initialize(kb.facts()).ok()) {
    std::fprintf(stderr, "analysis failed\n");
    return 1;
  }

  std::printf("Durum Wheat %s\n",
              version == DurumWheatVersion::kV1 ? "v1" : "v2");
  std::printf("  facts: %zu   chased: %zu   TGDs: %zu   CDDs: %zu\n",
              kb.facts().size(), census.chase().facts().size(),
              kb.tgds().size(), kb.cdds().size());
  std::printf("  conflicts: %zu (%zu naive, %zu chase-only)\n",
              census.size(), durum->info.planned_naive_conflicts,
              durum->info.planned_chase_conflicts);

  // A taste of the content, like the paper's excerpt table.
  std::printf("\nSample facts:\n");
  for (AtomId id = 0; id < 3 && id < kb.facts().size(); ++id) {
    std::printf("  %s\n", kb.facts().atom(id).ToString(kb.symbols()).c_str());
  }
  std::printf("Sample TGD:  %s\n",
              kb.tgds().front().ToString(kb.symbols()).c_str());
  std::printf("Sample CDD:  %s\n",
              kb.cdds().front().ToString(kb.symbols()).c_str());

  std::printf("\n%-12s %-12s %-22s %-18s\n", "strategy", "questions",
              "conflicts/question", "mean delay (ms)");
  for (Strategy strategy :
       {Strategy::kRandom, Strategy::kOptiJoin, Strategy::kOptiProp,
        Strategy::kOptiMcd}) {
    RandomUser user(2018);
    InquiryOptions options;
    options.strategy = strategy;
    options.seed = 2018;
    InquiryEngine engine(&kb, options);
    StatusOr<InquiryResult> result = engine.Run(user);
    if (!result.ok()) {
      std::fprintf(stderr, "inquiry failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
    const bool consistent = checker.IsConsistentOpt(result->facts).value();
    std::printf("%-12s %-12zu %-22.2f %-18.2f%s\n", StrategyName(strategy),
                result->num_questions(), result->ConflictsPerQuestion(),
                result->MeanDelaySeconds() * 1e3,
                consistent ? "" : "  [INCONSISTENT!]");
  }
  return 0;
}
