// Figure 2 reproduction: the Durum Wheat knowledge bases.
//
//   (table) KB characteristics: size, chase size, conflicts,
//           avg # atoms per overlap, avg scope, #TGDs, #CDDs,
//           inconsistency ratio, avg atoms per conflict;
//   (a)/(b) average number of questions per strategy, v1 and v2;
//   (c)/(d) average number of conflicts resolved per question.
//
// Paper reference values (Java/GRAAL testbed):
//   v1: random 26.73, opti-join 27.18, opti-prop 24.64, opti-mcd 14.18
//   v2: random 42.00, opti-join 45.91, opti-prop 40.91, opti-mcd 29.36
//   conflicts/question v1: ~6.8-7.5 others vs 13.05 opti-mcd
//   conflicts/question v2: ~5.1-7.2 others vs ~13.0 opti-mcd

#include <cstdio>

#include "bench_common.h"
#include "gen/durum_wheat.h"
#include "repair/conflict.h"
#include "repair/delta_conflicts.h"
#include "util/logging.h"

namespace kbrepair {
namespace bench {
namespace {

constexpr int kRepetitions = 10;  // as in the paper's table

void RunVersion(DurumWheatVersion version, const char* label) {
  StatusOr<DurumWheatKb> durum = GenerateDurumWheatKb({version});
  KBREPAIR_CHECK(durum.ok()) << durum.status();
  KnowledgeBase& kb = durum->kb;

  // --- Characteristics table.
  DeltaConflictEngine census(&kb.symbols(), &kb.tgds(), &kb.cdds());
  KBREPAIR_CHECK(census.Initialize(kb.facts()).ok());
  const std::vector<Conflict> all = census.CanonicalConflicts();
  const OverlapIndicators ind = ComputeOverlapIndicators(all);
  double atoms_per_conflict = 0;
  for (const Conflict& conflict : all) {
    atoms_per_conflict += static_cast<double>(conflict.support.size());
  }
  if (!all.empty()) {
    atoms_per_conflict /= static_cast<double>(all.size());
  }

  PrintHeader(std::string("Figure 2 table — ") + label +
              " characteristics");
  const std::vector<int> widths = {26, 14};
  PrintRow({"Size (#atoms)", std::to_string(kb.facts().size())}, widths);
  PrintRow({"ChaseSize (#atoms)",
            std::to_string(census.chase().facts().size())},
           widths);
  PrintRow({"#TGDs", std::to_string(kb.tgds().size())}, widths);
  PrintRow({"#CDDs", std::to_string(kb.cdds().size())}, widths);
  PrintRow({"Conflicts", std::to_string(all.size())}, widths);
  PrintRow({"Avg # atoms per overlap",
            FormatDouble(ind.avg_atoms_per_overlap, 2)},
           widths);
  PrintRow({"Avg scope", FormatDouble(ind.avg_scope, 1)}, widths);
  PrintRow({"Inconsistency ratio",
            FormatDouble(100.0 * static_cast<double>(ind.atoms_in_conflicts) /
                             static_cast<double>(kb.facts().size()),
                         1) +
                "% (" + std::to_string(ind.atoms_in_conflicts) + " atoms)"},
           widths);
  PrintRow({"Avg # atoms per conflict", FormatDouble(atoms_per_conflict, 1)},
           widths);
  PrintRow({"#Repetitions", std::to_string(kRepetitions)}, widths);

  // --- (a)/(b): average questions; (c)/(d): conflicts per question.
  PrintHeader(std::string("Figure 2 (a/b) + (c/d) — ") + label);
  PrintRow({"strategy", "avg #questions", "avg conflicts/question",
            "mean delay (ms)", "max delay (ms)"},
           {12, 16, 24, 18, 16});
  for (Strategy strategy : kAllStrategies) {
    const StrategyRun run =
        RunStrategy(kb, strategy, kRepetitions, /*base_seed=*/42);
    PrintRow({StrategyName(strategy),
              FormatDouble(run.questions.Mean(), 2),
              FormatDouble(run.conflicts_per_question.Mean(), 2),
              FormatDouble(run.delays.Mean() * 1e3, 2),
              FormatDouble(run.delays.Max() * 1e3, 2)},
             {12, 16, 24, 18, 16});
  }
}

}  // namespace
}  // namespace bench
}  // namespace kbrepair

int main() {
  std::printf(
      "Figure 2 — user-guided repair of the Durum Wheat KBs\n"
      "(paper: opti-mcd wins — v1 14.18 vs ~25-27 questions for the "
      "others;\n v2 29.36 vs ~41-46; opti-mcd resolves ~13 conflicts "
      "per question)\n");
  kbrepair::bench::RunVersion(kbrepair::DurumWheatVersion::kV1,
                              "Durum Wheat v1");
  kbrepair::bench::RunVersion(kbrepair::DurumWheatVersion::kV2,
                              "Durum Wheat v2");
  return 0;
}
