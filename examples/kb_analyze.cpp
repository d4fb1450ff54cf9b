// kb_analyze: a data steward's diagnostic CLI over a DLGP knowledge
// base. Prints validation results, the chase footprint, the full
// conflict census with overlap indicators, per-CDD violation counts,
// the conflict-hypergraph hot spots, and a dry-run repair estimate
// (questions needed per strategy with a simulated user).
//
// Usage:
//   kb_analyze [kb.dlgp] [--queries] [--dot] [--explain]
// With no argument, analyzes the built-in hospital example.
//   --explain  print a full explanation of every conflict
//   --dot      print the conflict hypergraph in GraphViz DOT format
//   --queries  read conjunctive queries from stdin (one per line, DLGP
//              query syntax ?(X) :- body.) and print certain answers
//   --cqa      like --queries, but evaluate under consistent query
//              answering: answers holding in EVERY minimal null-valued
//              update repair (repair/cqa.h; small KBs only)

#include <algorithm>
#include <iostream>
#include <map>
#include <string>

#include "chase/query.h"
#include "parser/dlgp_parser.h"
#include "repair/conflict.h"
#include "repair/consistency.h"
#include "repair/cqa.h"
#include "repair/delta_conflicts.h"
#include "repair/inquiry.h"
#include "repair/user.h"
#include "util/stats.h"

namespace {

constexpr const char* kDefaultKb = R"(
prescribed(aspirin, john).
hasAllergy(john, aspirin).
hasAllergy(mike, penicillin).
hasPain(john, migraine).
isPainKillerFor(nsaids, migraine).
incompatible(aspirin, nsaids).
prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
! :- prescribed(X, Y), hasAllergy(Y, X).
! :- prescribed(X, Z), prescribed(Y, Z), incompatible(X, Y).
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace kbrepair;

  bool run_queries = false;
  bool run_cqa = false;
  bool dump_dot = false;
  bool explain = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--queries") {
      run_queries = true;
    } else if (arg == "--cqa") {
      run_cqa = true;
    } else if (arg == "--dot") {
      dump_dot = true;
    } else if (arg == "--explain") {
      explain = true;
    } else {
      path = arg;
    }
  }

  StatusOr<KnowledgeBase> parsed =
      path.empty() ? ParseDlgp(kDefaultKb) : LoadDlgpFile(path);
  if (!parsed.ok()) {
    std::cerr << "load error: " << parsed.status() << "\n";
    return 1;
  }
  KnowledgeBase kb = std::move(parsed).value();

  std::cout << "== validation ==\n";
  if (Status status = kb.Validate(); !status.ok()) {
    std::cout << "INVALID: " << status << "\n";
    return 1;
  }
  std::cout << "OK: " << kb.facts().size() << " facts ("
            << kb.facts().NumPositions() << " positions), "
            << kb.tgds().size() << " TGDs (weakly acyclic), "
            << kb.cdds().size() << " CDDs\n";

  std::cout << "\n== chase ==\n";
  DeltaConflictEngine census(&kb.symbols(), &kb.tgds(), &kb.cdds());
  if (Status status = census.Initialize(kb.facts()); !status.ok()) {
    std::cerr << "chase failed: " << status << "\n";
    return 1;
  }
  const IncrementalChase& chased = census.chase();
  std::cout << "Cl(F): " << chased.facts().size() << " atoms ("
            << chased.facts().size() - chased.num_original()
            << " derived)\n";

  std::cout << "\n== conflicts ==\n";
  const std::vector<Conflict> all = census.CanonicalConflicts();
  const size_t naive = census.naive_size();
  const OverlapIndicators ind = ComputeOverlapIndicators(all);
  std::cout << all.size() << " conflicts (" << naive << " naive, "
            << (all.size() - naive) << " chase-only)\n"
            << "atoms in conflicts: " << ind.atoms_in_conflicts << " ("
            << FormatDouble(100.0 *
                                static_cast<double>(ind.atoms_in_conflicts) /
                                static_cast<double>(
                                    std::max<size_t>(1, kb.facts().size())),
                            1)
            << "% inconsistency ratio)\n"
            << "avg scope: " << FormatDouble(ind.avg_scope, 2)
            << "   avg atoms per overlap: "
            << FormatDouble(ind.avg_atoms_per_overlap, 2) << "\n";

  // Per-CDD violation counts.
  std::map<size_t, size_t> per_cdd;
  for (const Conflict& conflict : all) ++per_cdd[conflict.cdd_index];
  for (const auto& [cdd, count] : per_cdd) {
    std::cout << "  " << count << "x  "
              << kb.cdds()[cdd].ToString(kb.symbols()) << "\n";
  }

  if (explain) {
    std::cout << "\n== conflict explanations ==\n";
    for (const Conflict& conflict : all) {
      std::cout << ExplainConflict(conflict, kb.cdds(), kb.facts(),
                                   kb.symbols(), &chased);
    }
  }
  if (dump_dot) {
    std::cout << "\n== conflict hypergraph (GraphViz) ==\n"
              << ConflictHypergraphToDot(all, kb.facts(), kb.symbols());
  }

  // Hypergraph hot spots: atoms in the most conflicts.
  std::map<AtomId, size_t> degree;
  for (const Conflict& conflict : all) {
    for (AtomId id : conflict.support) ++degree[id];
  }
  std::vector<std::pair<size_t, AtomId>> hot;
  for (const auto& [id, d] : degree) hot.emplace_back(d, id);
  std::sort(hot.rbegin(), hot.rend());
  std::cout << "hot spots (top 5 atoms by conflict degree):\n";
  for (size_t i = 0; i < hot.size() && i < 5; ++i) {
    std::cout << "  deg " << hot[i].first << "  "
              << kb.facts().atom(hot[i].second).ToString(kb.symbols())
              << "\n";
  }

  if (!all.empty()) {
    std::cout << "\n== repair estimate (simulated user) ==\n";
    for (Strategy strategy :
         {Strategy::kRandom, Strategy::kOptiJoin, Strategy::kOptiProp,
          Strategy::kOptiMcd}) {
      RandomUser user(1);
      InquiryOptions options;
      options.strategy = strategy;
      options.seed = 1;
      InquiryEngine engine(&kb, options);
      StatusOr<InquiryResult> result = engine.Run(user);
      if (result.ok()) {
        std::cout << "  " << StrategyName(strategy) << ": "
                  << result->num_questions() << " questions, mean delay "
                  << FormatDouble(result->MeanDelaySeconds() * 1e3, 2)
                  << " ms\n";
      } else {
        std::cout << "  " << StrategyName(strategy) << ": "
                  << result.status() << "\n";
      }
    }
  }

  if (run_cqa) {
    std::cout << "\n== consistent query answering (one query per line; "
                 "empty line to stop) ==\n";
    std::string line;
    while (std::getline(std::cin, line) && !line.empty()) {
      StatusOr<ConjunctiveQuery> query = ParseDlgpQuery(line, kb);
      if (!query.ok()) {
        std::cout << "  parse error: " << query.status() << "\n";
        continue;
      }
      StatusOr<CqaResult> cqa = CqaAnswers(*query, kb);
      if (!cqa.ok()) {
        std::cout << "  evaluation error: " << cqa.status() << "\n";
        continue;
      }
      std::cout << "  over " << cqa->num_repairs
                << " minimal null-valued repair(s):\n";
      auto print_tuples = [&](const char* label,
                              const std::vector<AnswerTuple>& tuples) {
        std::cout << "  " << label << " (" << tuples.size() << "):\n";
        for (const AnswerTuple& tuple : tuples) {
          std::cout << "    (";
          for (size_t i = 0; i < tuple.size(); ++i) {
            if (i > 0) std::cout << ", ";
            std::cout << kb.symbols().term_name(tuple[i]);
          }
          std::cout << ")\n";
        }
      };
      print_tuples("consistent answers", cqa->consistent_answers);
      print_tuples("possible answers", cqa->possible_answers);
    }
  }

  if (run_queries) {
    std::cout << "\n== queries (one per line; empty line to stop) ==\n";
    std::string line;
    while (std::getline(std::cin, line) && !line.empty()) {
      StatusOr<ConjunctiveQuery> query = ParseDlgpQuery(line, kb);
      if (!query.ok()) {
        std::cout << "  parse error: " << query.status() << "\n";
        continue;
      }
      StatusOr<QueryAnswers> answers = AnswerQuery(*query, kb);
      if (!answers.ok()) {
        std::cout << "  evaluation error: " << answers.status() << "\n";
        continue;
      }
      if (query->answer_variables.empty()) {
        std::cout << "  " << (answers->boolean_result ? "true" : "false")
                  << "\n";
        continue;
      }
      std::cout << "  " << answers->certain.size()
                << " certain answer(s):\n";
      for (const AnswerTuple& tuple : answers->certain) {
        std::cout << "    (";
        for (size_t i = 0; i < tuple.size(); ++i) {
          if (i > 0) std::cout << ", ";
          std::cout << kb.symbols().term_name(tuple[i]);
        }
        std::cout << ")\n";
      }
    }
  }
  return 0;
}
