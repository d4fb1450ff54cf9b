// Quickstart: the paper's running example (Figure 1) end to end.
//
// Builds the hospital-prescriptions KB, shows that it is inconsistent,
// enumerates its conflicts, and repairs it twice: once with an oracle
// that has the repair of Example 4.9 in mind (the inquiry provably
// reconstructs exactly that repair), and once with a random simulated
// user.

#include <iostream>

#include "parser/dlgp_parser.h"
#include "repair/consistency.h"
#include "repair/delta_conflicts.h"
#include "repair/inquiry.h"
#include "repair/user.h"

namespace {

constexpr const char* kHospitalKb = R"(
% Figure 1 (b): facts
prescribed(aspirin, john).
hasAllergy(john, aspirin).
hasAllergy(mike, penicillin).
hasPain(john, migraine).
isPainKillerFor(nsaids, migraine).
incompatible(aspirin, nsaids).

% TGD: a painkiller for a pain someone has gets prescribed to them
prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).

% CDDs
! :- prescribed(X, Y), hasAllergy(Y, X).
! :- prescribed(X, Z), prescribed(Y, Z), incompatible(X, Y).
)";

}  // namespace

int main() {
  using namespace kbrepair;

  StatusOr<KnowledgeBase> parsed = ParseDlgp(kHospitalKb);
  if (!parsed.ok()) {
    std::cerr << "parse error: " << parsed.status() << "\n";
    return 1;
  }
  KnowledgeBase kb = std::move(parsed).value();
  if (Status status = kb.Validate(); !status.ok()) {
    std::cerr << "invalid KB: " << status << "\n";
    return 1;
  }

  std::cout << "=== The knowledge base (Figure 1b) ===\n"
            << PrintDlgp(kb) << "\n";

  StatusOr<bool> consistent = IsConsistent(kb);
  std::cout << "Consistent? " << (consistent.value() ? "yes" : "no")
            << "\n\n";

  // Enumerate the conflicts (Example 2.4 finds exactly two).
  DeltaConflictEngine census(&kb.symbols(), &kb.tgds(), &kb.cdds());
  if (Status status = census.Initialize(kb.facts()); !status.ok()) {
    std::cerr << "conflict enumeration failed: " << status << "\n";
    return 1;
  }
  std::cout << "=== Conflicts (Example 2.4) ===\n";
  for (const Conflict& conflict : census.CanonicalConflicts()) {
    std::cout << "violated CDD: "
              << kb.cdds()[conflict.cdd_index].ToString(kb.symbols())
              << "\n  supported by original facts:";
    for (AtomId id : conflict.support) {
      std::cout << " " << kb.facts().atom(id).ToString(kb.symbols());
    }
    std::cout << "\n";
  }

  // --- Inquiry with an oracle (in the spirit of Example 4.9; the
  // paper's literal oracle answer (hasPain(John,Migraine),1,Mike) is not
  // an admissible fix under Definition 3.1 because Mike is outside
  // adom(hasPain, 1)). Our oracle has this u-repair in mind:
  //   hasAllergy(john, aspirin)   becomes hasAllergy(mike, aspirin)
  //     (mike ∈ adom(hasAllergy, 1) — resolves the allergy conflict)
  //   incompatible(aspirin, nsaids) becomes incompatible(<unknown>, nsaids)
  //     (a labeled null — resolves the incompatibility conflict)
  std::cout << "\n=== Inquiry with an oracle (Example 4.9 style) ===\n";
  const TermId mike = kb.symbols().InternConstant("mike");
  const TermId unknown = kb.symbols().MakeFreshNull();
  std::vector<Fix> oracle_fixes;
  for (AtomId id = 0; id < kb.facts().size(); ++id) {
    const std::string name =
        kb.facts().atom(id).ToString(kb.symbols());
    if (name == "hasAllergy(john,aspirin)") {
      oracle_fixes.push_back(Fix{id, 0, mike});
    } else if (name == "incompatible(aspirin,nsaids)") {
      oracle_fixes.push_back(Fix{id, 0, unknown});
    }
  }
  OracleUser oracle(oracle_fixes, &kb.symbols());

  InquiryOptions options;
  options.strategy = Strategy::kRandom;  // full-position questions
  options.seed = 7;
  InquiryEngine engine(&kb, options);
  StatusOr<InquiryResult> result = engine.Run(oracle);
  if (!result.ok()) {
    std::cerr << "inquiry failed: " << result.status() << "\n";
    return 1;
  }
  std::cout << "questions asked: " << result->num_questions() << "\n";
  for (const Fix& fix : result->applied_fixes) {
    // Render against the original facts: "(original atom, position,
    // new value)", the paper's fix notation.
    std::cout << "applied fix " << fix.ToString(kb.symbols(), kb.facts())
              << "\n";
  }
  std::cout << "repaired facts:\n"
            << result->facts.ToString(kb.symbols()) << "\n";

  // --- Inquiry with a random simulated user, opti-mcd strategy.
  std::cout << "=== Inquiry with a random user (opti-mcd) ===\n";
  RandomUser random_user(/*seed=*/42);
  InquiryOptions mcd_options;
  mcd_options.strategy = Strategy::kOptiMcd;
  mcd_options.seed = 42;
  InquiryEngine mcd_engine(&kb, mcd_options);
  StatusOr<InquiryResult> mcd_result = mcd_engine.Run(random_user);
  if (!mcd_result.ok()) {
    std::cerr << "inquiry failed: " << mcd_result.status() << "\n";
    return 1;
  }
  std::cout << "questions asked: " << mcd_result->num_questions() << "\n"
            << "repaired facts:\n"
            << mcd_result->facts.ToString(kb.symbols());

  // Verify the outcome is consistent.
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  std::cout << "\nrepaired KB consistent? "
            << (checker.IsConsistentOpt(mcd_result->facts).value() ? "yes"
                                                                   : "no")
            << "\n";
  return 0;
}
