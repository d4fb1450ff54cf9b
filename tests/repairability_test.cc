#include "repair/repairability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"
#include "repair/consistency.h"

namespace kbrepair {
namespace {

KnowledgeBase Parse(const std::string& text) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  EXPECT_TRUE(kb.ok()) << kb.status();
  return std::move(kb).value();
}

// Brute-force Π-repairability on tiny KBs: try every fix set over the
// value universe {active-domain values} ∪ {one fresh null per position},
// restricted to mutable positions, and test consistency. Exponential —
// only for cross-checking Algorithm 1.
bool BruteForcePiRepairable(KnowledgeBase& kb, const PositionSet& pi) {
  std::vector<Position> mutable_positions;
  for (const Position& p : AllPositions(kb.facts())) {
    if (pi.count(p) == 0) mutable_positions.push_back(p);
  }
  // Value universe per position: every constant in F plus a fresh null.
  std::vector<std::vector<TermId>> choices;
  for (const Position& p : mutable_positions) {
    std::vector<TermId> values;
    const Atom& atom = kb.facts().atom(p.atom);
    // Keep current value as a choice (no fix on this position).
    values.push_back(atom.args[static_cast<size_t>(p.arg)]);
    for (TermId v : kb.facts().ActiveDomain(atom.predicate, p.arg)) {
      if (v != values[0]) values.push_back(v);
    }
    values.push_back(kb.symbols().MakeFreshNull());
    choices.push_back(std::move(values));
  }
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  // Enumerate the cross product (sizes stay tiny in these tests).
  std::vector<size_t> index(choices.size(), 0);
  while (true) {
    FactBase candidate = kb.facts();
    for (size_t i = 0; i < mutable_positions.size(); ++i) {
      candidate.SetArg(mutable_positions[i].atom, mutable_positions[i].arg,
                       choices[i][index[i]]);
    }
    if (checker.IsConsistentOpt(candidate).value()) return true;
    size_t carry = 0;
    while (carry < index.size()) {
      if (++index[carry] < choices[carry].size()) break;
      index[carry] = 0;
      ++carry;
    }
    if (carry == index.size()) return false;
  }
}

TEST(RepairabilityTest, EmptyPiIsAlwaysRepairableWithoutTgds) {
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(checker.IsPiRepairable(kb.facts(), {}).value());
}

TEST(RepairabilityTest, PaperExample37) {
  // F = {p(a,b), q(b,d)}, Σc = {p(X,Y), q(Y,Z) -> ⊥}.
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  // Π = ∅: repairable.
  EXPECT_TRUE(checker.IsPiRepairable(kb.facts(), {}).value());
  // Π = {(p(a,b),2), (q(b,d),1)}: freezing the joined values makes the
  // violation permanent.
  const PositionSet frozen = {Position{0, 1}, Position{1, 0}};
  EXPECT_FALSE(checker.IsPiRepairable(kb.facts(), frozen).value());
  // Freezing only one side stays repairable.
  EXPECT_TRUE(
      checker.IsPiRepairable(kb.facts(), {Position{0, 1}}).value());
}

TEST(RepairabilityTest, FullPiReducesToConsistencyCheck) {
  KnowledgeBase inconsistent = Parse(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  PositionSet all_positions;
  for (const Position& p : AllPositions(inconsistent.facts())) {
    all_positions.insert(p);
  }
  RepairabilityChecker checker(&inconsistent.symbols(),
                               &inconsistent.tgds(), &inconsistent.cdds());
  EXPECT_FALSE(
      checker.IsPiRepairable(inconsistent.facts(), all_positions).value());

  KnowledgeBase consistent = Parse(R"(
    p(a, b). q(c, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  PositionSet all2;
  for (const Position& p : AllPositions(consistent.facts())) {
    all2.insert(p);
  }
  RepairabilityChecker checker2(&consistent.symbols(), &consistent.tgds(),
                                &consistent.cdds());
  EXPECT_TRUE(checker2.IsPiRepairable(consistent.facts(), all2).value());
}

TEST(RepairabilityTest, TgdAwareRepairability) {
  // The violation is only reachable through the chase; freezing the
  // chain origin's join positions plus the partner atom makes it
  // unrepairable.
  KnowledgeBase kb = Parse(R"(
    c0(a, b).
    other(a, b).
    c1(X, Y) :- c0(X, Y).
    ! :- c1(X, Y), other(X, Y).
  )");
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(checker.IsPiRepairable(kb.facts(), {}).value());
  const PositionSet frozen = {Position{0, 0}, Position{0, 1},
                              Position{1, 0}, Position{1, 1}};
  EXPECT_FALSE(checker.IsPiRepairable(kb.facts(), frozen).value());
}

TEST(RepairabilityTest, AgreesWithBruteForceOnSmallKbs) {
  const char* kTexts[] = {
      // join chain
      "p(a, b). q(b, d). ! :- p(X, Y), q(Y, Z).",
      // self-join within one atom
      "p(a, a). ! :- p(X, X).",
      // constant-anchored CDD
      "s(o1, shipped). s(o1, cancelled). "
      "! :- s(X, shipped), s(X, cancelled).",
      // two constraints sharing an atom
      "p(a, b). q(b, c). r(b, d). ! :- p(X, Y), q(Y, Z). "
      "! :- p(X, Y), r(Y, Z).",
  };
  for (const char* text : kTexts) {
    KnowledgeBase kb = Parse(text);
    RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
    // Try several Π sets: empty, each single position, one pair.
    std::vector<PositionSet> pis;
    pis.push_back({});
    const std::vector<Position> positions = AllPositions(kb.facts());
    for (const Position& p : positions) pis.push_back({p});
    if (positions.size() >= 2) {
      pis.push_back({positions[0], positions[1]});
      pis.push_back({positions[0], positions.back()});
    }
    for (const PositionSet& pi : pis) {
      const bool fast = checker.IsPiRepairable(kb.facts(), pi).value();
      const bool brute = BruteForcePiRepairable(kb, pi);
      EXPECT_EQ(fast, brute) << text;
    }
  }
}

// Π-REPOPT probes the checker's maintained Π-skeleton, so every Scope
// test first builds that skeleton over the (facts, Π) it scopes.

TEST(RepairabilityScopeTest, FreshNullFastPath) {
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  ASSERT_TRUE(checker.EnsureSkeleton(kb.facts(), {}).ok());
  RepairabilityChecker::Scope scope(&checker, kb.facts(), {});
  EXPECT_TRUE(scope.BaseRepairable());
  const TermId fresh = kb.symbols().MakeFreshNull();
  EXPECT_TRUE(scope.FixKeepsRepairable(Fix{0, 1, fresh}).value());
  EXPECT_EQ(scope.num_fast_paths(), 1u);
  EXPECT_EQ(scope.num_full_checks(), 0u);
}

TEST(RepairabilityScopeTest, CollidingValueTriggersFullCheck) {
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(c, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  const TermId b = kb.symbols().FindTerm(TermKind::kConstant, "b");
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  // Freeze p's second position (value b) and q's first (value c).
  const PositionSet pi = {Position{0, 1}, Position{1, 0}};
  ASSERT_TRUE(checker.EnsureSkeleton(kb.facts(), pi).ok());
  RepairabilityChecker::Scope scope(&checker, kb.facts(), pi);
  ASSERT_TRUE(scope.BaseRepairable());
  // Rewriting q's lone position to b collides with a Π value: full
  // check runs, and the result is still repairable (q(c, b) triggers
  // nothing since the join needs q's FIRST position to equal b).
  EXPECT_TRUE(scope.FixKeepsRepairable(Fix{1, 1, b}).value());
  EXPECT_EQ(scope.num_full_checks(), 1u);
  // Rewriting q's first position to b completes the frozen join: the
  // violation becomes permanent, so the fix must be filtered.
  EXPECT_FALSE(scope.FixKeepsRepairable(Fix{1, 0, b}).value());
  // Each probe rewrote its position back: the skeleton is consistent
  // again.
  EXPECT_TRUE(checker.skeleton()->empty());
}

TEST(RepairabilityScopeTest, InconsistentBaseShortCircuits) {
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  // Freeze the joined pair: not Π-repairable.
  const PositionSet pi = {Position{0, 1}, Position{1, 0}};
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  ASSERT_TRUE(checker.EnsureSkeleton(kb.facts(), pi).ok());
  RepairabilityChecker::Scope scope(&checker, kb.facts(), pi);
  EXPECT_FALSE(scope.BaseRepairable());
  const TermId fresh = kb.symbols().MakeFreshNull();
  EXPECT_FALSE(scope.FixKeepsRepairable(Fix{0, 0, fresh}).value());
  // Short-circuit: not even a fast path is recorded as success.
  EXPECT_EQ(scope.num_full_checks(), 0u);
}

TEST(RepairabilityScopeTest, RuleConstantCollisionChecksFully) {
  // The CDD mentions the constant `shipped`; a candidate fix to that
  // value cannot take the isomorphism fast path.
  KnowledgeBase kb = Parse(R"(
    s(o1, shipped). s(o1, pending).
    ! :- s(X, shipped), s(X, cancelled).
  )");
  const TermId shipped =
      kb.symbols().FindTerm(TermKind::kConstant, "shipped");
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  ASSERT_TRUE(checker.EnsureSkeleton(kb.facts(), {}).ok());
  RepairabilityChecker::Scope scope(&checker, kb.facts(), {});
  ASSERT_TRUE(scope.BaseRepairable());
  EXPECT_TRUE(scope.FixKeepsRepairable(Fix{1, 1, shipped}).value());
  EXPECT_EQ(scope.num_full_checks(), 1u);
}

// (CDD index, original support) of every conflict, sorted.
std::vector<std::pair<size_t, std::vector<AtomId>>> CensusKey(
    const DeltaConflictEngine& engine) {
  std::vector<std::pair<size_t, std::vector<AtomId>>> key;
  for (const Conflict& c : engine.CanonicalConflicts()) {
    key.emplace_back(c.cdd_index, c.support);
  }
  std::sort(key.begin(), key.end());
  return key;
}

// For each Π = {pin}, runs every (target, value) probe on one Scope in a
// row and checks each verdict against applying the fix and calling
// IsPiRepairable directly. Afterwards the maintained skeleton must hold
// the same original atoms and census (by CDD index and support) as a
// skeleton built cold over the same (facts, Π): a revert that leaves
// residue fails here.
void ExpectScopeAgreesWithDirectCheck(KnowledgeBase& kb,
                                      const std::vector<Position>& pins,
                                      const std::vector<TermId>& values) {
  const std::vector<Position> positions = AllPositions(kb.facts());
  size_t full_checks = 0;
  for (const Position& pin : pins) {
    const PositionSet pi = {pin};
    RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
    ASSERT_TRUE(checker.EnsureSkeleton(kb.facts(), pi).ok());
    RepairabilityChecker::Scope scope(&checker, kb.facts(), pi);
    std::vector<TermId> pin_values = values;
    pin_values.push_back(
        kb.facts().atom(pin.atom).args[static_cast<size_t>(pin.arg)]);
    for (const Position& target : positions) {
      if (pi.count(target) > 0) continue;
      for (const TermId value : pin_values) {
        const Fix fix{target.atom, target.arg, value};
        const bool scoped = scope.FixKeepsRepairable(fix).value();
        FactBase applied = kb.facts();
        ApplyFix(applied, fix);
        PositionSet pi_prime = pi;
        pi_prime.insert(target);
        const bool direct =
            checker.IsPiRepairable(applied, pi_prime).value();
        ASSERT_EQ(scoped, direct)
            << "pin (" << pin.atom << "," << pin.arg << ") target ("
            << target.atom << "," << target.arg << ") value "
            << kb.symbols().term_name(value);
      }
    }
    full_checks += scope.num_full_checks();

    RepairabilityChecker cold(&kb.symbols(), &kb.tgds(), &kb.cdds());
    ASSERT_TRUE(cold.EnsureSkeleton(kb.facts(), pi).ok());
    const FactBase& probed = checker.skeleton()->chase().facts();
    const FactBase& fresh = cold.skeleton()->chase().facts();
    for (AtomId id = 0; id < kb.facts().size(); ++id) {
      ASSERT_EQ(probed.atom(id), fresh.atom(id)) << "atom " << id;
    }
    EXPECT_EQ(CensusKey(*checker.skeleton()), CensusKey(*cold.skeleton()))
        << "pin (" << pin.atom << "," << pin.arg << ")";
  }
  EXPECT_GT(full_checks, 0u);
}

TEST(RepairabilityScopeTest, ScopeAgreesWithDirectPiRepCheck) {
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(b, d). r(d, a).
    ! :- p(X, Y), q(Y, Z), r(Z, W).
  )");
  const std::vector<TermId> values = {
      kb.symbols().FindTerm(TermKind::kConstant, "a"),
      kb.symbols().FindTerm(TermKind::kConstant, "b"),
      kb.symbols().FindTerm(TermKind::kConstant, "d"),
      kb.symbols().MakeFreshNull()};
  ExpectScopeAgreesWithDirectCheck(kb, AllPositions(kb.facts()), values);
  if (HasFatalFailure()) return;

  // Full and existential (noise) TGDs: every probe re-saturates the
  // maintained skeleton, minting nulls, and retracts again.
  SyntheticKbOptions options;
  options.seed = 3;
  options.num_facts = 24;
  options.inconsistency_ratio = 0.3;
  options.num_cdds = 3;
  options.min_arity = 2;
  options.max_arity = 3;
  options.num_tgds = 4;
  options.conflict_depth = 2;
  options.routed_violation_share = 0.5;
  options.num_noise_tgds = 3;
  options.noise_tgd_fire_share = 1.0;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  ASSERT_TRUE(generated.ok()) << generated.status();
  KnowledgeBase& tgd_kb = generated->kb;
  const std::vector<Position> positions = AllPositions(tgd_kb.facts());
  std::vector<Position> pins;
  for (size_t i = 0; i < positions.size(); i += 7) pins.push_back(positions[i]);
  ExpectScopeAgreesWithDirectCheck(
      tgd_kb, pins,
      {tgd_kb.facts().atom(0).args[0], tgd_kb.symbols().MakeFreshNull()});
}

}  // namespace
}  // namespace kbrepair
