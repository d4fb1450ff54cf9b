#include "repair/repairability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"
#include "repair/consistency.h"
#include "repair/inquiry.h"
#include "util/rng.h"

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
  const PositionSet pi;
  ASSERT_TRUE(checker.EnsureSkeleton(kb.facts(), pi).ok());
  RepairabilityChecker::Scope scope(&checker, kb.facts(), pi);
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
  const PositionSet pi;
  ASSERT_TRUE(checker.EnsureSkeleton(kb.facts(), pi).ok());
  RepairabilityChecker::Scope scope(&checker, kb.facts(), pi);
  ASSERT_TRUE(scope.BaseRepairable());
  EXPECT_TRUE(scope.FixKeepsRepairable(Fix{1, 1, shipped}).value());
  EXPECT_EQ(scope.num_full_checks(), 1u);
}

// The CDDs a skeleton's census violates, ascending. Homomorphically
// equivalent skeletons violate the same CDDs (each body is a Boolean
// CQ), however many conflicts each holds.
std::vector<size_t> ViolatedCdds(const DeltaConflictEngine& engine) {
  std::vector<size_t> cdds;
  for (const Conflict& c : engine.CanonicalConflicts()) {
    cdds.push_back(c.cdd_index);
  }
  cdds.erase(std::unique(cdds.begin(), cdds.end()), cdds.end());
  return cdds;
}

bool IsScratchNull(const SymbolTable& symbols, TermId term) {
  return symbols.IsNull(term) && symbols.term_name(term).rfind("_S", 0) == 0;
}

// An original atom of a skeleton with each scratch null blanked to
// kInvalidTerm: its predicate and the values it carries at Π positions.
using AtomShape = std::pair<PredicateId, std::vector<TermId>>;

// The original atoms of a skeleton: the shapes of those carrying a
// value, sorted, and the predicates of the all-null ones — the
// representatives, plus any atom a probe added and reverted, which
// repeats one. Skeletons of the same (facts, Π) agree on both, however
// many atoms they have materialized. Every scratch null stands for one
// position, so `shared_nulls` — the ones occurring twice — is empty.
struct SkeletonShape {
  std::vector<AtomShape> valued;
  std::set<PredicateId> all_null;
  std::vector<std::string> shared_nulls;
};

SkeletonShape ShapeOf(const SymbolTable& symbols,
                      const DeltaConflictEngine& skeleton) {
  SkeletonShape shape;
  std::map<TermId, size_t> null_uses;
  const IncrementalChase& chase = skeleton.chase();
  for (AtomId id = 0; id < chase.facts().size(); ++id) {
    if (!chase.IsOriginal(id)) continue;
    AtomShape atom{chase.facts().atom(id).predicate,
                   chase.facts().atom(id).args};
    bool valued = false;
    for (TermId& term : atom.second) {
      if (IsScratchNull(symbols, term)) {
        ++null_uses[term];
        term = kInvalidTerm;
      } else {
        valued = true;
      }
    }
    if (valued) {
      shape.valued.push_back(std::move(atom));
    } else {
      shape.all_null.insert(atom.first);
    }
  }
  std::sort(shape.valued.begin(), shape.valued.end());
  for (const auto& [null, uses] : null_uses) {
    if (uses > 1) shape.shared_nulls.push_back(symbols.term_name(null));
  }
  return shape;
}

// For each Π = {pin}, runs every (target, value) probe on one Scope in a
// row and checks each verdict against applying the fix and calling
// IsPiRepairable directly. After every probe the maintained skeleton —
// which by then also holds each fully probed atom — must have the same
// shape (ShapeOf: atom by atom, no scratch null shared) as a skeleton
// built cold over the same (facts, Π), and at the end violate the same
// CDDs: a revert that leaves a candidate value, or puts back the wrong
// scratch null, fails here.
void ExpectScopeAgreesWithDirectCheck(KnowledgeBase& kb,
                                      const std::vector<Position>& pins,
                                      const std::vector<TermId>& values) {
  const std::vector<Position> positions = AllPositions(kb.facts());
  size_t full_checks = 0;
  for (const Position& pin : pins) {
    const PositionSet pi = {pin};
    RepairabilityChecker cold(&kb.symbols(), &kb.tgds(), &kb.cdds());
    ASSERT_TRUE(cold.EnsureSkeleton(kb.facts(), pi).ok());
    const SkeletonShape fresh = ShapeOf(kb.symbols(), *cold.skeleton());
    ASSERT_TRUE(fresh.shared_nulls.empty());

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
        const std::string where =
            "pin (" + std::to_string(pin.atom) + "," +
            std::to_string(pin.arg) + ") target (" +
            std::to_string(target.atom) + "," + std::to_string(target.arg) +
            ") value " + kb.symbols().term_name(value);
        ASSERT_EQ(scoped, direct) << where;
        const SkeletonShape probed =
            ShapeOf(kb.symbols(), *checker.skeleton());
        ASSERT_EQ(probed.shared_nulls, std::vector<std::string>{}) << where;
        ASSERT_EQ(probed.valued, fresh.valued) << where;
        ASSERT_EQ(probed.all_null, fresh.all_null) << where;
      }
    }
    full_checks += scope.num_full_checks();
    EXPECT_EQ(ViolatedCdds(*checker.skeleton()),
              ViolatedCdds(*cold.skeleton()))
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

// --- The reduced skeleton against the definition ---------------------------
//
// Production decides Π-repairability on the reduced skeleton: the atoms
// touching Π plus one all-null representative per predicate. The tests
// below check it against Algorithm 1 as written — every position outside
// Π replaced by a null of its own — and, on the tiniest KBs, against
// Def. 3.6 itself by enumerating fix sets (BruteForcePiRepairable above).

// Algorithm 1 by the letter: the full Π-skeleton of `facts`, chased.
bool FullSkeletonRepairable(KnowledgeBase& kb, const FactBase& facts,
                            const PositionSet& pi) {
  FactBase skeleton = facts;
  for (const Position& p : AllPositions(facts)) {
    if (pi.count(p) == 0) {
      skeleton.SetArg(p.atom, p.arg, kb.symbols().MakeFreshNull());
    }
  }
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  StatusOr<bool> consistent = checker.IsConsistentOpt(skeleton);
  EXPECT_TRUE(consistent.ok()) << consistent.status();
  return consistent.ok() && *consistent;
}

// Every constant of the symbol table (facts and rules alike) plus a
// fresh null: candidate values that collide with Π values and with rule
// constants, and one that takes the fast path.
std::vector<TermId> CandidateValues(KnowledgeBase& kb) {
  std::vector<TermId> values;
  for (TermId t = 0; t < static_cast<TermId>(kb.symbols().num_terms());
       ++t) {
    if (kb.symbols().IsConstant(t)) values.push_back(t);
  }
  values.push_back(kb.symbols().MakeFreshNull());
  return values;
}

// `checker` holds the maintained skeleton of (facts, Π). Its verdict and
// a run of random Π-REPOPT probes must match the full skeleton, and
// IsPiRepairable, on (F[p:=v], Π ∪ {p}). Returns the full checks run.
size_t ExpectProbesMatchDefinition(KnowledgeBase& kb,
                                   RepairabilityChecker& checker,
                                   const FactBase& facts,
                                   const PositionSet& pi, Rng& rng,
                                   const std::string& where) {
  RepairabilityChecker::Scope scope(&checker, facts, pi);
  EXPECT_EQ(scope.BaseRepairable(), FullSkeletonRepairable(kb, facts, pi))
      << where;
  std::vector<Position> targets;
  for (const Position& p : AllPositions(facts)) {
    if (pi.count(p) == 0) targets.push_back(p);
  }
  if (targets.empty()) return 0;
  const std::vector<TermId> values = CandidateValues(kb);
  for (int probe = 0; probe < 12; ++probe) {
    const Position target = targets[rng.UniformIndex(targets.size())];
    const Fix fix{target.atom, target.arg,
                  values[rng.UniformIndex(values.size())]};
    StatusOr<bool> scoped = scope.FixKeepsRepairable(fix);
    EXPECT_TRUE(scoped.ok()) << scoped.status();
    if (!scoped.ok()) return scope.num_full_checks();
    FactBase applied = facts;
    ApplyFix(applied, fix);
    PositionSet pi_prime = pi;
    pi_prime.insert(target);
    const std::string at = where + " probe (" + std::to_string(target.atom) +
                           "," + std::to_string(target.arg) + ") := " +
                           kb.symbols().term_name(fix.value);
    EXPECT_EQ(*scoped, FullSkeletonRepairable(kb, applied, pi_prime)) << at;
    EXPECT_EQ(*scoped, checker.IsPiRepairable(applied, pi_prime).value())
        << at;
  }
  return scope.num_full_checks();
}

// Draws random Π subsets of `kb` (every other one also freezing each
// position of `frozen_predicate`, when named) and checks Begin's
// verdict, the probes, and both again after each answer of a seeded
// opti-prop dialogue, whose freezes and unfreezes the mirror checker
// replays with SyncSkeleton exactly as the engine does.
void ExpectReducedSkeletonMatchesDefinition(
    KnowledgeBase& kb, uint64_t seed, const std::string& frozen_predicate,
    size_t* full_checks) {
  const PredicateId frozen = frozen_predicate.empty()
                                 ? kInvalidPredicate
                                 : kb.symbols().FindPredicate(frozen_predicate);
  Rng rng(seed);
  const std::vector<Position> positions = AllPositions(kb.facts());
  for (int draw = 0; draw < 12; ++draw) {
    PositionSet pi;
    for (const Position& p : positions) {
      const bool pinned =
          (draw % 2 == 1 && kb.facts().atom(p.atom).predicate == frozen) ||
          rng.UniformDouble() < 0.2;
      if (pinned) pi.insert(p);
    }
    const std::string where = "draw " + std::to_string(draw) +
                              " |Pi|=" + std::to_string(pi.size());
    const bool full = FullSkeletonRepairable(kb, kb.facts(), pi);
    RepairabilityChecker reference(&kb.symbols(), &kb.tgds(), &kb.cdds());
    EXPECT_EQ(reference.IsPiRepairable(kb.facts(), pi).value(), full)
        << where;
    if (positions.size() - pi.size() <= 5) {
      EXPECT_EQ(BruteForcePiRepairable(kb, pi), full) << where;
    }

    InquiryOptions options;
    options.strategy = Strategy::kOptiProp;
    options.two_phase = true;
    options.seed = seed + static_cast<uint64_t>(draw);
    InquiryEngine engine(&kb, options);
    const Status begun = engine.Begin(pi);
    ASSERT_EQ(begun.ok(), full) << where << ": " << begun;
    if (!full) continue;

    RepairabilityChecker mirror(&kb.symbols(), &kb.tgds(), &kb.cdds());
    ASSERT_TRUE(mirror.EnsureSkeleton(engine.working_facts(), pi).ok());
    *full_checks += ExpectProbesMatchDefinition(
        kb, mirror, engine.working_facts(), pi, rng, where);
    for (int answer = 0; answer < 4; ++answer) {
      StatusOr<const Question*> question = engine.NextQuestion();
      ASSERT_TRUE(question.ok()) << question.status();
      if (*question == nullptr) break;
      const Position fixed =
          (*question)->fixes[rng.UniformIndex((*question)->fixes.size())]
              .position();
      const PositionSet before = engine.current_pi();
      size_t choice = 0;
      while ((*question)->fixes[choice].position() != fixed) ++choice;
      ASSERT_TRUE(engine.Answer(choice).ok());
      const PositionSet& after = engine.current_pi();
      std::set<Position> changed = {fixed};
      for (const Position& p : before) {
        if (after.count(p) == 0) changed.insert(p);
      }
      for (const Position& p : after) {
        if (before.count(p) == 0) changed.insert(p);
      }
      for (const Position& p : changed) {
        mirror.SyncSkeleton(engine.working_facts(), after, p);
      }
      ASSERT_NE(mirror.skeleton(), nullptr) << where;
      *full_checks += ExpectProbesMatchDefinition(
          kb, mirror, engine.working_facts(), after, rng,
          where + " answer " + std::to_string(answer));
    }
  }
}

TEST(ReducedSkeletonGroundTruth, HandWrittenKbsMatchTheFullSkeleton) {
  struct Case {
    const char* text;
    const char* frozen_predicate;  // every atom of it in Π, every other draw
  };
  const Case kCases[] = {
      // Rule and CDD constants: `cancelled` occurs only in a rule head,
      // `shipped`/`a` in CDD bodies.
      {"s(o1, shipped). s(o2, pending). t(o1, a). t(o2, b). u(a). "
       "s(X, cancelled) :- t(X, b). "
       "! :- s(X, shipped), s(X, cancelled). "
       "! :- t(X, a), u(a), s(X, pending).",
       "t"},
      // CDDs with equalities, between variables and against a constant.
      {"p(a, b). q(c, d). r(e, e). p(d, a). "
       "! :- p(X, Y), q(Z, W), Y = Z. "
       "! :- r(X, Y), X = Y, p(Y, W). "
       "! :- q(X, Y), X = c, p(Y, Z).",
       "q"},
      // A predicate with a single atom, joined by two CDDs.
      {"lone(c). p(c, d). p(e, c). q(d). "
       "! :- lone(X), p(X, Y), q(Y). "
       "! :- lone(X), p(Y, X), p(X, Z).",
       "lone"},
      // Atoms no Π position touches still reach conflicts: through a
      // rule constant (any q atom derives r(_, a)) and through a CDD
      // that joins nothing (t with any q). Only the representatives
      // carry these.
      {"q(k1). q(k2). s(a). t(b). "
       "r(X, a) :- q(X). "
       "! :- r(X, Y), s(Y). "
       "! :- t(X), q(Y).",
       "s"},
      // A full TGD chain feeding a CDD, with its head predicate in F.
      {"e(a, b). e(b, c). f(c). path(x1, x2). "
       "path(X, Y) :- e(X, Y). "
       "path(X, Z) :- path(X, Y), e(Y, Z). "
       "! :- path(X, Y), f(Y), e(X, W).",
       "e"},
  };
  size_t full_checks = 0;
  uint64_t seed = 11;
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.text);
    KnowledgeBase kb = Parse(c.text);
    ExpectReducedSkeletonMatchesDefinition(kb, seed++, c.frozen_predicate,
                                           &full_checks);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(full_checks, 0u);
}

TEST(ReducedSkeletonGroundTruth, ExistentialNoiseKbsMatchTheFullSkeleton) {
  size_t full_checks = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SyntheticKbOptions options;
    options.seed = seed;
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
    KnowledgeBase& kb = generated->kb;
    ExpectReducedSkeletonMatchesDefinition(
        kb, seed * 31,
        kb.symbols().predicate_name(kb.facts().atom(0).predicate),
        &full_checks);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(full_checks, 0u);
}

// Original atoms of a skeleton engine: the representatives plus every
// atom of F it holds.
size_t SkeletonOriginals(const DeltaConflictEngine& skeleton) {
  size_t originals = 0;
  for (AtomId id = 0; id < skeleton.chase().facts().size(); ++id) {
    originals += skeleton.chase().IsOriginal(id) ? 1 : 0;
  }
  return originals;
}

// The reduced skeleton's size follows Π and the predicates of F, not F:
// on a 2000-atom KB shaped like the session-churn benchmark's, Begin
// holds one representative per predicate and interns one scratch null
// per representative position, and each answer or probe adds at most
// one atom of F.
TEST(ReducedSkeletonSize, FollowsPredicatesAndTouchesNotTheFactBase) {
  SyntheticKbOptions kb_options;
  kb_options.seed = 5;
  kb_options.num_facts = 2000;
  kb_options.inconsistency_ratio = 0.01;
  kb_options.num_cdds = 20;
  kb_options.cdd_min_atoms = 2;
  kb_options.cdd_max_atoms = 3;
  kb_options.min_arity = 2;
  kb_options.max_arity = 4;
  kb_options.num_tgds = 60;
  kb_options.conflict_depth = 2;
  kb_options.routed_violation_share = 0.6;
  kb_options.min_multiplicity = 1;
  kb_options.max_multiplicity = 2;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(kb_options);
  ASSERT_TRUE(generated.ok()) << generated.status();
  KnowledgeBase& kb = generated->kb;
  ASSERT_EQ(kb.facts().size(), 2000u);

  std::set<PredicateId> predicates;
  for (AtomId id = 0; id < kb.facts().size(); ++id) {
    predicates.insert(kb.facts().atom(id).predicate);
  }
  size_t arity_sum = 0;
  for (const PredicateId pred : predicates) {
    arity_sum += static_cast<size_t>(kb.symbols().predicate_arity(pred));
  }
  const auto count_scratch_nulls = [&kb]() {
    size_t count = 0;
    for (TermId t = 0; t < static_cast<TermId>(kb.symbols().num_terms());
         ++t) {
      count += IsScratchNull(kb.symbols(), t) ? 1 : 0;
    }
    return count;
  };
  const size_t scratch_before = count_scratch_nulls();

  InquiryOptions options;
  options.strategy = Strategy::kOptiMcd;
  options.seed = 17;
  InquiryEngine engine(&kb, options);
  ASSERT_TRUE(engine.Begin().ok());
  const DeltaConflictEngine* skeleton = engine.repairability().skeleton();
  ASSERT_NE(skeleton, nullptr);
  // Π is empty at Begin: no atom of F touches it, so the skeleton holds
  // the representatives alone.
  const size_t representatives = SkeletonOriginals(*skeleton);
  EXPECT_EQ(representatives, predicates.size());
  EXPECT_LE(count_scratch_nulls() - scratch_before, arity_sum);

  Rng chooser(3);
  size_t answers = 0;
  for (; answers < 12; ++answers) {
    StatusOr<const Question*> question = engine.NextQuestion();
    ASSERT_TRUE(question.ok()) << question.status();
    if (*question == nullptr) break;
    ASSERT_TRUE(
        engine.Answer(chooser.UniformIndex((*question)->fixes.size())).ok());
  }
  ASSERT_GT(answers, 0u);
  ASSERT_NE(engine.repairability().skeleton(), nullptr);
  const size_t materialized =
      SkeletonOriginals(*engine.repairability().skeleton()) - representatives;
  StatusOr<InquiryResult> result = engine.Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(materialized, answers + result->repairability_full_checks);
}

}  // namespace
}  // namespace kbrepair
