#include "chase/incremental_chase.h"

#include <gtest/gtest.h>

#include "kb/homomorphism.h"
#include "parser/dlgp_parser.h"

namespace kbrepair {
namespace {

// Most chase tests are easiest to read through the DLGP syntax.
KnowledgeBase Parse(const std::string& text) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  EXPECT_TRUE(kb.ok()) << kb.status();
  return std::move(kb).value();
}

// Atoms the chase derived beyond the original facts.
size_t NumDerived(const IncrementalChase& chase) {
  return chase.facts().size() - chase.num_original();
}

TEST(ChaseTest, PaperExample21DerivesPrescription) {
  KnowledgeBase kb = Parse(R"(
    hasPain(john, migraine).
    isPainKillerFor(nsaids, migraine).
    prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  EXPECT_EQ(chased.num_original(), 2u);
  EXPECT_EQ(NumDerived(chased), 1u);
  const Atom& derived = chased.facts().atom(2);
  EXPECT_EQ(derived.ToString(kb.symbols()), "prescribed(nsaids,john)");
}

TEST(ChaseTest, NoTgdsMeansNoDerivation) {
  KnowledgeBase kb = Parse("p(a, b). q(b, c).");
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  EXPECT_EQ(NumDerived(chased), 0u);
}

TEST(ChaseTest, ExistentialsBecomeFreshNulls) {
  KnowledgeBase kb = Parse(R"(
    person(john, x).
    hasParent(X, Z) :- person(X, Y).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  ASSERT_EQ(NumDerived(chased), 1u);
  const Atom& derived = chased.facts().atom(1);
  EXPECT_TRUE(kb.symbols().IsNull(derived.args[1]));
}

TEST(ChaseTest, RestrictedChaseDoesNotRefireSatisfiedHeads) {
  // The head person(X,Y) -> hasParent(X,Z) is satisfied once derived;
  // re-running on the derived atom must not loop (weakly acyclic anyway)
  // and a second identical body match must not duplicate.
  KnowledgeBase kb = Parse(R"(
    person(john, a).
    person(john, b).
    hasParent(X, Z) :- person(X, Y).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  // One hasParent(john, _) suffices for both person facts.
  EXPECT_EQ(NumDerived(chased), 1u);
}

TEST(ChaseTest, GroundDuplicateHeadsAreNotAdded) {
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    q(a, b).
    q(X, Y) :- p(X, Y).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  EXPECT_EQ(NumDerived(chased), 0u);
}

TEST(ChaseTest, MultiStepDerivationWithProvenance) {
  KnowledgeBase kb = Parse(R"(
    p0(a, b).
    p1(X, Y) :- p0(X, Y).
    p2(X, Y) :- p1(X, Y).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  ASSERT_EQ(NumDerived(chased), 2u);

  // p2 atom derives from p1 which derives from p0 (atom 0).
  const AtomId p2_atom = 2;
  EXPECT_FALSE(chased.IsOriginal(p2_atom));
  const std::vector<AtomId> support = chased.OriginalSupport({p2_atom});
  EXPECT_EQ(support, std::vector<AtomId>{0});
}

TEST(ChaseTest, MultiAtomBodyProvenanceUnionsParents) {
  KnowledgeBase kb = Parse(R"(
    hasPain(john, migraine).
    isPainKillerFor(nsaids, migraine).
    prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  const std::vector<AtomId> support = chased.OriginalSupport({AtomId{2}});
  EXPECT_EQ(support, (std::vector<AtomId>{0, 1}));
}

TEST(ChaseTest, OriginalSupportOfOriginalIsItself) {
  KnowledgeBase kb = Parse("p(a, b).");
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  EXPECT_EQ(chased.OriginalSupport({AtomId{0}}), std::vector<AtomId>{0});
}

TEST(ChaseTest, ViolationDetectedAndChaseStops) {
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    q(b, a).
    r(X, Y) :- p(X, Y).
    ! :- p(X, Y), q(Y, X).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds(), {}, &kb.cdds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  ASSERT_TRUE(chased.violation().has_value());
  EXPECT_EQ(chased.violation()->cdd_index, 0u);
  EXPECT_EQ(chased.violation()->matched.size(), 2u);
}

TEST(ChaseTest, ViolationOnlyAfterChaseStep) {
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    q(a, b).
    r(X, Y) :- p(X, Y).
    ! :- r(X, Y), q(X, Y).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds(), {}, &kb.cdds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  ASSERT_TRUE(chased.violation().has_value());
  // The violation uses the derived r-atom; its support is the p-atom.
  const std::vector<AtomId> support =
      chased.OriginalSupport(chased.violation()->matched);
  EXPECT_EQ(support, (std::vector<AtomId>{0, 1}));
}

TEST(ChaseTest, NoViolationWhenConsistent) {
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    q(c, d).
    ! :- p(X, Y), q(Y, X).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds(), {}, &kb.cdds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  EXPECT_FALSE(chased.violation().has_value());
}

TEST(ChaseTest, MaxAtomsCapReturnsInternal) {
  KnowledgeBase kb = Parse(R"(
    p0(a, b).
    p1(X, Y) :- p0(X, Y).
    p2(X, Y) :- p1(X, Y).
    p3(X, Y) :- p2(X, Y).
  )");
  ChaseOptions options;
  options.max_atoms = 2;  // original 1 + cap after first derivation
  IncrementalChase chased(&kb.symbols(), &kb.tgds(), options);
  const Status status = chased.Initialize(kb.facts());
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(ChaseTest, MultiHeadTgdAddsAllHeadAtoms) {
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    q(X, Z), r(Z, Y) :- p(X, Y).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  EXPECT_EQ(NumDerived(chased), 2u);
  // The shared existential Z is the same null in both head atoms.
  const Atom& q_atom = chased.facts().atom(1);
  const Atom& r_atom = chased.facts().atom(2);
  EXPECT_EQ(q_atom.args[1], r_atom.args[0]);
  EXPECT_TRUE(kb.symbols().IsNull(q_atom.args[1]));
}

TEST(ChaseTest, DerivedAtomsTriggerFurtherRulesAndConstraints) {
  // Depth-3 chain ending in a violation.
  KnowledgeBase kb = Parse(R"(
    c0(a, b).
    other(a, b).
    c1(X, Y) :- c0(X, Y).
    c2(X, Y) :- c1(X, Y).
    c3(X, Y) :- c2(X, Y).
    ! :- c3(X, Y), other(X, Y).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds(), {}, &kb.cdds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  ASSERT_TRUE(chased.violation().has_value());
  const std::vector<AtomId> support =
      chased.OriginalSupport(chased.violation()->matched);
  EXPECT_EQ(support, (std::vector<AtomId>{0, 1}));
}


TEST(ChaseTest, TombstonedInputAtomsDoNotAnchorTriggers) {
  // A forked working base may carry tombstones. A dead atom must not
  // seed the chase frontier: it anchors no triggers and derives nothing.
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    p(c, d).
    q(X, Y) :- p(X, Y).
  )");
  FactBase facts = kb.facts();
  facts.Remove(0);  // tombstone p(a,b)
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(facts).ok());
  ASSERT_EQ(NumDerived(chased), 1u);  // only q(c,d)
  EXPECT_EQ(chased.facts().atom(2).ToString(kb.symbols()), "q(c,d)");
}

TEST(ChaseTest, TombstonedInputAtomsDoNotWitnessViolations) {
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    q(b, a).
    ! :- p(X, Y), q(Y, X).
  )");
  FactBase facts = kb.facts();
  facts.Remove(1);  // tombstone q(b,a): the only violation needs it
  IncrementalChase chased(&kb.symbols(), &kb.tgds(), {}, &kb.cdds());
  ASSERT_TRUE(chased.Initialize(facts).ok());
  EXPECT_FALSE(chased.violation().has_value());
}

TEST(ChaseTest, ChaseStoppedAtViolationRefusesFixes) {
  // A CDD-checking chase that is consistent maintains its base like any
  // other; once a fix makes it stop at a violation, it is no longer a
  // saturated base and refuses further fixes.
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    q(c, a).
    r(X, Y) :- p(X, Y).
    ! :- r(X, Y), q(Y, X).
  )");
  IncrementalChase chase(&kb.symbols(), &kb.tgds(), {}, &kb.cdds());
  ASSERT_TRUE(chase.Initialize(kb.facts()).ok());
  EXPECT_FALSE(chase.violation().has_value());
  const TermId b = kb.symbols().InternConstant("b");
  ASSERT_TRUE(chase.ApplyFix(1, 0, b).ok());  // q(b, a)
  ASSERT_TRUE(chase.violation().has_value());
  EXPECT_EQ(chase.OriginalSupport(chase.violation()->matched),
            (std::vector<AtomId>{0, 1}));
  StatusOr<IncrementalChase::Delta> refused =
      chase.ApplyFix(1, 0, kb.symbols().InternConstant("c"));
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ChaseTest, ConstantsInHeadsAreInstantiated) {
  KnowledgeBase kb = Parse(R"(
    emp(alice).
    assigned(X, hq) :- emp(X).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  ASSERT_EQ(NumDerived(chased), 1u);
  EXPECT_EQ(chased.facts().atom(1).ToString(kb.symbols()),
            "assigned(alice,hq)");
}

TEST(ChaseTest, DiamondProvenanceUnionsAllPaths) {
  // a -> b, a -> c, (b, c) -> d: d's support is just {a}.
  KnowledgeBase kb = Parse(R"(
    a(x, y).
    b(X, Y) :- a(X, Y).
    c(X, Y) :- a(X, Y).
    d(X, Y) :- b(X, Y), c(X, Y).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  ASSERT_EQ(NumDerived(chased), 3u);
  const AtomId d_atom = 3;
  EXPECT_EQ(chased.facts().atom(d_atom).predicate,
            kb.symbols().FindPredicate("d"));
  EXPECT_EQ(chased.OriginalSupport({d_atom}), std::vector<AtomId>{0});
}

TEST(ChaseTest, RepeatedPredicateInBodySelfJoins) {
  KnowledgeBase kb = Parse(R"(
    edge(a, b). edge(b, c). edge(c, d).
    path(X, Z) :- edge(X, Y), edge(Y, Z).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  // path(a,c) and path(b,d).
  EXPECT_EQ(NumDerived(chased), 2u);
}

TEST(ChaseTest, DerivedAtomsFeedOtherRulesTransitively) {
  // Rules chained through derived predicates, orderings interleaved.
  KnowledgeBase kb2 = Parse(R"(
    base(a, b). base(b, c).
    mid(X, Y) :- base(X, Y).
    top(X, Z) :- mid(X, Y), base(Y, Z).
  )");
  IncrementalChase chased(&kb2.symbols(), &kb2.tgds());
  ASSERT_TRUE(chased.Initialize(kb2.facts()).ok());
  // mid(a,b), mid(b,c), top(a,c) — mid(b,c) joins base(b,c)? top uses
  // mid(X,Y), base(Y,Z): (a,b)x(b,c) -> top(a,c). mid(b,c) finds no
  // base(c,_).
  bool found_top = false;
  for (AtomId id = 0; id < chased.facts().size(); ++id) {
    found_top = found_top || chased.facts().atom(id).ToString(
                                 kb2.symbols()) == "top(a,c)";
  }
  EXPECT_TRUE(found_top);
}

}  // namespace
}  // namespace kbrepair
