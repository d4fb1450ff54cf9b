#include "repair/conflict.h"

#include <algorithm>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"
#include "repair/delta_conflicts.h"
#include "repair/fix.h"
#include "support/conflict_finder.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

KnowledgeBase Parse(const std::string& text) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  EXPECT_TRUE(kb.ok()) << kb.status();
  return std::move(kb).value();
}

// Sorts conflicts into a canonical order for comparison.
std::vector<Conflict> Canonical(std::vector<Conflict> conflicts) {
  std::sort(conflicts.begin(), conflicts.end(),
            [](const Conflict& a, const Conflict& b) {
              if (a.cdd_index != b.cdd_index) {
                return a.cdd_index < b.cdd_index;
              }
              return a.matched < b.matched;
            });
  return conflicts;
}

TEST(ConflictTest, PaperExample24TwoConflicts) {
  KnowledgeBase kb = Parse(R"(
    prescribed(aspirin, john).
    hasAllergy(john, aspirin).
    hasAllergy(mike, penicillin).
    hasPain(john, migraine).
    isPainKillerFor(nsaids, migraine).
    incompatible(aspirin, nsaids).
    prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
    ! :- prescribed(X, Y), hasAllergy(Y, X).
    ! :- prescribed(X, Z), prescribed(Y, Z), incompatible(X, Y).
  )");
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  StatusOr<std::vector<Conflict>> all = finder.AllConflicts(kb.facts());
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);

  const std::vector<Conflict> conflicts = Canonical(*all);
  // X1: the allergy conflict, supported by facts 0 and 1.
  EXPECT_EQ(conflicts[0].cdd_index, 0u);
  EXPECT_EQ(conflicts[0].support, (std::vector<AtomId>{0, 1}));
  // X2: the incompatibility conflict; support includes the originals
  // behind the derived prescription.
  EXPECT_EQ(conflicts[1].cdd_index, 1u);
  EXPECT_EQ(conflicts[1].support, (std::vector<AtomId>{0, 3, 4, 5}));
}

TEST(ConflictTest, NaiveConflictsSkipChaseOnlyViolations) {
  KnowledgeBase kb = Parse(R"(
    prescribed(aspirin, john).
    hasAllergy(john, aspirin).
    hasPain(john, migraine).
    isPainKillerFor(nsaids, migraine).
    incompatible(aspirin, nsaids).
    prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
    ! :- prescribed(X, Y), hasAllergy(Y, X).
    ! :- prescribed(X, Z), prescribed(Y, Z), incompatible(X, Y).
  )");
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  const std::vector<Conflict> naive = finder.NaiveConflicts(kb.facts());
  ASSERT_EQ(naive.size(), 1u);
  EXPECT_EQ(naive[0].cdd_index, 0u);
  // For naive conflicts matched and support coincide.
  EXPECT_EQ(naive[0].support, (std::vector<AtomId>{0, 1}));
}

TEST(ConflictTest, GridClusterCountsAllHomomorphisms) {
  // 2 p-atoms x 3 q-atoms sharing join constant j: 6 conflicts.
  KnowledgeBase kb = Parse(R"(
    p(j, a1). p(j, a2).
    q(j, b1). q(j, b2). q(j, b3).
    ! :- p(X, Y), q(X, Z).
  )");
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_EQ(finder.NaiveConflicts(kb.facts()).size(), 6u);
}

TEST(ConflictTest, OverlapIndicatorsOnDisjointConflicts) {
  KnowledgeBase kb = Parse(R"(
    p(j1, a). q(j1, b).
    p(j2, c). q(j2, d).
    ! :- p(X, Y), q(X, Z).
  )");
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  const std::vector<Conflict> conflicts = finder.NaiveConflicts(kb.facts());
  ASSERT_EQ(conflicts.size(), 2u);
  const OverlapIndicators ind = ComputeOverlapIndicators(conflicts);
  EXPECT_DOUBLE_EQ(ind.avg_scope, 0.0);
  EXPECT_DOUBLE_EQ(ind.avg_atoms_per_overlap, 0.0);
  EXPECT_EQ(ind.atoms_in_conflicts, 4u);
}

TEST(ConflictTest, OverlapIndicatorsOnSharedAtom) {
  // One p-atom shared by two conflicts (two q variants).
  KnowledgeBase kb = Parse(R"(
    p(j, a).
    q(j, b1). q(j, b2).
    ! :- p(X, Y), q(X, Z).
  )");
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  const std::vector<Conflict> conflicts = finder.NaiveConflicts(kb.facts());
  ASSERT_EQ(conflicts.size(), 2u);
  const OverlapIndicators ind = ComputeOverlapIndicators(conflicts);
  EXPECT_DOUBLE_EQ(ind.avg_scope, 1.0);           // each overlaps the other
  EXPECT_DOUBLE_EQ(ind.avg_atoms_per_overlap, 1.0);  // sharing the p-atom
  EXPECT_EQ(ind.atoms_in_conflicts, 3u);
}

TEST(ConflictTest, FiveByFiveGridHasScopeEight) {
  // The durum-wheat building block: a (5,5) grid.
  std::string text;
  for (int i = 0; i < 5; ++i) {
    text += "p(j, a" + std::to_string(i) + ").\n";
    text += "q(j, b" + std::to_string(i) + ").\n";
  }
  text += "! :- p(X, Y), q(X, Z).\n";
  KnowledgeBase grid = Parse(text);
  ConflictFinder finder(&grid.symbols(), &grid.tgds(), &grid.cdds());
  const std::vector<Conflict> conflicts =
      finder.NaiveConflicts(grid.facts());
  ASSERT_EQ(conflicts.size(), 25u);
  const OverlapIndicators ind = ComputeOverlapIndicators(conflicts);
  EXPECT_DOUBLE_EQ(ind.avg_scope, 8.0);
}

// UPDATECONFLICTS on naive conflicts: the naive index of the maintained
// DeltaConflictEngine against the ConflictFinder::NaiveConflicts
// reference, compared as (cdd, matched, support) after Initialize and
// after every fix. Every KB carries a TGD whose derived atoms surface
// chase-only conflicts, so the naive set is a strict subset of the
// engine's census.
class ConflictTrackerTest : public ::testing::Test {
 protected:
  using Key = std::tuple<size_t, std::vector<AtomId>, std::vector<AtomId>>;

  void Build(const std::string& text) {
    kb_ = Parse(text);
    finder_ = std::make_unique<ConflictFinder>(&kb_.symbols(), &kb_.tgds(),
                                               &kb_.cdds());
    engine_ = std::make_unique<DeltaConflictEngine>(
        &kb_.symbols(), &kb_.tgds(), &kb_.cdds());
    ASSERT_TRUE(engine_->Initialize(kb_.facts()).ok());
    ASSERT_GT(engine_->size(), engine_->naive_size())
        << "the KB must have chase-only conflicts";
    ExpectNaiveMatchesReference();
  }

  // Applies the fix to the working facts and notifies the engine.
  void ApplyAndNotify(AtomId atom, int arg, TermId value) {
    ApplyFix(kb_.facts(), Fix{atom, arg, value});
    ASSERT_TRUE(engine_->OnFixApplied(atom, arg, value).ok());
    ExpectNaiveMatchesReference();
  }

  // The engine's naive conflicts, in its canonical order, equal the
  // reference's sorted by (cdd, matched).
  void ExpectNaiveMatchesReference() {
    std::vector<Key> live;
    for (const Conflict* c : engine_->naive_conflicts()) {
      live.emplace_back(c->cdd_index, c->matched, c->support);
    }
    std::vector<Key> expected;
    for (const Conflict& c : finder_->NaiveConflicts(kb_.facts())) {
      expected.emplace_back(c.cdd_index, c.matched, c.support);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(live, expected);
    EXPECT_EQ(engine_->naive_size(), expected.size());
  }

  KnowledgeBase kb_;
  std::unique_ptr<ConflictFinder> finder_;
  std::unique_ptr<DeltaConflictEngine> engine_;
};

TEST_F(ConflictTrackerTest, InitializeMatchesNaiveConflicts) {
  Build(R"(
    p(j, a1). p(j, a2).
    q(j, b1).
    t(j, c1).
    q(X, Y) :- t(X, Y).
    ! :- p(X, Y), q(X, Z).
  )");
  EXPECT_EQ(engine_->naive_size(), 2u);
  EXPECT_EQ(engine_->size(), 4u);
  EXPECT_TRUE(engine_->NaiveConflictMatches(0));
  EXPECT_TRUE(engine_->NaiveConflictMatches(2));
  // The t-atom supports only the chase-surfaced conflicts.
  EXPECT_FALSE(engine_->NaiveConflictMatches(3));
}

TEST_F(ConflictTrackerTest, FixOnJoinPositionRemovesConflicts) {
  Build(R"(
    p(j, a1). p(j, a2).
    q(j, b1).
    t(j, c1).
    q(X, Y) :- t(X, Y).
    ! :- p(X, Y), q(X, Z).
  )");
  // Break the join of the q-atom: its naive conflicts go, the ones
  // through the derived q-atom stay.
  ApplyAndNotify(2, 0, kb_.symbols().MakeFreshNull());
  EXPECT_EQ(engine_->naive_size(), 0u);
  EXPECT_EQ(engine_->size(), 2u);
  EXPECT_FALSE(engine_->NaiveConflictMatches(0));
}

TEST_F(ConflictTrackerTest, FixOnLonePositionKeepsConflicts) {
  Build(R"(
    p(j, a1).
    q(j, b1).
    t(j, c1).
    q(X, Y) :- t(X, Y).
    ! :- p(X, Y), q(X, Z).
  )");
  ApplyAndNotify(0, 1, kb_.symbols().MakeFreshNull());
  // The lone position does not affect the homomorphism.
  EXPECT_EQ(engine_->naive_size(), 1u);
}

TEST_F(ConflictTrackerTest, FixCanIntroduceNewConflicts) {
  Build(R"(
    p(j, a1).
    q(k, b1).
    t(j, c1).
    q(X, Y) :- t(X, Y).
    ! :- p(X, Y), q(X, Z).
  )");
  EXPECT_EQ(engine_->naive_size(), 0u);
  // Align the q-atom's join value with the p-atom: a conflict appears.
  ApplyAndNotify(1, 0, kb_.symbols().FindTerm(TermKind::kConstant, "j"));
  EXPECT_EQ(engine_->naive_size(), 1u);
}

TEST_F(ConflictTrackerTest, AgreesWithFullRecomputeUnderRandomFixes) {
  Build(R"(
    p(j, a1). p(j, a2). p(k, a3).
    q(j, b1). q(k, b2). q(k, b3).
    r(j, k).
    t(k, c1).
    q(X, Y) :- t(X, Y).
    ! :- p(X, Y), q(X, Z).
    ! :- p(X, Y), r(X, Z), q(Z, W).
  )");
  Rng rng(2024);
  const std::vector<TermId> values = {
      kb_.symbols().FindTerm(TermKind::kConstant, "j"),
      kb_.symbols().FindTerm(TermKind::kConstant, "k"),
      kb_.symbols().FindTerm(TermKind::kConstant, "a1"),
      kb_.symbols().MakeFreshNull()};
  for (int step = 0; step < 60; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const AtomId atom =
        static_cast<AtomId>(rng.UniformIndex(kb_.facts().size()));
    const int arg = static_cast<int>(
        rng.UniformIndex(static_cast<size_t>(kb_.facts().atom(atom).arity())));
    ApplyAndNotify(atom, arg, rng.Choose(values));
  }
}

TEST_F(ConflictTrackerTest, NoSameAsDuplicatesAcrossIncrementalUpdates) {
  // Two CDDs sharing body atoms: re-evaluation anchored at a fixed atom
  // re-finds conflicts of both. No surviving conflict may be SameAs a
  // re-found one (AddConflict's debug invariant); verify it holds — and
  // the census stays duplicate-free — through a fix churn that repeatedly
  // breaks and restores the same homomorphisms.
  Build(R"(
    p(j, a1). p(j, a2).
    q(j, b1).
    r(j, c1).
    t(j, c2).
    q(X, Y) :- t(X, Y).
    ! :- p(X, Y), q(X, Z).
    ! :- p(X, Y), r(X, Z).
  )");
  const TermId j = kb_.symbols().FindTerm(TermKind::kConstant, "j");
  const TermId fresh = kb_.symbols().MakeFreshNull();
  for (int round = 0; round < 4; ++round) {
    // Break and restore the q-atom's join; the p/r conflicts survive both
    // updates untouched and must not be re-added.
    for (const TermId value : {fresh, j}) {
      ApplyAndNotify(2, 0, value);
      const std::vector<Conflict> live = engine_->CanonicalConflicts();
      for (size_t i = 0; i < live.size(); ++i) {
        for (size_t k = i + 1; k < live.size(); ++k) {
          EXPECT_FALSE(live[i].SameAs(live[k]))
              << "duplicate conflict in round " << round;
        }
      }
    }
  }
}

TEST(ConflictTest, SyntheticPlannedEqualsMeasured) {
  SyntheticKbOptions options;
  options.seed = 11;
  options.num_facts = 300;
  options.inconsistency_ratio = 0.2;
  options.num_cdds = 8;
  options.num_tgds = 6;
  options.conflict_depth = 2;
  options.routed_violation_share = 0.5;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  ASSERT_TRUE(generated.ok());
  KnowledgeBase& kb = generated->kb;
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  StatusOr<std::vector<Conflict>> all = finder.AllConflicts(kb.facts());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), generated->info.planned_conflicts);
  EXPECT_EQ(finder.NaiveConflicts(kb.facts()).size(),
            generated->info.planned_naive_conflicts);
}


TEST(ConflictTest, ExplainConflictNaive) {
  KnowledgeBase kb = Parse(R"(
    prescribed(aspirin, john).
    hasAllergy(john, aspirin).
    ! :- prescribed(X, Y), hasAllergy(Y, X).
  )");
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  const std::vector<Conflict> conflicts = finder.NaiveConflicts(kb.facts());
  ASSERT_EQ(conflicts.size(), 1u);
  const std::string explanation = ExplainConflict(
      conflicts[0], kb.cdds(), kb.facts(), kb.symbols());
  EXPECT_NE(explanation.find("violated constraint"), std::string::npos);
  EXPECT_NE(explanation.find("prescribed(aspirin,john)"),
            std::string::npos);
  EXPECT_NE(explanation.find("supported by original facts"),
            std::string::npos);
}

TEST(ConflictTest, ExplainConflictMarksDerivedAtoms) {
  KnowledgeBase kb = Parse(R"(
    c0(a, b). other(a, b).
    c1(X, Y) :- c0(X, Y).
    ! :- c1(X, Y), other(X, Y).
  )");
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  StatusOr<std::vector<Conflict>> all = finder.AllConflicts(kb.facts());
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  const std::string with_chase = ExplainConflict(
      all->front(), kb.cdds(), kb.facts(), kb.symbols(), &chased);
  EXPECT_NE(with_chase.find("derived by TGD #0"), std::string::npos);
  // Without the chase, the derived atom is labelled opaquely.
  const std::string without_chase = ExplainConflict(
      all->front(), kb.cdds(), kb.facts(), kb.symbols());
  EXPECT_NE(without_chase.find("<derived atom"), std::string::npos);
}

TEST(ConflictTest, HypergraphDotOutput) {
  KnowledgeBase kb = Parse(R"(
    p(j, a).
    q(j, b1). q(j, b2).
    ! :- p(X, Y), q(X, Z).
  )");
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  const std::vector<Conflict> conflicts = finder.NaiveConflicts(kb.facts());
  ASSERT_EQ(conflicts.size(), 2u);
  const std::string dot =
      ConflictHypergraphToDot(conflicts, kb.facts(), kb.symbols());
  EXPECT_EQ(dot.rfind("graph conflict_hypergraph {", 0), 0u);
  EXPECT_NE(dot.find("conflict0 [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("p(j,a)"), std::string::npos);
  // 2 conflicts x 2 support atoms each = 4 incidence edges.
  size_t edges = 0;
  for (size_t pos = dot.find(" -- "); pos != std::string::npos;
       pos = dot.find(" -- ", pos + 1)) {
    ++edges;
  }
  EXPECT_EQ(edges, 4u);
  EXPECT_EQ(dot.back(), '\n');
}


TEST(ConflictTest, ExplainConflictShowsLabel) {
  KnowledgeBase kb = Parse(R"(
    prescribed(aspirin, john).
    hasAllergy(john, aspirin).
    [allergy_check] ! :- prescribed(X, Y), hasAllergy(Y, X).
  )");
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  const std::vector<Conflict> conflicts = finder.NaiveConflicts(kb.facts());
  ASSERT_EQ(conflicts.size(), 1u);
  const std::string explanation = ExplainConflict(
      conflicts[0], kb.cdds(), kb.facts(), kb.symbols());
  EXPECT_NE(explanation.find("[allergy_check]"), std::string::npos);
}

}  // namespace
}  // namespace kbrepair
