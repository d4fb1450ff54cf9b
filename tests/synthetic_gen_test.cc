#include "gen/synthetic.h"

#include <gtest/gtest.h>

#include "chase/incremental_chase.h"
#include "rules/weak_acyclicity.h"
#include "support/conflict_finder.h"

namespace kbrepair {
namespace {

TEST(SyntheticGenTest, RejectsBadOptions) {
  SyntheticKbOptions options;
  options.num_cdds = 0;
  EXPECT_FALSE(GenerateSyntheticKb(options).ok());

  options = SyntheticKbOptions{};
  options.cdd_min_atoms = 1;
  EXPECT_FALSE(GenerateSyntheticKb(options).ok());

  options = SyntheticKbOptions{};
  options.min_arity = 1;
  EXPECT_FALSE(GenerateSyntheticKb(options).ok());

  options = SyntheticKbOptions{};
  options.min_multiplicity = 0;
  EXPECT_FALSE(GenerateSyntheticKb(options).ok());

  options = SyntheticKbOptions{};
  options.num_tgds = 4;
  options.conflict_depth = 0;
  EXPECT_FALSE(GenerateSyntheticKb(options).ok());
}

TEST(SyntheticGenTest, HitsRequestedSizeAndRatio) {
  SyntheticKbOptions options;
  options.seed = 2;
  options.num_facts = 500;
  options.inconsistency_ratio = 0.2;
  options.num_cdds = 10;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  ASSERT_TRUE(generated.ok()) << generated.status();
  EXPECT_EQ(generated->kb.facts().size(), 500u);
  // Cluster granularity overshoots by at most one cluster.
  EXPECT_NEAR(generated->info.inconsistency_ratio, 0.2, 0.05);
  EXPECT_GE(generated->info.atoms_in_conflicts, 100u);
}

TEST(SyntheticGenTest, PlannedConflictsMatchEnumerator) {
  for (uint64_t seed : {1u, 7u, 21u}) {
    SyntheticKbOptions options;
    options.seed = seed;
    options.num_facts = 250;
    options.inconsistency_ratio = 0.3;
    options.num_cdds = 7;
    options.min_multiplicity = 1;
    options.max_multiplicity = 3;
    StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
    ASSERT_TRUE(generated.ok());
    KnowledgeBase& kb = generated->kb;
    ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
    StatusOr<std::vector<Conflict>> all = finder.AllConflicts(kb.facts());
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all->size(), generated->info.planned_conflicts)
        << "seed " << seed;
    const OverlapIndicators indicators = ComputeOverlapIndicators(*all);
    EXPECT_EQ(indicators.atoms_in_conflicts,
              generated->info.atoms_in_conflicts)
        << "seed " << seed;
  }
}

TEST(SyntheticGenTest, RoutedConflictsNeedTheChase) {
  SyntheticKbOptions options;
  options.seed = 5;
  options.num_facts = 200;
  options.inconsistency_ratio = 0.3;
  options.num_cdds = 6;
  options.num_tgds = 6;
  options.conflict_depth = 2;
  options.routed_violation_share = 1.0;  // route everything possible
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  ASSERT_TRUE(generated.ok());
  EXPECT_GT(generated->info.planned_chase_conflicts, 0u);
  KnowledgeBase& kb = generated->kb;
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_EQ(finder.NaiveConflicts(kb.facts()).size(),
            generated->info.planned_naive_conflicts);
  StatusOr<std::vector<Conflict>> all = finder.AllConflicts(kb.facts());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), generated->info.planned_conflicts);
  EXPECT_GT(all->size(), generated->info.planned_naive_conflicts);
}

TEST(SyntheticGenTest, DepthMeansThatManyChaseSteps) {
  // With conflict_depth d, a routed violation needs exactly d chase
  // steps: the chain predicates are distinct per step, so the derived
  // chain for one origin atom has d atoms.
  SyntheticKbOptions options;
  options.seed = 9;
  options.num_facts = 60;
  options.inconsistency_ratio = 0.5;
  options.num_cdds = 2;
  options.num_tgds = 6;
  options.conflict_depth = 3;
  options.routed_violation_share = 1.0;
  options.min_multiplicity = 1;
  options.max_multiplicity = 1;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  ASSERT_TRUE(generated.ok());
  KnowledgeBase& kb = generated->kb;
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  EXPECT_GT(chased.facts().size(), chased.num_original());
  // Derivation depth of the CDD-feeding atom: walk provenance.
  size_t max_depth = 0;
  for (AtomId id = static_cast<AtomId>(chased.num_original());
       id < chased.facts().size(); ++id) {
    size_t depth = 0;
    AtomId cursor = id;
    while (!chased.IsOriginal(cursor)) {
      ++depth;
      cursor = chased.derivation_or_null(cursor)->parents[0];
    }
    max_depth = std::max(max_depth, depth);
  }
  EXPECT_EQ(max_depth, 3u);
}

TEST(SyntheticGenTest, TgdsAreWeaklyAcyclic) {
  SyntheticKbOptions options;
  options.seed = 6;
  options.num_facts = 120;
  options.num_cdds = 4;
  options.num_tgds = 8;
  options.conflict_depth = 2;
  options.num_noise_tgds = 10;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  ASSERT_TRUE(generated.ok());
  EXPECT_TRUE(
      IsWeaklyAcyclic(generated->kb.tgds(), generated->kb.symbols()));
  EXPECT_TRUE(generated->kb.Validate().ok());
}

TEST(SyntheticGenTest, NoiseTgdsGrowChaseWithoutConflicts) {
  SyntheticKbOptions options;
  options.seed = 8;
  options.num_facts = 100;
  options.inconsistency_ratio = 0.0;
  options.num_cdds = 3;
  options.num_noise_tgds = 20;
  options.noise_tgd_fire_share = 1.0;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  ASSERT_TRUE(generated.ok());
  KnowledgeBase& kb = generated->kb;
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  EXPECT_GT(chased.facts().size(), chased.num_original());
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  StatusOr<std::vector<Conflict>> all = finder.AllConflicts(kb.facts());
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->empty());
}

TEST(SyntheticGenTest, DeterministicBySeed) {
  SyntheticKbOptions options;
  options.seed = 1234;
  options.num_facts = 150;
  options.inconsistency_ratio = 0.2;
  options.num_cdds = 5;
  StatusOr<SyntheticKb> a = GenerateSyntheticKb(options);
  StatusOr<SyntheticKb> b = GenerateSyntheticKb(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kb.facts().ToString(a->kb.symbols()),
            b->kb.facts().ToString(b->kb.symbols()));
  EXPECT_EQ(a->info.planned_conflicts, b->info.planned_conflicts);
}

TEST(SyntheticGenTest, DifferentSeedsDiffer) {
  SyntheticKbOptions options;
  options.num_facts = 150;
  options.inconsistency_ratio = 0.2;
  options.num_cdds = 5;
  options.seed = 1;
  StatusOr<SyntheticKb> a = GenerateSyntheticKb(options);
  options.seed = 2;
  StatusOr<SyntheticKb> b = GenerateSyntheticKb(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->kb.facts().ToString(a->kb.symbols()),
            b->kb.facts().ToString(b->kb.symbols()));
}

TEST(SyntheticGenTest, FullInconsistencyGrowsFactCountIfNeeded) {
  SyntheticKbOptions options;
  options.seed = 3;
  options.num_facts = 50;
  options.inconsistency_ratio = 1.0;
  options.num_cdds = 4;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  ASSERT_TRUE(generated.ok());
  EXPECT_GE(generated->info.inconsistency_ratio, 0.95);
}

TEST(SyntheticGenTest, JoinPositionShareRespondsToKnob) {
  SyntheticKbOptions low;
  low.seed = 4;
  low.num_facts = 200;
  low.inconsistency_ratio = 0.3;
  low.num_cdds = 6;
  low.cdd_min_atoms = 4;
  low.cdd_max_atoms = 6;
  low.min_arity = 4;
  low.max_arity = 8;
  low.join_position_share = 0.15;
  SyntheticKbOptions high = low;
  high.join_position_share = 0.8;
  StatusOr<SyntheticKb> low_kb = GenerateSyntheticKb(low);
  StatusOr<SyntheticKb> high_kb = GenerateSyntheticKb(high);
  ASSERT_TRUE(low_kb.ok());
  ASSERT_TRUE(high_kb.ok());
  EXPECT_LT(low_kb->info.join_position_share,
            high_kb->info.join_position_share);
  EXPECT_GT(high_kb->info.join_position_share, 0.5);
}

TEST(SyntheticGenTest, NamePrefixFlavorsVocabulary) {
  SyntheticKbOptions options;
  options.seed = 2;
  options.num_facts = 40;
  options.num_cdds = 2;
  options.name_prefix = "agro";
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  ASSERT_TRUE(generated.ok());
  EXPECT_EQ(
      generated->kb.symbols().predicate_name(0).rfind("agro", 0), 0u);
}

}  // namespace
}  // namespace kbrepair
