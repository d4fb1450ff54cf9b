#include "gen/durum_wheat.h"

#include <gtest/gtest.h>

#include "chase/incremental_chase.h"
#include "repair/inquiry.h"
#include "repair/user.h"
#include "support/conflict_finder.h"

namespace kbrepair {
namespace {

// Published characteristics (Figure 2's table); the reconstruction must
// land on or near them.
TEST(DurumWheatTest, V1MatchesPublishedCharacteristics) {
  StatusOr<DurumWheatKb> durum =
      GenerateDurumWheatKb({DurumWheatVersion::kV1});
  ASSERT_TRUE(durum.ok()) << durum.status();
  KnowledgeBase& kb = durum->kb;

  EXPECT_EQ(kb.facts().size(), 567u);   // paper: 567
  EXPECT_EQ(kb.tgds().size(), 269u);    // paper: 269
  EXPECT_EQ(kb.cdds().size(), 27u);     // paper: 27

  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  // paper: 1075 chased atoms; our reconstruction lands within ~5%.
  EXPECT_NEAR(static_cast<double>(chased.facts().size()), 1075.0, 60.0);

  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  StatusOr<std::vector<Conflict>> all = finder.AllConflicts(kb.facts());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 185u);  // paper: 185
  EXPECT_EQ(all->size(), durum->info.planned_conflicts);

  const OverlapIndicators ind = ComputeOverlapIndicators(*all);
  // paper: avg scope 8.1, avg atoms per overlap 1.42, 79 atoms (14%).
  // Our reconstruction trades conflict-atom count (~119, 21%) for an
  // exact conflict count and hub structure; scope stays near 8.
  EXPECT_NEAR(ind.avg_scope, 8.5, 1.2);
  EXPECT_NEAR(ind.avg_atoms_per_overlap, 1.2, 0.5);
  EXPECT_EQ(ind.atoms_in_conflicts, durum->info.atoms_in_conflicts);
  EXPECT_LT(static_cast<double>(ind.atoms_in_conflicts) /
                static_cast<double>(kb.facts().size()),
            0.25);
}

TEST(DurumWheatTest, V2AddsConstraintsAndConflictsOnSameAtoms) {
  StatusOr<DurumWheatKb> v1 =
      GenerateDurumWheatKb({DurumWheatVersion::kV1});
  StatusOr<DurumWheatKb> v2 =
      GenerateDurumWheatKb({DurumWheatVersion::kV2});
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());

  EXPECT_EQ(v2->kb.cdds().size(), 100u);  // paper: 100
  EXPECT_EQ(v2->kb.facts().size(), v1->kb.facts().size());
  EXPECT_EQ(v2->kb.tgds().size(), v1->kb.tgds().size());

  ConflictFinder finder(&v2->kb.symbols(), &v2->kb.tgds(),
                        &v2->kb.cdds());
  StatusOr<std::vector<Conflict>> all =
      finder.AllConflicts(v2->kb.facts());
  ASSERT_TRUE(all.ok());
  // paper: 212; our projection constraints add 24 to v1's 185.
  EXPECT_NEAR(static_cast<double>(all->size()), 212.0, 5.0);
  EXPECT_GT(all->size(), 185u);

  // Key property from the paper: the new conflicts involve the SAME
  // atoms — the inconsistency ratio does not move.
  ConflictFinder v1_finder(&v1->kb.symbols(), &v1->kb.tgds(),
                           &v1->kb.cdds());
  StatusOr<std::vector<Conflict>> v1_all =
      v1_finder.AllConflicts(v1->kb.facts());
  ASSERT_TRUE(v1_all.ok());
  EXPECT_EQ(ComputeOverlapIndicators(*all).atoms_in_conflicts,
            ComputeOverlapIndicators(*v1_all).atoms_in_conflicts);
}

TEST(DurumWheatTest, ValidatesAndUsesAgronomyVocabulary) {
  StatusOr<DurumWheatKb> durum =
      GenerateDurumWheatKb({DurumWheatVersion::kV1});
  ASSERT_TRUE(durum.ok());
  EXPECT_TRUE(durum->kb.Validate().ok());
  // Vocabulary is agronomy-flavoured.
  bool found_agronomy_name = false;
  for (size_t p = 0; p < durum->kb.symbols().num_predicates(); ++p) {
    const std::string& name =
        durum->kb.symbols().predicate_name(static_cast<PredicateId>(p));
    found_agronomy_name =
        found_agronomy_name || name.rfind("hasPrecedent", 0) == 0 ||
        name.rfind("isCultivatedOn", 0) == 0;
  }
  EXPECT_TRUE(found_agronomy_name);
}

TEST(DurumWheatTest, PartOfTheInconsistencySurfacesOnlyInTheChase) {
  StatusOr<DurumWheatKb> durum =
      GenerateDurumWheatKb({DurumWheatVersion::kV1});
  ASSERT_TRUE(durum.ok());
  KnowledgeBase& kb = durum->kb;
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  const size_t naive = finder.NaiveConflicts(kb.facts()).size();
  StatusOr<std::vector<Conflict>> all = finder.AllConflicts(kb.facts());
  ASSERT_TRUE(all.ok());
  EXPECT_LT(naive, all->size());
  EXPECT_EQ(all->size() - naive, durum->info.planned_chase_conflicts);
}

TEST(DurumWheatTest, RepairableByEveryStrategy) {
  for (Strategy strategy : {Strategy::kRandom, Strategy::kOptiMcd}) {
    StatusOr<DurumWheatKb> durum =
        GenerateDurumWheatKb({DurumWheatVersion::kV1});
    ASSERT_TRUE(durum.ok());
    RandomUser user(42);
    InquiryOptions options;
    options.strategy = strategy;
    options.seed = 42;
    InquiryEngine engine(&durum->kb, options);
    StatusOr<InquiryResult> result = engine.Run(user);
    ASSERT_TRUE(result.ok())
        << StrategyName(strategy) << ": " << result.status();
    EXPECT_GT(result->num_questions(), 0u);
    // The paper's Figure 2: around 14-46 questions depending on
    // strategy; sanity-bound generously.
    EXPECT_LT(result->num_questions(), 120u) << StrategyName(strategy);
  }
}

TEST(DurumWheatTest, Deterministic) {
  StatusOr<DurumWheatKb> a = GenerateDurumWheatKb({});
  StatusOr<DurumWheatKb> b = GenerateDurumWheatKb({});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kb.facts().ToString(a->kb.symbols()),
            b->kb.facts().ToString(b->kb.symbols()));
}

}  // namespace
}  // namespace kbrepair
