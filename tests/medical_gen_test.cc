#include "gen/medical.h"

#include <gtest/gtest.h>

#include "repair/conflict.h"
#include "repair/consistency.h"
#include "repair/inquiry.h"
#include "repair/user.h"
#include "support/conflict_finder.h"
#include "util/stats.h"

namespace kbrepair {
namespace {

TEST(MedicalGenTest, PlannedConflictsMatchEnumerator) {
  MedicalKbOptions options;
  options.seed = 3;
  options.num_facts = 300;
  options.num_allergy_conflicts = 12;
  options.num_incompat_stars = 6;
  options.star_width = 4;
  options.routed_star_share = 0.5;
  StatusOr<MedicalKb> generated = GenerateMedicalKb(options);
  ASSERT_TRUE(generated.ok()) << generated.status();
  KnowledgeBase& kb = generated->kb;
  EXPECT_EQ(kb.facts().size(), 300u);
  EXPECT_EQ(generated->info.planned_conflicts, 12u + 6u * 4u);

  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  StatusOr<std::vector<Conflict>> all = finder.AllConflicts(kb.facts());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), generated->info.planned_conflicts);
  EXPECT_EQ(finder.NaiveConflicts(kb.facts()).size(),
            generated->info.planned_naive_conflicts);
  EXPECT_EQ(all->size() - finder.NaiveConflicts(kb.facts()).size(),
            generated->info.planned_chase_conflicts);
}

TEST(MedicalGenTest, StarsHaveHubStructure) {
  MedicalKbOptions options;
  options.seed = 4;
  options.num_facts = 60;
  options.num_allergy_conflicts = 0;
  options.num_incompat_stars = 1;
  options.star_width = 5;
  StatusOr<MedicalKb> generated = GenerateMedicalKb(options);
  ASSERT_TRUE(generated.ok());
  ConflictFinder finder(&generated->kb.symbols(), &generated->kb.tgds(),
                        &generated->kb.cdds());
  const std::vector<Conflict> conflicts =
      finder.NaiveConflicts(generated->kb.facts());
  ASSERT_EQ(conflicts.size(), 5u);
  const OverlapIndicators ind = ComputeOverlapIndicators(conflicts);
  // Every conflict shares the anchor prescription with every other.
  EXPECT_DOUBLE_EQ(ind.avg_scope, 4.0);
}

TEST(MedicalGenTest, EveryConflictPositionIsResolving) {
  // The generator's claim: 100% join-position share. Check against the
  // CDDs' resolving-position metadata: every argument of every body
  // atom is resolving.
  MedicalKbOptions options;
  StatusOr<MedicalKb> generated = GenerateMedicalKb(options);
  ASSERT_TRUE(generated.ok());
  for (const Cdd& cdd : generated->kb.cdds()) {
    for (size_t j = 0; j < cdd.body().size(); ++j) {
      EXPECT_EQ(cdd.resolving_positions(j).size(),
                static_cast<size_t>(cdd.body()[j].arity()));
    }
  }
}

TEST(MedicalGenTest, RandomMatchesOptiJoinAtFullJoinShare) {
  // The paper's Durum Wheat observation, reproduced by construction:
  // with ~all positions being join positions, the random strategy asks
  // essentially the same questions as opti-join.
  MedicalKbOptions options;
  options.seed = 5;
  options.num_facts = 250;
  options.num_allergy_conflicts = 15;
  options.num_incompat_stars = 5;
  options.star_width = 3;

  SampleStats random_questions;
  SampleStats join_questions;
  for (int rep = 0; rep < 4; ++rep) {
    for (Strategy strategy : {Strategy::kRandom, Strategy::kOptiJoin}) {
      MedicalKbOptions opts = options;
      opts.seed = options.seed + static_cast<uint64_t>(rep);
      StatusOr<MedicalKb> generated = GenerateMedicalKb(opts);
      ASSERT_TRUE(generated.ok());
      RandomUser user(100 + static_cast<uint64_t>(rep));
      InquiryOptions inquiry_options;
      inquiry_options.strategy = strategy;
      inquiry_options.seed = 200 + static_cast<uint64_t>(rep);
      InquiryEngine engine(&generated->kb, inquiry_options);
      StatusOr<InquiryResult> result = engine.Run(user);
      ASSERT_TRUE(result.ok()) << result.status();
      ConsistencyChecker checker(&generated->kb.symbols(),
                                 &generated->kb.tgds(),
                                 &generated->kb.cdds());
      EXPECT_TRUE(checker.IsConsistentOpt(result->facts).value());
      (strategy == Strategy::kRandom ? random_questions : join_questions)
          .Add(static_cast<double>(result->num_questions()));
    }
  }
  // Near-parity (the paper's plot shows random within ~10% of opti-join
  // on durum); allow 35% slack for the small sample.
  EXPECT_LT(random_questions.Mean(), join_questions.Mean() * 1.35);
  EXPECT_GT(random_questions.Mean(), join_questions.Mean() * 0.65);
}

TEST(MedicalGenTest, RejectsBadOptions) {
  MedicalKbOptions options;
  options.star_width = 0;
  EXPECT_FALSE(GenerateMedicalKb(options).ok());
}

TEST(MedicalGenTest, DeterministicBySeed) {
  MedicalKbOptions options;
  options.seed = 11;
  StatusOr<MedicalKb> a = GenerateMedicalKb(options);
  StatusOr<MedicalKb> b = GenerateMedicalKb(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kb.facts().ToString(a->kb.symbols()),
            b->kb.facts().ToString(b->kb.symbols()));
}

}  // namespace
}  // namespace kbrepair
