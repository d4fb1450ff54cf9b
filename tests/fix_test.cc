#include "repair/fix.h"

#include <gtest/gtest.h>

#include "parser/dlgp_parser.h"

namespace kbrepair {
namespace {

class FixTest : public ::testing::Test {
 protected:
  FixTest() {
    StatusOr<KnowledgeBase> kb = ParseDlgp(R"(
      prescribed(aspirin, john).
      hasAllergy(john, aspirin).
      hasAllergy(mike, penicillin).
    )");
    EXPECT_TRUE(kb.ok());
    kb_ = std::move(kb).value();
    aspirin_ = kb_.symbols().FindTerm(TermKind::kConstant, "aspirin");
    penicillin_ = kb_.symbols().FindTerm(TermKind::kConstant, "penicillin");
    john_ = kb_.symbols().FindTerm(TermKind::kConstant, "john");
    mike_ = kb_.symbols().FindTerm(TermKind::kConstant, "mike");
  }

  KnowledgeBase kb_;
  TermId aspirin_, penicillin_, john_, mike_;
};

TEST_F(FixTest, AllPositionsEnumeratesEveryArgument) {
  const std::vector<Position> positions = AllPositions(kb_.facts());
  EXPECT_EQ(positions.size(), 6u);
  EXPECT_EQ(positions.front(), (Position{0, 0}));
  EXPECT_EQ(positions.back(), (Position{2, 1}));
}

TEST_F(FixTest, ValidFixSetRejectsConflictingValues) {
  EXPECT_TRUE(IsValidFixSet({Fix{0, 0, mike_}, Fix{0, 1, mike_}}));
  EXPECT_TRUE(IsValidFixSet({Fix{0, 0, mike_}, Fix{0, 0, mike_}}));
  EXPECT_FALSE(IsValidFixSet({Fix{0, 0, mike_}, Fix{0, 0, john_}}));
}

TEST_F(FixTest, ValidFixSetKeepsArgumentIndicesPast255Apart) {
  // (0, 256) and (1, 0) are different positions: different values are
  // fine. An 8-bit index field in the position key would merge them.
  EXPECT_TRUE(IsValidFixSet({Fix{0, 256, mike_}, Fix{1, 0, john_}}));
  EXPECT_FALSE(IsValidFixSet({Fix{0, 256, mike_}, Fix{0, 256, john_}}));
}

TEST_F(FixTest, ExampleThreeTwoApplication) {
  // Example 3.2: P = {(hasAllergy(john,aspirin), 2, X1),
  //                   (hasAllergy(mike,penicillin), 2, aspirin)}.
  const TermId x1 = kb_.symbols().MakeFreshNull();
  FactBase facts = kb_.facts();
  ASSERT_TRUE(
      ApplyFixes(facts, {Fix{1, 1, x1}, Fix{2, 1, aspirin_}}).ok());
  EXPECT_EQ(facts.atom(1).args[1], x1);
  EXPECT_EQ(facts.atom(2).args[1], aspirin_);
  // Shape preserved: |F| and pos(F) unchanged.
  EXPECT_EQ(facts.size(), kb_.facts().size());
  EXPECT_EQ(facts.NumPositions(), kb_.facts().NumPositions());
}

TEST_F(FixTest, ApplyFixesRejectsInvalidSet) {
  FactBase facts = kb_.facts();
  const Status status =
      ApplyFixes(facts, {Fix{0, 0, mike_}, Fix{0, 0, john_}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Nothing applied.
  EXPECT_EQ(facts.atom(0).args[0], aspirin_);
}

TEST_F(FixTest, ApplyFixesRejectsOutOfRange) {
  FactBase facts = kb_.facts();
  EXPECT_FALSE(ApplyFixes(facts, {Fix{99, 0, mike_}}).ok());
  EXPECT_FALSE(ApplyFixes(facts, {Fix{0, 7, mike_}}).ok());
}

TEST_F(FixTest, DiffRecoversFixes) {
  const TermId x1 = kb_.symbols().MakeFreshNull();
  FactBase after = kb_.facts();
  ASSERT_TRUE(ApplyFixes(after, {Fix{1, 1, x1}, Fix{2, 1, aspirin_}}).ok());
  const std::vector<Fix> diff = DiffFactBases(kb_.facts(), after);
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_EQ(diff[0], (Fix{1, 1, x1}));
  EXPECT_EQ(diff[1], (Fix{2, 1, aspirin_}));
}

TEST_F(FixTest, DiffOfIdenticalBasesIsEmpty) {
  EXPECT_TRUE(DiffFactBases(kb_.facts(), kb_.facts()).empty());
}

TEST_F(FixTest, ApplyDiffRoundTrip) {
  FactBase after = kb_.facts();
  after.SetArg(0, 1, mike_);
  after.SetArg(2, 0, john_);
  FactBase replayed = kb_.facts();
  ASSERT_TRUE(ApplyFixes(replayed, DiffFactBases(kb_.facts(), after)).ok());
  EXPECT_TRUE(EqualUpToNullRenaming(replayed, after, kb_.symbols()));
}

TEST_F(FixTest, AdmissibleFixRequiresActiveDomainOrFreshNull) {
  // hasAllergy position 1 (0-based 0) active domain: {john, mike}.
  EXPECT_TRUE(
      IsAdmissibleFix(Fix{1, 0, mike_}, kb_.facts(), kb_.symbols()));
  // Same value as current: inadmissible.
  EXPECT_FALSE(
      IsAdmissibleFix(Fix{1, 0, john_}, kb_.facts(), kb_.symbols()));
  // Value outside adom(hasAllergy, 1): inadmissible.
  EXPECT_FALSE(
      IsAdmissibleFix(Fix{1, 0, aspirin_}, kb_.facts(), kb_.symbols()));
  // A fresh null is always admissible.
  const TermId fresh = kb_.symbols().MakeFreshNull();
  EXPECT_TRUE(IsAdmissibleFix(Fix{1, 0, fresh}, kb_.facts(), kb_.symbols()));
}

TEST_F(FixTest, UsedNullIsNotAdmissible) {
  const TermId null = kb_.symbols().MakeFreshNull();
  FactBase facts = kb_.facts();
  facts.SetArg(0, 0, null);
  // The null is now used: not "uniquely attributed" anymore.
  EXPECT_FALSE(IsAdmissibleFix(Fix{1, 0, null}, facts, kb_.symbols()));
}

TEST_F(FixTest, AdmissibleFixRejectsOutOfRange) {
  EXPECT_FALSE(
      IsAdmissibleFix(Fix{42, 0, mike_}, kb_.facts(), kb_.symbols()));
  EXPECT_FALSE(
      IsAdmissibleFix(Fix{0, -1, mike_}, kb_.facts(), kb_.symbols()));
  EXPECT_FALSE(
      IsAdmissibleFix(Fix{0, 2, mike_}, kb_.facts(), kb_.symbols()));
}

TEST_F(FixTest, EqualUpToNullRenamingPositive) {
  const TermId n1 = kb_.symbols().MakeFreshNull();
  const TermId n2 = kb_.symbols().MakeFreshNull();
  FactBase a = kb_.facts();
  FactBase b = kb_.facts();
  a.SetArg(0, 0, n1);
  a.SetArg(1, 1, n1);
  b.SetArg(0, 0, n2);
  b.SetArg(1, 1, n2);
  EXPECT_TRUE(EqualUpToNullRenaming(a, b, kb_.symbols()));
}

TEST_F(FixTest, EqualUpToNullRenamingRequiresBijection) {
  const TermId n1 = kb_.symbols().MakeFreshNull();
  const TermId n2 = kb_.symbols().MakeFreshNull();
  const TermId n3 = kb_.symbols().MakeFreshNull();
  FactBase a = kb_.facts();
  FactBase b = kb_.facts();
  // a uses one null twice; b uses two different nulls.
  a.SetArg(0, 0, n1);
  a.SetArg(1, 1, n1);
  b.SetArg(0, 0, n2);
  b.SetArg(1, 1, n3);
  EXPECT_FALSE(EqualUpToNullRenaming(a, b, kb_.symbols()));
  EXPECT_FALSE(EqualUpToNullRenaming(b, a, kb_.symbols()));
}

TEST_F(FixTest, EqualUpToNullRenamingRejectsConstantMismatch) {
  FactBase a = kb_.facts();
  FactBase b = kb_.facts();
  b.SetArg(0, 0, penicillin_);
  EXPECT_FALSE(EqualUpToNullRenaming(a, b, kb_.symbols()));
}

TEST_F(FixTest, EqualUpToNullRenamingRejectsNullVsConstant) {
  FactBase a = kb_.facts();
  FactBase b = kb_.facts();
  a.SetArg(0, 0, kb_.symbols().MakeFreshNull());
  EXPECT_FALSE(EqualUpToNullRenaming(a, b, kb_.symbols()));
}

TEST_F(FixTest, FixToStringRendersPaperStyle) {
  const Fix fix{1, 1, penicillin_};
  EXPECT_EQ(fix.ToString(kb_.symbols(), kb_.facts()),
            "(hasAllergy(john,aspirin), 2, penicillin)");
}

TEST_F(FixTest, PositionOrderingAndHash) {
  const Position a{1, 0};
  const Position b{1, 1};
  const Position c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  PositionHash hash;
  EXPECT_EQ(hash(a), hash(Position{1, 0}));
  PositionSet set = {a, b};
  EXPECT_EQ(set.count(Position{1, 0}), 1u);
  EXPECT_EQ(set.count(c), 0u);
}

}  // namespace
}  // namespace kbrepair
