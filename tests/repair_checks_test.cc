#include "repair/repair_checks.h"

#include <gtest/gtest.h>

#include "parser/dlgp_parser.h"

namespace kbrepair {
namespace {

KnowledgeBase Parse(const std::string& text) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  EXPECT_TRUE(kb.ok()) << kb.status();
  return std::move(kb).value();
}

constexpr const char* kFigure1a = R"(
  prescribed(aspirin, john).
  hasAllergy(john, aspirin).
  hasAllergy(mike, penicillin).
  ! :- prescribed(X, Y), hasAllergy(Y, X).
)";

// The only conflicts are reached through an existential TGD: each
// employee gets a department null, the null is carried into staff/2,
// and a banned employee on staff violates the CDD. No conflict is naive.
constexpr const char* kExistentialChain = R"(
  emp(alice). emp(bob). emp(carol).
  banned(alice). banned(bob).
  dept(X, D) :- emp(X).
  staff(D, X) :- dept(X, D).
  ! :- staff(D, X), banned(X).
)";

class RepairChecksTest : public ::testing::Test {
 protected:
  RepairChecksTest() : kb_(Parse(kFigure1a)) {
    checker_ = std::make_unique<ConsistencyChecker>(
        &kb_.symbols(), &kb_.tgds(), &kb_.cdds());
    x1_ = kb_.symbols().MakeFreshNull();
    aspirin_ = kb_.symbols().FindTerm(TermKind::kConstant, "aspirin");
  }

  KnowledgeBase kb_;
  std::unique_ptr<ConsistencyChecker> checker_;
  TermId x1_ = kInvalidTerm;
  TermId aspirin_ = kInvalidTerm;
};

TEST_F(RepairChecksTest, Example35CFix) {
  // P = {(A,2,X1), (A',2,aspirin)} is a c-fix (Example 3.5).
  const std::vector<Fix> p = {Fix{1, 1, x1_}, Fix{2, 1, aspirin_}};
  EXPECT_TRUE(IsCFix(kb_.facts(), p, *checker_).value());
  // ... but not an r-fix: dropping the second fix stays consistent.
  EXPECT_FALSE(IsRFixSingleRemoval(kb_.facts(), p, *checker_).value());
  EXPECT_FALSE(IsRFixExhaustive(kb_.facts(), p, *checker_).value());
}

TEST_F(RepairChecksTest, Example35RFix) {
  // P1 = {(A,2,X1)} is an r-fix.
  const std::vector<Fix> p1 = {Fix{1, 1, x1_}};
  EXPECT_TRUE(IsCFix(kb_.facts(), p1, *checker_).value());
  EXPECT_TRUE(IsRFixSingleRemoval(kb_.facts(), p1, *checker_).value());
  EXPECT_TRUE(IsRFixExhaustive(kb_.facts(), p1, *checker_).value());
}

TEST_F(RepairChecksTest, Example35NotEvenCFix) {
  // P2 = {(A',2,aspirin)} is not a c-fix.
  const std::vector<Fix> p2 = {Fix{2, 1, aspirin_}};
  EXPECT_FALSE(IsCFix(kb_.facts(), p2, *checker_).value());
  EXPECT_FALSE(IsRFixSingleRemoval(kb_.facts(), p2, *checker_).value());
  EXPECT_FALSE(IsRFixExhaustive(kb_.facts(), p2, *checker_).value());
}

TEST_F(RepairChecksTest, InvalidFixSetRejected) {
  const TermId penicillin =
      kb_.symbols().FindTerm(TermKind::kConstant, "penicillin");
  const std::vector<Fix> invalid = {Fix{1, 1, x1_}, Fix{1, 1, penicillin}};
  EXPECT_FALSE(IsCFix(kb_.facts(), invalid, *checker_).ok());
}

TEST_F(RepairChecksTest, EmptySetIsCFixOfConsistentKb) {
  KnowledgeBase consistent = Parse(R"(
    p(a, b).
    ! :- p(X, Y), p(Y, X).
  )");
  ConsistencyChecker checker(&consistent.symbols(), &consistent.tgds(),
                             &consistent.cdds());
  EXPECT_TRUE(IsCFix(consistent.facts(), {}, checker).value());
  // The empty set is trivially an r-fix of a consistent KB.
  EXPECT_TRUE(IsRFixExhaustive(consistent.facts(), {}, checker).value());
}

TEST_F(RepairChecksTest, GreedyRFixProducesRFix) {
  KnowledgeBase kb = Parse(kFigure1a);
  StatusOr<std::vector<Fix>> fixes = GreedyRFix(kb);
  ASSERT_TRUE(fixes.ok()) << fixes.status();
  ASSERT_FALSE(fixes->empty());
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(IsCFix(kb.facts(), *fixes, checker).value());
  EXPECT_TRUE(
      IsRFixSingleRemoval(kb.facts(), *fixes, checker).value());
}

TEST_F(RepairChecksTest, GreedyRFixOnConsistentKbIsEmpty) {
  KnowledgeBase consistent = Parse("p(a, b). ! :- p(X, Y), p(Y, X).");
  StatusOr<std::vector<Fix>> fixes = GreedyRFix(consistent);
  ASSERT_TRUE(fixes.ok());
  EXPECT_TRUE(fixes->empty());
}

TEST_F(RepairChecksTest, GreedyRFixHandlesChaseConflicts) {
  KnowledgeBase kb = Parse(R"(
    c0(a, b). other(a, b).
    c1(X, Y) :- c0(X, Y).
    ! :- c1(X, Y), other(X, Y).
  )");
  StatusOr<std::vector<Fix>> fixes = GreedyRFix(kb);
  ASSERT_TRUE(fixes.ok()) << fixes.status();
  ASSERT_FALSE(fixes->empty());
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(IsCFix(kb.facts(), *fixes, checker).value());
}

TEST_F(RepairChecksTest, GreedyRFixThroughExistentialChain) {
  // Every fix is replayed on one maintained census, which retracts the
  // fixed employee's null-carrying derivations before the next round.
  KnowledgeBase kb = Parse(kExistentialChain);
  StatusOr<std::vector<Fix>> fixes = GreedyRFix(kb);
  ASSERT_TRUE(fixes.ok()) << fixes.status();
  ASSERT_EQ(fixes->size(), 2u);
  // Hub ties break to the smallest id: emp(alice), then emp(bob).
  EXPECT_EQ((*fixes)[0].atom, 0u);
  EXPECT_EQ((*fixes)[1].atom, 1u);
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(IsCFix(kb.facts(), *fixes, checker).value());
  EXPECT_TRUE(IsRFixExhaustive(kb.facts(), *fixes, checker).value());
}

// The hub emp(x1, alice) reaches the conflict only through derived
// atoms, and its argument 0 is not the one the derivation carries:
// nulling it leaves the conflict standing, so the next round must move
// on to argument 1 instead of nulling argument 0 again forever.
TEST_F(RepairChecksTest, GreedyRFixMovesPastAnUnhelpfulHubArgument) {
  KnowledgeBase kb = Parse(R"(
    emp(x1, alice). banned(alice).
    dept(X, D) :- emp(Y, X).
    staff(D, X) :- dept(X, D).
    ! :- staff(D, X), banned(X).
  )");
  StatusOr<std::vector<Fix>> fixes = GreedyRFix(kb);
  ASSERT_TRUE(fixes.ok()) << fixes.status();
  ASSERT_FALSE(fixes->empty());
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(IsCFix(kb.facts(), *fixes, checker).value());
  EXPECT_TRUE(IsRFixExhaustive(kb.facts(), *fixes, checker).value());
}

// A conflict no fix can break (the CDD fires on whatever value the
// position takes) exhausts the hub's positions: Internal, not a hang.
TEST_F(RepairChecksTest, GreedyRFixReportsAnUnbreakableConflict) {
  KnowledgeBase kb = Parse(R"(
    p(a).
    q(X) :- p(X).
    ! :- p(X), q(X).
  )");
  StatusOr<std::vector<Fix>> fixes = GreedyRFix(kb);
  ASSERT_FALSE(fixes.ok());
  EXPECT_EQ(fixes.status().code(), StatusCode::kInternal) << fixes.status();
}

TEST_F(RepairChecksTest, MakeURepairAppliesFixes) {
  StatusOr<FactBase> repaired = MakeURepair(kb_, {Fix{1, 1, x1_}});
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->atom(1).args[1], x1_);
  EXPECT_TRUE(checker_->IsConsistentOpt(*repaired).value());
  // The original KB is untouched.
  EXPECT_NE(kb_.facts().atom(1).args[1], x1_);
}

TEST_F(RepairChecksTest, GreedyRFixOnGridCluster) {
  KnowledgeBase kb = Parse(R"(
    p(j, a1). p(j, a2). p(j, a3).
    q(j, b1). q(j, b2).
    ! :- p(X, Y), q(X, Z).
  )");
  StatusOr<std::vector<Fix>> fixes = GreedyRFix(kb);
  ASSERT_TRUE(fixes.ok());
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(
      IsRFixSingleRemoval(kb.facts(), *fixes, checker).value());
  // The cheapest break nulls the q-side (2 fixes) rather than the
  // p-side (3); the greedy+minimize construction must not exceed the
  // smaller side.
  EXPECT_LE(fixes->size(), 2u);
}

}  // namespace
}  // namespace kbrepair
