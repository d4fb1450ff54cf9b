#include "repair/deletion_repair.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "parser/dlgp_parser.h"
#include "repair/consistency.h"
#include "repair/inquiry.h"
#include "repair/user.h"

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

TEST(DeletionRepairTest, Example12TwoRepairs) {
  // Example 1.2: the deletion repairs are F1 (drop hasAllergy(john,
  // aspirin)) and F2 (drop prescribed(aspirin, john)).
  KnowledgeBase kb = Parse(kFigure1a);
  StatusOr<std::vector<DeletionRepair>> repairs = AllDeletionRepairs(kb);
  ASSERT_TRUE(repairs.ok()) << repairs.status();
  ASSERT_EQ(repairs->size(), 2u);
  for (const DeletionRepair& repair : *repairs) {
    EXPECT_EQ(repair.NumKept(), 2u);
    EXPECT_EQ(repair.NumDeleted(), 1u);
    // hasAllergy(mike, penicillin) survives in both.
    EXPECT_TRUE(repair.kept[2]);
    // Exactly one of the conflicting pair is dropped.
    EXPECT_NE(repair.kept[0], repair.kept[1]);
  }
}

TEST(DeletionRepairTest, MaterializedRepairsAreConsistent) {
  KnowledgeBase kb = Parse(kFigure1a);
  StatusOr<std::vector<DeletionRepair>> repairs = AllDeletionRepairs(kb);
  ASSERT_TRUE(repairs.ok());
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  for (const DeletionRepair& repair : *repairs) {
    EXPECT_TRUE(
        checker.IsConsistentOpt(repair.Materialize(kb.facts())).value());
  }
}

TEST(DeletionRepairTest, ConsistentKbHasSingleFullRepair) {
  KnowledgeBase kb = Parse("p(a, b). q(c, d). ! :- p(X, Y), q(Y, X).");
  StatusOr<std::vector<DeletionRepair>> repairs = AllDeletionRepairs(kb);
  ASSERT_TRUE(repairs.ok());
  ASSERT_EQ(repairs->size(), 1u);
  EXPECT_EQ(repairs->front().NumDeleted(), 0u);
}

TEST(DeletionRepairTest, AllDeletionRepairsRefusesLargeKbs) {
  KnowledgeBase kb;
  const PredicateId p = kb.symbols().InternPredicate("p", 1);
  for (int i = 0; i < 30; ++i) {
    const std::string index = std::to_string(i);
    kb.facts().Add(Atom(p, {kb.symbols().InternConstant("c" + index)}));
  }
  EXPECT_FALSE(AllDeletionRepairs(kb, /*max_atoms=*/16).ok());
}

TEST(DeletionRepairTest, AllDeletionRepairsRefusesSixtyFourAtoms) {
  // A cap of 64 admits 64 atoms, but the subset masks are 64-bit words,
  // so the enumeration must refuse rather than shift past the word.
  KnowledgeBase kb;
  const PredicateId p = kb.symbols().InternPredicate("p", 1);
  for (int i = 0; i < 64; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    kb.facts().Add(Atom(p, {kb.symbols().InternConstant(name)}));
  }
  StatusOr<std::vector<DeletionRepair>> repairs =
      AllDeletionRepairs(kb, /*max_atoms=*/64);
  ASSERT_FALSE(repairs.ok());
  EXPECT_EQ(repairs.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeletionRepairTest, GreedyRepairIsConsistentAndMaximal) {
  KnowledgeBase kb = Parse(R"(
    p(j, a1). p(j, a2). p(j, a3).
    q(j, b1).
    r(keep, me).
    ! :- p(X, Y), q(X, Z).
  )");
  StatusOr<DeletionRepair> repair = GreedyDeletionRepair(kb);
  ASSERT_TRUE(repair.ok()) << repair.status();
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(
      checker.IsConsistentOpt(repair->Materialize(kb.facts())).value());
  // The hub q-atom supports all three conflicts: greedy drops it alone.
  EXPECT_EQ(repair->NumDeleted(), 1u);
  EXPECT_FALSE(repair->kept[3]);
  // Maximality: re-adding the q-atom would break consistency, everything
  // else is kept.
  EXPECT_TRUE(repair->kept[4]);
}

TEST(DeletionRepairTest, GreedyHandlesChaseOnlyConflicts) {
  KnowledgeBase kb = Parse(R"(
    c0(a, b). other(a, b). pad(x, y).
    c1(X, Y) :- c0(X, Y).
    ! :- c1(X, Y), other(X, Y).
  )");
  StatusOr<DeletionRepair> repair = GreedyDeletionRepair(kb);
  ASSERT_TRUE(repair.ok()) << repair.status();
  EXPECT_EQ(repair->NumDeleted(), 1u);
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(
      checker.IsConsistentOpt(repair->Materialize(kb.facts())).value());
}

TEST(DeletionRepairTest, GreedyHandlesExistentialChainConflicts) {
  KnowledgeBase kb = Parse(kExistentialChain);
  StatusOr<DeletionRepair> repair = GreedyDeletionRepair(kb);
  ASSERT_TRUE(repair.ok()) << repair.status();
  // Every conflict atom has degree 1; ties break to the smallest id, so
  // emp(alice) goes first, then emp(bob) on the recomputed census.
  EXPECT_EQ(repair->kept,
            (std::vector<bool>{false, false, true, true, true}));
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(
      checker.IsConsistentOpt(repair->Materialize(kb.facts())).value());
  // The greedy repair is one of the maximal consistent subsets.
  StatusOr<std::vector<DeletionRepair>> all = AllDeletionRepairs(kb);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->size(), 4u);
  EXPECT_TRUE(std::any_of(all->begin(), all->end(),
                          [&](const DeletionRepair& other) {
                            return other.kept == repair->kept;
                          }));
}

TEST(DeletionRepairTest, UpdateRepairPreservesMoreThanDeletion) {
  // The paper's central information-preservation claim (Examples
  // 1.2/1.3): update repairing keeps every atom and loses only the
  // rewritten values; deletion repairing loses whole atoms.
  KnowledgeBase kb = Parse(kFigure1a);

  StatusOr<DeletionRepair> deletion = GreedyDeletionRepair(kb);
  ASSERT_TRUE(deletion.ok());
  const RetentionMetrics deletion_metrics =
      MetricsForDeletion(kb.facts(), *deletion);

  RandomUser user(3);
  InquiryEngine engine(&kb, InquiryOptions{});
  StatusOr<InquiryResult> update = engine.Run(user);
  ASSERT_TRUE(update.ok());
  const RetentionMetrics update_metrics =
      MetricsForUpdate(kb.facts(), update->facts);

  EXPECT_GT(update_metrics.atoms_kept, deletion_metrics.atoms_kept);
  EXPECT_GT(update_metrics.values_kept, deletion_metrics.values_kept);
  EXPECT_EQ(update_metrics.atoms_kept, update_metrics.atoms_original);
}

TEST(DeletionRepairTest, RetentionMetricsArithmetic) {
  KnowledgeBase kb = Parse("p(a, b). q(c, d, e).");
  DeletionRepair repair;
  repair.kept = {true, false};
  const RetentionMetrics metrics = MetricsForDeletion(kb.facts(), repair);
  EXPECT_EQ(metrics.atoms_original, 2u);
  EXPECT_EQ(metrics.atoms_kept, 1u);
  EXPECT_EQ(metrics.values_original, 5u);
  EXPECT_EQ(metrics.values_kept, 2u);

  FactBase updated = kb.facts();
  updated.SetArg(1, 2, kb.symbols().MakeFreshNull());
  const RetentionMetrics update = MetricsForUpdate(kb.facts(), updated);
  EXPECT_EQ(update.values_kept, 4u);
  EXPECT_EQ(update.atoms_kept, 2u);
}

TEST(DeletionRepairTest, MaterializeRenumbersAtoms) {
  KnowledgeBase kb = Parse("p(a, b). p(c, d). p(e, f).");
  DeletionRepair repair;
  repair.kept = {true, false, true};
  const FactBase subset = repair.Materialize(kb.facts());
  ASSERT_EQ(subset.size(), 2u);
  EXPECT_EQ(subset.atom(0).ToString(kb.symbols()), "p(a,b)");
  EXPECT_EQ(subset.atom(1).ToString(kb.symbols()), "p(e,f)");
}

}  // namespace
}  // namespace kbrepair
