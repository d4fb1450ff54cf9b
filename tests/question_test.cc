#include "repair/question.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "parser/dlgp_parser.h"
#include "support/conflict_finder.h"

namespace kbrepair {
namespace {

KnowledgeBase Parse(const std::string& text) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  EXPECT_TRUE(kb.ok()) << kb.status();
  return std::move(kb).value();
}

// Π-REPOPT probes the checker's maintained Π-skeleton, so every test
// builds it over the (facts, Π) it then asks about.
class QuestionTest : public ::testing::Test {
 protected:
  void Build(const std::string& text) {
    kb_ = Parse(text);
    repairability_ = std::make_unique<RepairabilityChecker>(
        &kb_.symbols(), &kb_.tgds(), &kb_.cdds());
    finder_ = std::make_unique<ConflictFinder>(&kb_.symbols(), &kb_.tgds(),
                                               &kb_.cdds());
    generator_ = std::make_unique<QuestionGenerator>(&kb_.symbols(),
                                                     repairability_.get());
  }

  Conflict FirstNaiveConflict() {
    const std::vector<Conflict> conflicts =
        finder_->NaiveConflicts(kb_.facts());
    EXPECT_FALSE(conflicts.empty());
    return conflicts.front();
  }

  KnowledgeBase kb_;
  std::unique_ptr<RepairabilityChecker> repairability_;
  std::unique_ptr<ConflictFinder> finder_;
  std::unique_ptr<QuestionGenerator> generator_;
};

TEST_F(QuestionTest, OffersActiveDomainValuesPlusFreshNull) {
  // Example 4.2 shape: the question about the allergy conflict.
  Build(R"(
    prescribed(aspirin, john).
    hasAllergy(john, aspirin).
    hasAllergy(mike, penicillin).
    ! :- prescribed(X, Y), hasAllergy(Y, X).
  )");
  const Conflict conflict = FirstNaiveConflict();
  ASSERT_TRUE(repairability_->EnsureSkeleton(kb_.facts(), {}).ok());
  StatusOr<Question> question = generator_->SoundQuestion(
      kb_.facts(), {}, conflict, kb_.cdds(),
      PositionSelection::kAllPositions);
  ASSERT_TRUE(question.ok());

  // Positions: 2 atoms x 2 args.
  EXPECT_EQ(question->considered_positions.size(), 4u);

  // Per position: adom \ {current} plus one fresh null. prescribed's
  // positions have singleton domains -> null only. hasAllergy(john,
  // aspirin) offers mike at arg 0 and penicillin at arg 1 plus nulls.
  // Total fixes: 1 + 1 + 2 + 2 = 6 (none filtered: no TGDs and Π = ∅).
  EXPECT_EQ(question->fixes.size(), 6u);

  const TermId mike = kb_.symbols().FindTerm(TermKind::kConstant, "mike");
  const TermId penicillin =
      kb_.symbols().FindTerm(TermKind::kConstant, "penicillin");
  bool offers_mike = false;
  bool offers_penicillin = false;
  size_t null_fixes = 0;
  for (const Fix& fix : question->fixes) {
    EXPECT_TRUE(IsAdmissibleFix(fix, kb_.facts(), kb_.symbols()))
        << fix.ToString(kb_.symbols(), kb_.facts());
    offers_mike = offers_mike || (fix.atom == 1 && fix.arg == 0 &&
                                  fix.value == mike);
    offers_penicillin = offers_penicillin ||
                        (fix.atom == 1 && fix.arg == 1 &&
                         fix.value == penicillin);
    if (kb_.symbols().IsNull(fix.value)) ++null_fixes;
  }
  EXPECT_TRUE(offers_mike);
  EXPECT_TRUE(offers_penicillin);
  EXPECT_EQ(null_fixes, 4u);  // one per position
}

TEST_F(QuestionTest, EveryOfferedFixKeepsKbRepairable) {
  Build(R"(
    p(a, b). q(b, d). r(b, e).
    ! :- p(X, Y), q(Y, Z).
    ! :- p(X, Y), r(Y, Z).
  )");
  const Conflict conflict = FirstNaiveConflict();
  ASSERT_TRUE(repairability_->EnsureSkeleton(kb_.facts(), {}).ok());
  StatusOr<Question> question = generator_->SoundQuestion(
      kb_.facts(), {}, conflict, kb_.cdds(),
      PositionSelection::kAllPositions);
  ASSERT_TRUE(question.ok());
  ASSERT_FALSE(question->fixes.empty());
  for (const Fix& fix : question->fixes) {
    FactBase applied = kb_.facts();
    ApplyFix(applied, fix);
    PositionSet pi_prime = {fix.position()};
    EXPECT_TRUE(
        repairability_->IsPiRepairable(applied, pi_prime).value())
        << fix.ToString(kb_.symbols(), kb_.facts());
  }
}

TEST_F(QuestionTest, FrozenPositionsAreExcluded) {
  Build(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  const Conflict conflict = FirstNaiveConflict();
  const PositionSet pi = {Position{0, 0}, Position{0, 1}};
  ASSERT_TRUE(repairability_->EnsureSkeleton(kb_.facts(), pi).ok());
  StatusOr<Question> question = generator_->SoundQuestion(
      kb_.facts(), pi, conflict, kb_.cdds(),
      PositionSelection::kAllPositions);
  ASSERT_TRUE(question.ok());
  for (const Fix& fix : question->fixes) {
    EXPECT_EQ(pi.count(fix.position()), 0u);
  }
  EXPECT_EQ(question->considered_positions.size(), 2u);  // q's positions
}

TEST_F(QuestionTest, Lemma43NonEmptyWhenPiRepairable) {
  Build(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  const Conflict conflict = FirstNaiveConflict();
  // Freeze everything except one join-side position: still repairable,
  // so the question must stay non-empty (Lemma 4.3).
  PositionSet pi;
  for (const Position& p : AllPositions(kb_.facts())) pi.insert(p);
  pi.erase(Position{1, 0});
  ASSERT_TRUE(repairability_->IsPiRepairable(kb_.facts(), pi).value());
  ASSERT_TRUE(repairability_->EnsureSkeleton(kb_.facts(), pi).ok());
  StatusOr<Question> question = generator_->SoundQuestion(
      kb_.facts(), pi, conflict, kb_.cdds(),
      PositionSelection::kAllPositions);
  ASSERT_TRUE(question.ok());
  EXPECT_FALSE(question->fixes.empty());
}

TEST_F(QuestionTest, EmptyWhenNotPiRepairable) {
  Build(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  const Conflict conflict = FirstNaiveConflict();
  // Freeze the joined pair: every fix must be filtered out.
  const PositionSet pi = {Position{0, 1}, Position{1, 0}};
  ASSERT_FALSE(repairability_->IsPiRepairable(kb_.facts(), pi).value());
  ASSERT_TRUE(repairability_->EnsureSkeleton(kb_.facts(), pi).ok());
  StatusOr<Question> question = generator_->SoundQuestion(
      kb_.facts(), pi, conflict, kb_.cdds(),
      PositionSelection::kAllPositions);
  ASSERT_TRUE(question.ok());
  EXPECT_TRUE(question->fixes.empty());
}

TEST_F(QuestionTest, UnsoundFixesAreFiltered) {
  // Two constraints: fixing p's join position to value c would join with
  // r and freeze into a *new* violation... build a case where a specific
  // active-domain value is unsound: p(a,b), q(b,d) conflict; position
  // (q,1) could take value e, but r(e-anchored) forbids q(e,*) when
  // s(e) exists and everything is frozen... Simpler concrete case:
  //   p(a,b), q(b,d), p(c,e), q(e,f) with CDD p(X,Y),q(Y,Z).
  // The conflict is (p(a,b), q(b,d)). Fix (q(b,d),1,e) makes q(e,d),
  // which joins p(c,e) -> new conflict, but that one is repairable
  // (other positions still free), so it is NOT filtered. To force
  // filtering we need the fix to make the KB un-Π'-repairable, which a
  // single mutable-rich KB rarely does; the canonical case is Π
  // freezing, covered above. Here we verify instrumentation counts.
  Build(R"(
    p(a, b). q(b, d). p(c, e). q(e, f).
    ! :- p(X, Y), q(Y, Z).
  )");
  const std::vector<Conflict> conflicts =
      finder_->NaiveConflicts(kb_.facts());
  ASSERT_EQ(conflicts.size(), 2u);
  ASSERT_TRUE(repairability_->EnsureSkeleton(kb_.facts(), {}).ok());
  StatusOr<Question> question = generator_->SoundQuestion(
      kb_.facts(), {}, conflicts[0], kb_.cdds(),
      PositionSelection::kAllPositions);
  ASSERT_TRUE(question.ok());
  EXPECT_GT(generator_->total_candidates(), 0u);
  // With Π = ∅ and no rule constants every candidate passes.
  EXPECT_EQ(generator_->total_filtered(), 0u);
  // The cross-value fix (q(b,d),1,e) is offered and indeed sound.
  const TermId e = kb_.symbols().FindTerm(TermKind::kConstant, "e");
  bool offered = false;
  for (const Fix& fix : question->fixes) {
    offered = offered || (fix.atom == 1 && fix.arg == 0 && fix.value == e);
  }
  EXPECT_TRUE(offered);
}

TEST_F(QuestionTest, ResolvingPositionsRestrictToJoinAndConstants) {
  Build(R"(
    u(m, a, v145). d(m, dec).
    ! :- u(X, Y, Z), d(X, W).
  )");
  const Conflict conflict = FirstNaiveConflict();
  const std::vector<Position> positions = generator_->RetrievePositions(
      kb_.facts(), conflict, kb_.cdds(),
      PositionSelection::kResolvingPositions);
  // Only the join positions (u,1) and (d,1) — the paper's isUrgent /
  // isDeferredTo example from Section 5.
  ASSERT_EQ(positions.size(), 2u);
  EXPECT_EQ(positions[0], (Position{0, 0}));
  EXPECT_EQ(positions[1], (Position{1, 0}));
}

TEST_F(QuestionTest, AllPositionsSelectionCoversSupport) {
  Build(R"(
    u(m, a, v145). d(m, dec).
    ! :- u(X, Y, Z), d(X, W).
  )");
  const Conflict conflict = FirstNaiveConflict();
  const std::vector<Position> positions = generator_->RetrievePositions(
      kb_.facts(), conflict, kb_.cdds(), PositionSelection::kAllPositions);
  EXPECT_EQ(positions.size(), 5u);
}

TEST_F(QuestionTest, RestrictToSinglePosition) {
  Build(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  const Conflict conflict = FirstNaiveConflict();
  ASSERT_TRUE(repairability_->EnsureSkeleton(kb_.facts(), {}).ok());
  StatusOr<Question> question = generator_->SoundQuestion(
      kb_.facts(), {}, conflict, kb_.cdds(),
      PositionSelection::kAllPositions, Position{0, 1});
  ASSERT_TRUE(question.ok());
  for (const Fix& fix : question->fixes) {
    EXPECT_EQ(fix.position(), (Position{0, 1}));
  }
  EXPECT_FALSE(question->fixes.empty());
}

TEST_F(QuestionTest, RestrictToForeignPositionYieldsEmpty) {
  Build(R"(
    p(a, b). q(b, d). r(x, y).
    ! :- p(X, Y), q(Y, Z).
  )");
  const Conflict conflict = FirstNaiveConflict();
  // Position of the r-atom is not part of the conflict.
  ASSERT_TRUE(repairability_->EnsureSkeleton(kb_.facts(), {}).ok());
  StatusOr<Question> question = generator_->SoundQuestion(
      kb_.facts(), {}, conflict, kb_.cdds(),
      PositionSelection::kAllPositions, Position{2, 0});
  ASSERT_TRUE(question.ok());
  EXPECT_TRUE(question->fixes.empty());
}

TEST_F(QuestionTest, ChaseConflictFallsBackToSupportPositions) {
  Build(R"(
    c0(a, b). other(a, b).
    c1(X, Y) :- c0(X, Y).
    ! :- c1(X, Y), other(X, Y).
  )");
  ConflictFinder finder(&kb_.symbols(), &kb_.tgds(), &kb_.cdds());
  StatusOr<std::vector<Conflict>> all = finder.AllConflicts(kb_.facts());
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  // Even under kResolvingPositions, a chase conflict (derived atoms in
  // its homomorphism) projects to all positions of the original support.
  const std::vector<Position> positions = generator_->RetrievePositions(
      kb_.facts(), all->front(), kb_.cdds(),
      PositionSelection::kResolvingPositions);
  EXPECT_EQ(positions.size(), 4u);  // c0's and other's two args each
}

}  // namespace
}  // namespace kbrepair
