#include "repair/cqa.h"

#include <gtest/gtest.h>

#include "parser/dlgp_parser.h"

namespace kbrepair {
namespace {

KnowledgeBase Parse(const std::string& text) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  EXPECT_TRUE(kb.ok()) << kb.status();
  return std::move(kb).value();
}

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

TEST(CqaTest, ConsistentKbHasSingleEmptyRepair) {
  KnowledgeBase kb = Parse("p(a, b). ! :- p(X, Y), p(Y, X).");
  StatusOr<std::vector<NullRepair>> repairs =
      EnumerateMinimalNullRepairs(kb);
  ASSERT_TRUE(repairs.ok());
  ASSERT_EQ(repairs->size(), 1u);
  EXPECT_TRUE(repairs->front().retracted.empty());
}

TEST(CqaTest, Figure1aRepairsRetractJoinSides) {
  // prescribed(aspirin,john) / hasAllergy(john,aspirin): the minimal
  // null-valued repairs each retract exactly one position breaking the
  // homomorphism — any one of the four join-participating positions.
  KnowledgeBase kb = Parse(R"(
    prescribed(aspirin, john).
    hasAllergy(john, aspirin).
    ! :- prescribed(X, Y), hasAllergy(Y, X).
  )");
  StatusOr<std::vector<NullRepair>> repairs =
      EnumerateMinimalNullRepairs(kb);
  ASSERT_TRUE(repairs.ok()) << repairs.status();
  ASSERT_EQ(repairs->size(), 4u);
  for (const NullRepair& repair : *repairs) {
    EXPECT_EQ(repair.retracted.size(), 1u);
  }
}

TEST(CqaTest, RepairsAreMinimal) {
  KnowledgeBase kb = Parse(R"(
    p(j, a). q(j, b).
    p(k, c). q(k, d).
    ! :- p(X, Y), q(X, Z).
  )");
  StatusOr<std::vector<NullRepair>> repairs =
      EnumerateMinimalNullRepairs(kb);
  ASSERT_TRUE(repairs.ok());
  // Two independent conflicts, each breakable at either of 2 join
  // positions: 2 x 2 = 4 minimal repairs, each retracting 2 positions.
  ASSERT_EQ(repairs->size(), 4u);
  for (const NullRepair& repair : *repairs) {
    EXPECT_EQ(repair.retracted.size(), 2u);
  }
  // No repair is a subset of another (antichain).
  for (size_t i = 0; i < repairs->size(); ++i) {
    for (size_t j = 0; j < repairs->size(); ++j) {
      if (i == j) continue;
      const auto& a = (*repairs)[i].retracted;
      const auto& b = (*repairs)[j].retracted;
      EXPECT_FALSE(std::includes(b.begin(), b.end(), a.begin(), a.end()));
    }
  }
}

TEST(CqaTest, RefusesOversizedEnumeration) {
  std::string text;
  for (int i = 0; i < 12; ++i) {
    text += "p(j, a" + std::to_string(i) + ").\n";
    text += "q(j, b" + std::to_string(i) + ").\n";
  }
  text += "! :- p(X, Y), q(X, Z).\n";
  KnowledgeBase kb = Parse(text);
  StatusOr<std::vector<NullRepair>> repairs =
      EnumerateMinimalNullRepairs(kb, /*max_positions=*/10);
  ASSERT_FALSE(repairs.ok());
  EXPECT_EQ(repairs.status().code(), StatusCode::kInvalidArgument);
}

TEST(CqaTest, RefusesSixtyFourCandidatesWhateverTheCap) {
  // 16 p-atoms x 16 q-atoms all join on j: 32 atoms, 64 candidate
  // positions. A cap of 64 admits them, but the subset masks are 64-bit
  // words, so the enumeration must refuse before building 2^64 masks.
  std::string text;
  for (int i = 0; i < 16; ++i) {
    const std::string index = std::to_string(i);
    text += "p(j, a" + index + ").\n";
    text += "q(j, b" + index + ").\n";
  }
  text += "! :- p(X, Y), q(X, Z).\n";
  KnowledgeBase kb = Parse(text);
  StatusOr<std::vector<NullRepair>> repairs =
      EnumerateMinimalNullRepairs(kb, /*max_positions=*/64);
  ASSERT_FALSE(repairs.ok());
  EXPECT_EQ(repairs.status().code(), StatusCode::kInvalidArgument);
}

TEST(CqaTest, ConsistentAnswersSurviveAllRepairs) {
  // mike's allergy is untouched by any repair of the john conflict:
  // the query ?(X) :- hasAllergy(X, penicillin) is consistently
  // answerable; john's aspirin allergy is only possible.
  KnowledgeBase kb = Parse(R"(
    prescribed(aspirin, john).
    hasAllergy(john, aspirin).
    hasAllergy(mike, penicillin).
    ! :- prescribed(X, Y), hasAllergy(Y, X).
  )");
  StatusOr<ConjunctiveQuery> who_allergic =
      ParseDlgpQuery("?(X, D) :- hasAllergy(X, D).", kb);
  ASSERT_TRUE(who_allergic.ok());
  StatusOr<CqaResult> result = CqaAnswers(*who_allergic, kb);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_repairs, 4u);

  const TermId mike = kb.symbols().FindTerm(TermKind::kConstant, "mike");
  const TermId penicillin =
      kb.symbols().FindTerm(TermKind::kConstant, "penicillin");
  const TermId john = kb.symbols().FindTerm(TermKind::kConstant, "john");
  const TermId aspirin =
      kb.symbols().FindTerm(TermKind::kConstant, "aspirin");

  const AnswerTuple mike_penicillin = {mike, penicillin};
  const AnswerTuple john_aspirin = {john, aspirin};
  EXPECT_TRUE(std::count(result->consistent_answers.begin(),
                         result->consistent_answers.end(),
                         mike_penicillin) == 1);
  EXPECT_TRUE(std::count(result->consistent_answers.begin(),
                         result->consistent_answers.end(),
                         john_aspirin) == 0);
  // (john, aspirin) holds in the repairs that retract prescribed's
  // positions, so it is possible but not consistent.
  EXPECT_TRUE(std::count(result->possible_answers.begin(),
                         result->possible_answers.end(),
                         john_aspirin) == 1);
}

TEST(CqaTest, ChaseAwareCqa) {
  // The conflict only exists through the TGD; CQA must chase inside
  // each repair.
  KnowledgeBase kb = Parse(R"(
    c0(a, b). other(a, b). safe(keep, me).
    c1(X, Y) :- c0(X, Y).
    ! :- c1(X, Y), other(X, Y).
  )");
  StatusOr<ConjunctiveQuery> query =
      ParseDlgpQuery("?(X) :- safe(X, me).", kb);
  ASSERT_TRUE(query.ok());
  StatusOr<CqaResult> result = CqaAnswers(*query, kb);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->num_repairs, 1u);
  ASSERT_EQ(result->consistent_answers.size(), 1u);
  EXPECT_EQ(kb.symbols().term_name(result->consistent_answers[0][0]),
            "keep");
}

TEST(CqaTest, OriginalFactsRestoredAfterCqa) {
  KnowledgeBase kb = Parse(R"(
    p(j, a). q(j, b).
    ! :- p(X, Y), q(X, Z).
  )");
  const std::string before = kb.facts().ToString(kb.symbols());
  StatusOr<ConjunctiveQuery> query = ParseDlgpQuery("?(X) :- p(X, Y).", kb);
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(CqaAnswers(*query, kb).ok());
  EXPECT_EQ(kb.facts().ToString(kb.symbols()), before);
}

TEST(CqaTest, ConsistentKbCqaEqualsCertainAnswers) {
  KnowledgeBase kb = Parse("p(a, b). p(c, d).");
  StatusOr<ConjunctiveQuery> query = ParseDlgpQuery("?(X) :- p(X, Y).", kb);
  ASSERT_TRUE(query.ok());
  StatusOr<CqaResult> result = CqaAnswers(*query, kb);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_repairs, 1u);
  EXPECT_EQ(result->consistent_answers.size(), 2u);
  EXPECT_TRUE(result->possible_answers.empty());
}

TEST(CqaTest, ExistentialChainCqa) {
  // Each conflict needs emp(X) (through the department null) and
  // banned(X); retracting either position breaks it. Two conflicts, two
  // candidate positions each: four minimal repairs of two positions.
  KnowledgeBase kb = Parse(kExistentialChain);
  StatusOr<ConjunctiveQuery> query =
      ParseDlgpQuery("?(X) :- emp(X).", kb);
  ASSERT_TRUE(query.ok());
  StatusOr<CqaResult> result = CqaAnswers(*query, kb);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_repairs, 4u);
  ASSERT_EQ(result->consistent_answers.size(), 1u);
  EXPECT_EQ(kb.symbols().term_name(result->consistent_answers[0][0]),
            "carol");
  // alice and bob keep their emp fact in the repairs that retract the
  // banned side instead.
  ASSERT_EQ(result->possible_answers.size(), 2u);
  EXPECT_EQ(kb.symbols().term_name(result->possible_answers[0][0]),
            "alice");
  EXPECT_EQ(kb.symbols().term_name(result->possible_answers[1][0]), "bob");
}

}  // namespace
}  // namespace kbrepair
