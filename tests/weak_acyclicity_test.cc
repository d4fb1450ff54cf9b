#include "rules/weak_acyclicity.h"

#include <gtest/gtest.h>

#include <string>

#include "parser/dlgp_parser.h"
#include "rules/knowledge_base.h"

namespace kbrepair {
namespace {

class WeakAcyclicityTest : public ::testing::Test {
 protected:
  WeakAcyclicityTest() {
    p_ = symbols_.InternPredicate("p", 2);
    q_ = symbols_.InternPredicate("q", 2);
    r_ = symbols_.InternPredicate("r", 2);
    x_ = symbols_.InternVariable("X");
    y_ = symbols_.InternVariable("Y");
    z_ = symbols_.InternVariable("Z");
  }

  Tgd MakeTgd(std::vector<Atom> body, std::vector<Atom> head) {
    StatusOr<Tgd> tgd =
        Tgd::Create(std::move(body), std::move(head), symbols_);
    EXPECT_TRUE(tgd.ok()) << tgd.status();
    return std::move(tgd).value();
  }

  SymbolTable symbols_;
  PredicateId p_, q_, r_;
  TermId x_, y_, z_;
};

TEST_F(WeakAcyclicityTest, EmptySetIsWeaklyAcyclic) {
  EXPECT_TRUE(IsWeaklyAcyclic({}, symbols_));
}

TEST_F(WeakAcyclicityTest, FullTgdsAlwaysWeaklyAcyclic) {
  // No existentials, no special edges: p -> q -> p is fine.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {x_, y_})}));
  tgds.push_back(MakeTgd({Atom(q_, {x_, y_})}, {Atom(p_, {y_, x_})}));
  EXPECT_TRUE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, SelfFeedingExistentialIsRejected) {
  // p(X,Y) -> p(Y,Z): special edge into p's positions which feed back.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(p_, {y_, z_})}));
  EXPECT_FALSE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, ExistentialIntoFreshPredicateIsAccepted) {
  // p(X,Y) -> q(Y,Z): special edge ends in q, which feeds nothing.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {y_, z_})}));
  EXPECT_TRUE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, TwoRuleExistentialCycleIsRejected) {
  // p(X,Y) -> q(Y,Z) and q(X,Y) -> p(Y,Z): the classic ping-pong.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {y_, z_})}));
  tgds.push_back(MakeTgd({Atom(q_, {x_, y_})}, {Atom(p_, {y_, z_})}));
  EXPECT_FALSE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, LayeredExistentialChainIsAccepted) {
  // p -> q -> r with existentials, strictly layered: fine.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {y_, z_})}));
  tgds.push_back(MakeTgd({Atom(q_, {x_, y_})}, {Atom(r_, {y_, z_})}));
  EXPECT_TRUE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, RegularCycleWithoutSpecialEdgeIsAccepted) {
  // p(X,Y) -> q(X,Z) and q(X,Y) -> p(X,Y): the regular cycle
  // p.1 -> q.1 -> p.1 contains no special edge, and the special edge
  // p.1 *-> q.2 ends in q.2 -> p.2, a dead end (Y of the first rule does
  // not reach its head). Weakly acyclic: the restricted chase saturates.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {x_, z_})}));
  tgds.push_back(MakeTgd({Atom(q_, {x_, y_})}, {Atom(p_, {x_, y_})}));
  EXPECT_TRUE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, SpecialEdgeOnCycleIsRejected) {
  // p(X,Y) -> q(X,Z) and q(X,Y) -> p(Y,X): now q.2 feeds p.1, which is
  // on the special edge's source side — the null flows back into the
  // position that generates nulls: rejected.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {x_, z_})}));
  tgds.push_back(MakeTgd({Atom(q_, {x_, y_})}, {Atom(p_, {y_, x_})}));
  EXPECT_FALSE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, CheckWeaklyAcyclicReturnsStatus) {
  std::vector<Tgd> bad;
  bad.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(p_, {y_, z_})}));
  const Status status = CheckWeaklyAcyclic(bad, symbols_);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(CheckWeaklyAcyclic({}, symbols_).ok());
}

TEST_F(WeakAcyclicityTest, BodyOnlyVariablesCreateNoEdges) {
  // p(X,Y) -> q(X,X): Y is dropped; only X's positions matter.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {x_, x_})}));
  EXPECT_TRUE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST(WeakAcyclicityWideTest, ArgumentIndicesPast255KeepDistinctNodes) {
  // q(Z, X) :- p(V0, ..., V255, X) has one special edge, from (p, 256)
  // to (q, 0), and no cycle. p and q get adjacent predicate ids, so a
  // position key that keeps only 8 bits for the index merges the two
  // nodes into a special self-loop.
  std::string text = "p(";
  std::string body = "p(";
  for (int i = 0; i < 257; ++i) {
    const std::string index = std::to_string(i);
    text += (i > 0 ? ", a" : "a") + index;
    body += i < 256 ? "V" + index + ", " : "X";
  }
  text += ").\nq(b, c).\nq(Z, X) :- " + body + ").\n";
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  ASSERT_TRUE(kb.ok()) << kb.status();
  ASSERT_EQ(kb->tgds().size(), 1u);
  EXPECT_TRUE(kb->Validate().ok()) << kb->Validate();
}

}  // namespace
}  // namespace kbrepair
