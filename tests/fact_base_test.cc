#include "kb/fact_base.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "parser/dlgp_parser.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

class FactBaseTest : public ::testing::Test {
 protected:
  FactBaseTest() {
    p_ = symbols_.InternPredicate("p", 2);
    q_ = symbols_.InternPredicate("q", 3);
    a_ = symbols_.InternConstant("a");
    b_ = symbols_.InternConstant("b");
    c_ = symbols_.InternConstant("c");
  }

  SymbolTable symbols_;
  FactBase facts_;
  PredicateId p_ = kInvalidPredicate;
  PredicateId q_ = kInvalidPredicate;
  TermId a_ = kInvalidTerm;
  TermId b_ = kInvalidTerm;
  TermId c_ = kInvalidTerm;
};

TEST_F(FactBaseTest, AddAssignsSequentialIds) {
  EXPECT_EQ(facts_.Add(Atom(p_, {a_, b_})), 0u);
  EXPECT_EQ(facts_.Add(Atom(p_, {b_, c_})), 1u);
  EXPECT_EQ(facts_.size(), 2u);
  EXPECT_EQ(facts_.atom(0).args[0], a_);
}

TEST_F(FactBaseTest, PredicateIndex) {
  facts_.Add(Atom(p_, {a_, b_}));
  facts_.Add(Atom(q_, {a_, b_, c_}));
  facts_.Add(Atom(p_, {c_, c_}));
  EXPECT_EQ(facts_.AtomsWithPredicate(p_).size(), 2u);
  EXPECT_EQ(facts_.AtomsWithPredicate(q_).size(), 1u);
  const PredicateId unused = symbols_.InternPredicate("r", 1);
  EXPECT_TRUE(facts_.AtomsWithPredicate(unused).empty());
}

TEST_F(FactBaseTest, ProbeIndexFindsAtomsByTermAtPosition) {
  const AtomId id0 = facts_.Add(Atom(p_, {a_, b_}));
  const AtomId id1 = facts_.Add(Atom(p_, {a_, c_}));
  facts_.Add(Atom(p_, {b_, a_}));
  const AtomSpan at0 = facts_.AtomsWithTermAt(p_, 0, a_);
  EXPECT_EQ(at0.size(), 2u);
  EXPECT_TRUE(std::find(at0.begin(), at0.end(), id0) != at0.end());
  EXPECT_TRUE(std::find(at0.begin(), at0.end(), id1) != at0.end());
  EXPECT_EQ(facts_.AtomsWithTermAt(p_, 1, a_).size(), 1u);
}

TEST_F(FactBaseTest, SetArgMaintainsIndexes) {
  const AtomId id = facts_.Add(Atom(p_, {a_, b_}));
  facts_.SetArg(id, 0, c_);
  EXPECT_EQ(facts_.atom(id).args[0], c_);
  EXPECT_TRUE(facts_.AtomsWithTermAt(p_, 0, a_).empty());
  EXPECT_EQ(facts_.AtomsWithTermAt(p_, 0, c_).size(), 1u);
}

TEST_F(FactBaseTest, SetArgSameValueIsNoOp) {
  const AtomId id = facts_.Add(Atom(p_, {a_, b_}));
  facts_.SetArg(id, 0, a_);
  EXPECT_EQ(facts_.AtomsWithTermAt(p_, 0, a_).size(), 1u);
}

TEST_F(FactBaseTest, ContainsChecksValueEquality) {
  facts_.Add(Atom(p_, {a_, b_}));
  EXPECT_TRUE(facts_.Contains(Atom(p_, {a_, b_})));
  EXPECT_FALSE(facts_.Contains(Atom(p_, {a_, c_})));
  EXPECT_FALSE(facts_.Contains(Atom(q_, {a_, b_, c_})));
}

TEST_F(FactBaseTest, ContainsAfterUpdate) {
  const AtomId id = facts_.Add(Atom(p_, {a_, b_}));
  facts_.SetArg(id, 1, c_);
  EXPECT_FALSE(facts_.Contains(Atom(p_, {a_, b_})));
  EXPECT_TRUE(facts_.Contains(Atom(p_, {a_, c_})));
}

TEST_F(FactBaseTest, ActiveDomainIsDistinctAndSorted) {
  facts_.Add(Atom(p_, {a_, b_}));
  facts_.Add(Atom(p_, {a_, c_}));
  facts_.Add(Atom(p_, {b_, c_}));
  const std::vector<TermId> domain = facts_.ActiveDomain(p_, 0);
  ASSERT_EQ(domain.size(), 2u);
  EXPECT_TRUE(std::is_sorted(domain.begin(), domain.end()));
  EXPECT_TRUE(std::binary_search(domain.begin(), domain.end(), a_));
  EXPECT_TRUE(std::binary_search(domain.begin(), domain.end(), b_));
}

TEST_F(FactBaseTest, ActiveDomainOfEmptyPredicate) {
  EXPECT_TRUE(facts_.ActiveDomain(p_, 0).empty());
}

TEST_F(FactBaseTest, TermUseCountTracksOccurrences) {
  EXPECT_EQ(facts_.TermUseCount(a_), 0u);
  const AtomId id = facts_.Add(Atom(p_, {a_, a_}));
  EXPECT_EQ(facts_.TermUseCount(a_), 2u);
  facts_.SetArg(id, 0, b_);
  EXPECT_EQ(facts_.TermUseCount(a_), 1u);
  EXPECT_EQ(facts_.TermUseCount(b_), 1u);
  facts_.SetArg(id, 1, b_);
  EXPECT_EQ(facts_.TermUseCount(a_), 0u);
  EXPECT_EQ(facts_.TermUseCount(b_), 2u);
}

TEST_F(FactBaseTest, NumPositionsSumsArities) {
  facts_.Add(Atom(p_, {a_, b_}));
  facts_.Add(Atom(q_, {a_, b_, c_}));
  EXPECT_EQ(facts_.NumPositions(), 5u);
}

TEST_F(FactBaseTest, CopyIsIndependent) {
  const AtomId id = facts_.Add(Atom(p_, {a_, b_}));
  FactBase copy = facts_;
  copy.SetArg(id, 0, c_);
  EXPECT_EQ(facts_.atom(id).args[0], a_);
  EXPECT_EQ(copy.atom(id).args[0], c_);
  EXPECT_EQ(facts_.AtomsWithTermAt(p_, 0, a_).size(), 1u);
  EXPECT_TRUE(copy.AtomsWithTermAt(p_, 0, a_).empty());
}

TEST_F(FactBaseTest, DuplicateValueAtomsKeepDistinctIdentity) {
  const AtomId id0 = facts_.Add(Atom(p_, {a_, b_}));
  const AtomId id1 = facts_.Add(Atom(p_, {a_, b_}));
  EXPECT_NE(id0, id1);
  EXPECT_EQ(facts_.AtomsWithTermAt(p_, 0, a_).size(), 2u);
  EXPECT_EQ(facts_.TermUseCount(a_), 2u);
}

TEST_F(FactBaseTest, ToStringListsAtoms) {
  facts_.Add(Atom(p_, {a_, b_}));
  EXPECT_EQ(facts_.ToString(symbols_), "p(a,b)\n");
}

// Probe keys keep the position at full width: position 16 of one
// predicate must not alias position 0 of the next predicate's id.
TEST(FactBaseProbeKeyTest, WideArityProbesStayDistinct) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(
      "p(a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,a,b). q(b,c).");
  ASSERT_TRUE(kb.ok()) << kb.status();
  const SymbolTable& symbols = kb->symbols();
  const FactBase& facts = kb->facts();
  const PredicateId p = symbols.FindPredicate("p");
  const PredicateId q = symbols.FindPredicate("q");
  const TermId b = symbols.FindTerm(TermKind::kConstant, "b");
  ASSERT_EQ(symbols.predicate_arity(p), 17);
  const AtomSpan wide = facts.AtomsWithTermAt(p, 16, b);
  EXPECT_EQ(std::vector<AtomId>(wide.begin(), wide.end()),
            std::vector<AtomId>{0});
  const AtomSpan narrow = facts.AtomsWithTermAt(q, 0, b);
  EXPECT_EQ(std::vector<AtomId>(narrow.begin(), narrow.end()),
            std::vector<AtomId>{1});
  EXPECT_TRUE(facts.AtomsWithTermAt(p, 0, b).empty());
  EXPECT_TRUE(facts.AtomsWithTermAt(q, 16, b).empty());
}

// --- Randomized index invariants vs. a naive rescan model ---------------
//
// The secondary indexes (predicate scan lists, (pred,pos,term) probe
// lists, term use counts) must stay exactly consistent with a brute
// rescan of the live atoms under arbitrary Add/SetArg/Remove sequences —
// on a plain FactBase and, critically, on a delta overlay over a frozen
// shared base, where every mutation shadows shared posting lists.

struct IndexModel {
  std::vector<Atom> atoms;   // last value per id, dead or alive
  std::vector<bool> alive;
};

// Asserts every index answer equals the naive model rescan and that no
// tombstoned id ever escapes an index.
void CheckIndexesAgainstModel(const FactBase& facts, const IndexModel& model,
                              const std::vector<PredicateId>& predicates,
                              const std::vector<TermId>& terms,
                              const SymbolTable& symbols) {
  ASSERT_EQ(facts.size(), model.atoms.size());
  size_t live = 0;
  for (bool a : model.alive) live += a ? 1 : 0;
  ASSERT_EQ(facts.num_alive(), live);

  for (AtomId id = 0; id < model.atoms.size(); ++id) {
    ASSERT_EQ(facts.alive(id), static_cast<bool>(model.alive[id]))
        << "atom " << id;
    // Dead or alive, atom(id) returns the last value (provenance).
    ASSERT_EQ(facts.atom(id), model.atoms[id]) << "atom " << id;
  }

  for (const PredicateId pred : predicates) {
    std::vector<AtomId> expected;
    for (AtomId id = 0; id < model.atoms.size(); ++id) {
      if (model.alive[id] && model.atoms[id].predicate == pred) {
        expected.push_back(id);
      }
    }
    const AtomSpan scan = facts.AtomsWithPredicate(pred);
    std::vector<AtomId> got(scan.begin(), scan.end());
    for (const AtomId id : got) {
      ASSERT_TRUE(model.alive[id])
          << "tombstoned atom " << id << " leaked from the predicate index";
    }
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(got, expected) << "predicate scan list diverged for "
                             << symbols.predicate_name(pred);

    // Probe lists for every (pos, term) against this predicate,
    // including terms that never appear there (must be empty).
    for (int pos = 0; pos < symbols.predicate_arity(pred); ++pos) {
      for (const TermId term : terms) {
        std::vector<AtomId> probe_expected;
        for (AtomId id = 0; id < model.atoms.size(); ++id) {
          if (model.alive[id] && model.atoms[id].predicate == pred &&
              model.atoms[id].args[static_cast<size_t>(pos)] == term) {
            probe_expected.push_back(id);
          }
        }
        const AtomSpan probe_span = facts.AtomsWithTermAt(pred, pos, term);
        std::vector<AtomId> probe(probe_span.begin(), probe_span.end());
        for (const AtomId id : probe) {
          ASSERT_TRUE(model.alive[id])
              << "tombstoned atom " << id << " leaked from the probe index";
        }
        std::sort(probe.begin(), probe.end());
        std::sort(probe_expected.begin(), probe_expected.end());
        ASSERT_EQ(probe, probe_expected)
            << "probe list diverged at (" << symbols.predicate_name(pred)
            << "," << pos << "," << symbols.term_name(term) << ")";
      }
    }

    // Active domains are the distinct sorted live values.
    for (int pos = 0; pos < symbols.predicate_arity(pred); ++pos) {
      std::set<TermId> domain_expected;
      for (AtomId id = 0; id < model.atoms.size(); ++id) {
        if (model.alive[id] && model.atoms[id].predicate == pred) {
          domain_expected.insert(
              model.atoms[id].args[static_cast<size_t>(pos)]);
        }
      }
      const std::vector<TermId> domain = facts.ActiveDomain(pred, pos);
      ASSERT_EQ(std::vector<TermId>(domain_expected.begin(),
                                    domain_expected.end()),
                domain);
    }
  }

  for (const TermId term : terms) {
    size_t expected = 0;
    for (AtomId id = 0; id < model.atoms.size(); ++id) {
      if (!model.alive[id]) continue;
      for (const TermId arg : model.atoms[id].args) {
        if (arg == term) ++expected;
      }
    }
    ASSERT_EQ(facts.TermUseCount(term), expected)
        << "use count diverged for " << symbols.term_name(term);
  }
}

struct RandomOpsFixture {
  SymbolTable symbols;
  std::vector<PredicateId> predicates;
  std::vector<TermId> terms;

  RandomOpsFixture() {
    // Interned first, so its position 16 sits next to p0's position 0
    // in any key that packs the position into too few bits.
    predicates.push_back(symbols.InternPredicate("wide", 17));
    for (int p = 0; p < 4; ++p) {
      const std::string index = std::to_string(p);
      predicates.push_back(symbols.InternPredicate("p" + index, 1 + p % 3));
    }
    for (int c = 0; c < 6; ++c) {
      const std::string index = std::to_string(c);
      terms.push_back(symbols.InternConstant("c" + index));
    }
  }

  Atom RandomAtom(Rng& rng) const {
    const PredicateId pred = rng.Choose(predicates);
    std::vector<TermId> args;
    for (int a = 0; a < symbols.predicate_arity(pred); ++a) {
      args.push_back(rng.Choose(terms));
    }
    return Atom(pred, std::move(args));
  }

  // One random mutation applied to both the fact base and the model.
  void Step(FactBase& facts, IndexModel& model, Rng& rng) const {
    std::vector<AtomId> live;
    for (AtomId id = 0; id < model.atoms.size(); ++id) {
      if (model.alive[id]) live.push_back(id);
    }
    const size_t op = rng.UniformIndex(4);
    if (op == 0 || live.empty()) {
      const Atom atom = RandomAtom(rng);
      const AtomId id = facts.Add(atom);
      ASSERT_EQ(id, model.atoms.size());
      model.atoms.push_back(atom);
      model.alive.push_back(true);
    } else if (op == 1 || op == 2) {  // rewrites dominate, like repairs
      const AtomId id = live[rng.UniformIndex(live.size())];
      const int pos = static_cast<int>(
          rng.UniformIndex(model.atoms[id].args.size()));
      const TermId value = rng.Choose(terms);
      facts.SetArg(id, pos, value);
      model.atoms[id].args[static_cast<size_t>(pos)] = value;
    } else {
      const AtomId id = live[rng.UniformIndex(live.size())];
      facts.Remove(id);
      model.alive[id] = false;
    }
  }
};

class FactBaseIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FactBaseIndexProperty, PlainBaseMatchesNaiveRescan) {
  RandomOpsFixture fixture;
  Rng rng(GetParam() * 977 + 11);
  FactBase facts;
  IndexModel model;
  for (int op = 0; op < 120; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    fixture.Step(facts, model, rng);
    if (op % 10 == 9) {
      CheckIndexesAgainstModel(facts, model, fixture.predicates,
                               fixture.terms, fixture.symbols);
    }
  }
  CheckIndexesAgainstModel(facts, model, fixture.predicates, fixture.terms,
                           fixture.symbols);
}

TEST_P(FactBaseIndexProperty, ForkedOverlayMatchesNaiveRescan) {
  RandomOpsFixture fixture;
  Rng rng(GetParam() * 1009 + 3);

  // Build a shared base, freeze it, then mutate a fork: every index
  // answer must shadow the frozen posting lists correctly.
  FactBase base;
  IndexModel model;
  for (int i = 0; i < 40; ++i) {
    const Atom atom = fixture.RandomAtom(rng);
    base.Add(atom);
    model.atoms.push_back(atom);
    model.alive.push_back(true);
  }
  base.FreezeSharedBase();
  ASSERT_TRUE(base.has_shared_base());

  FactBase fork = base;  // O(delta) copy sharing the frozen segment
  IndexModel fork_model = model;
  for (int op = 0; op < 120; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    fixture.Step(fork, fork_model, rng);
    if (op % 10 == 9) {
      CheckIndexesAgainstModel(fork, fork_model, fixture.predicates,
                               fixture.terms, fixture.symbols);
    }
  }
  CheckIndexesAgainstModel(fork, fork_model, fixture.predicates,
                           fixture.terms, fixture.symbols);

  // The frozen base never saw any of it.
  CheckIndexesAgainstModel(base, model, fixture.predicates, fixture.terms,
                           fixture.symbols);
}

TEST_P(FactBaseIndexProperty, SiblingForksAreIndependent) {
  RandomOpsFixture fixture;
  Rng rng(GetParam() * 31 + 7);

  FactBase base;
  IndexModel model;
  for (int i = 0; i < 30; ++i) {
    const Atom atom = fixture.RandomAtom(rng);
    base.Add(atom);
    model.atoms.push_back(atom);
    model.alive.push_back(true);
  }
  base.FreezeSharedBase();

  FactBase fork_a = base;
  FactBase fork_b = base;
  IndexModel model_a = model;
  IndexModel model_b = model;
  // Interleave divergent mutations; neither fork may observe the other.
  Rng rng_a(GetParam() * 53 + 1);
  Rng rng_b(GetParam() * 71 + 2);
  for (int op = 0; op < 60; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    fixture.Step(fork_a, model_a, rng_a);
    fixture.Step(fork_b, model_b, rng_b);
  }
  CheckIndexesAgainstModel(fork_a, model_a, fixture.predicates,
                           fixture.terms, fixture.symbols);
  CheckIndexesAgainstModel(fork_b, model_b, fixture.predicates,
                           fixture.terms, fixture.symbols);
  CheckIndexesAgainstModel(base, model, fixture.predicates, fixture.terms,
                           fixture.symbols);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FactBaseIndexProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// Freezing packs posting lists into the frozen base table; reads must
// return the exact same id sequences before and after (candidate
// enumeration order is observable in chase transcripts).
TEST_F(FactBaseTest, FreezePreservesPostingListOrder) {
  facts_.Add(Atom(p_, {a_, b_}));
  facts_.Add(Atom(q_, {a_, b_, c_}));
  facts_.Add(Atom(p_, {a_, c_}));
  facts_.Add(Atom(p_, {b_, a_}));

  const AtomSpan pred_before = facts_.AtomsWithPredicate(p_);
  const std::vector<AtomId> pred_order(pred_before.begin(),
                                       pred_before.end());
  const AtomSpan probe_before = facts_.AtomsWithTermAt(p_, 0, a_);
  const std::vector<AtomId> probe_order(probe_before.begin(),
                                        probe_before.end());

  facts_.FreezeSharedBase();
  ASSERT_TRUE(facts_.has_shared_base());
  EXPECT_EQ(facts_.overlay_size(), 0u);

  const AtomSpan pred_after = facts_.AtomsWithPredicate(p_);
  EXPECT_EQ(std::vector<AtomId>(pred_after.begin(), pred_after.end()),
            pred_order);
  const AtomSpan probe_after = facts_.AtomsWithTermAt(p_, 0, a_);
  EXPECT_EQ(std::vector<AtomId>(probe_after.begin(), probe_after.end()),
            probe_order);

  // A fork's first mutation shadows the frozen slice without disturbing
  // the prototype's columns.
  FactBase fork = facts_;
  fork.SetArg(0, 0, c_);
  const AtomSpan base_probe = facts_.AtomsWithTermAt(p_, 0, a_);
  EXPECT_EQ(std::vector<AtomId>(base_probe.begin(), base_probe.end()),
            probe_order);
  EXPECT_EQ(fork.AtomsWithTermAt(p_, 0, c_).size(), 1u);
  EXPECT_EQ(fork.AtomsWithTermAt(p_, 0, a_).size(), 1u);
}

// A random DLGP fact text: `num_atoms` atoms over 12 predicates of arity
// 1-4 and 300 constants and nulls, some statements with several atoms.
std::string RandomFactText(Rng& rng, int num_atoms) {
  std::string text;
  for (int i = 0; i < num_atoms; ++i) {
    const int pred = static_cast<int>(rng.UniformIndex(12));
    text += 'p';
    text += std::to_string(pred);
    text += '(';
    for (int pos = 0; pos <= pred % 4; ++pos) {
      if (pos > 0) text += ", ";
      const size_t term = rng.UniformIndex(300);
      text += term % 7 == 0 ? "_n" : "c";
      text += std::to_string(term);
    }
    text += rng.UniformIndex(4) == 0 ? "), " : ").\n";
  }
  return text + "p0(c0).\n";
}

// Every read of `facts` over `symbols`, in id and posting-list order.
std::string Dump(const FactBase& facts, const SymbolTable& symbols) {
  std::string out;
  for (TermId term = 0; term < static_cast<TermId>(symbols.num_terms());
       ++term) {
    out += symbols.term_name(term);
    out += '#';
    out += std::to_string(facts.TermUseCount(term));
    out += ' ';
  }
  for (PredicateId pred = 0;
       pred < static_cast<PredicateId>(symbols.num_predicates()); ++pred) {
    out += '\n';
    out += symbols.predicate_name(pred);
    out += ':';
    for (const AtomId id : facts.AtomsWithPredicate(pred)) {
      out += ' ';
      out += std::to_string(id);
    }
  }
  for (AtomId id = 0; id < facts.size(); ++id) {
    const Atom& atom = facts.atom(id);
    out += '\n';
    out += atom.ToString(symbols);
    out += " ->";
    for (int pos = 0; pos < atom.arity(); ++pos) {
      out += " [";
      for (const AtomId other : facts.AtomsWithTermAt(
               atom.predicate, pos, atom.args[static_cast<size_t>(pos)])) {
        out += ' ';
        out += std::to_string(other);
      }
      out += " ]";
    }
  }
  return out;
}

// ParseDlgp sizes the tables of its empty KB from the text before the
// load; ParseDlgpInto into a KB that already holds a statement grows
// them step by step. Both must give the same term ids, posting-list
// order, use counts and ContentHash, and so must the frozen result, its
// forks and the same text loaded straight into a reserved FactBase.
TEST(FactBaseLoadTest, PresizedAndUnreservedLoadsAgree) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7727);
    const std::string text =
        RandomFactText(rng, 200 + static_cast<int>(seed) * 400);
    const size_t first_statement = text.find(".\n") + 2;

    StatusOr<KnowledgeBase> presized = ParseDlgp(text);
    ASSERT_TRUE(presized.ok()) << presized.status();
    KnowledgeBase unreserved;
    ASSERT_TRUE(
        ParseDlgpInto(text.substr(0, first_statement), unreserved).ok());
    ASSERT_TRUE(ParseDlgpInto(text.substr(first_statement), unreserved).ok());

    const FactBase& frozen = presized->facts();
    EXPECT_TRUE(frozen.has_shared_base());
    EXPECT_EQ(frozen.overlay_size(), 0u);
    EXPECT_FALSE(unreserved.facts().has_shared_base());
    const std::string expected =
        Dump(unreserved.facts(), unreserved.symbols());
    ASSERT_EQ(Dump(frozen, presized->symbols()), expected);
    EXPECT_EQ(frozen.ContentHash(presized->symbols()),
              unreserved.facts().ContentHash(unreserved.symbols()));

    // The same atoms added to a reserved and an unreserved FactBase,
    // then frozen: the reserved one's tables are adopted, the other's
    // repacked where they are more than half full.
    FactBase reserved;
    reserved.Reserve(frozen.size(), frozen.NumPositions());
    FactBase plain;
    for (AtomId id = 0; id < frozen.size(); ++id) {
      reserved.Add(frozen.atom(id));
      plain.Add(frozen.atom(id));
    }
    ASSERT_EQ(Dump(reserved, presized->symbols()), expected);
    reserved.FreezeSharedBase();
    plain.FreezeSharedBase();
    ASSERT_EQ(Dump(reserved, presized->symbols()), expected);
    ASSERT_EQ(Dump(plain, presized->symbols()), expected);

    // Freezing again leaves the frozen base as it is.
    const AtomSpan before = reserved.AtomsWithPredicate(0);
    reserved.FreezeSharedBase();
    EXPECT_EQ(reserved.AtomsWithPredicate(0).ptr, before.ptr);

    // Forks of every frozen copy take the same rewrites alike.
    FactBase forks[] = {frozen, reserved, plain, unreserved.facts()};
    const TermId fresh = presized->symbols().MakeFreshNull();
    ASSERT_EQ(unreserved.symbols().MakeFreshNull(), fresh);
    for (FactBase& fork : forks) {
      for (AtomId id = 0; id < fork.size(); id += 5) {
        fork.SetArg(id, 0, fresh);
      }
      Atom added = frozen.atom(0);
      added.args.assign(added.args.size(), fresh);
      fork.Add(std::move(added));
    }
    const std::string forked = Dump(forks[3], unreserved.symbols());
    for (const FactBase& fork : forks) {
      ASSERT_EQ(Dump(fork, presized->symbols()), forked);
    }
    // The forks left the parsed base alone.
    ASSERT_EQ(Dump(frozen, presized->symbols()),
              Dump(unreserved.facts(), unreserved.symbols()));
  }
}

// Use counts are dense per TermId: a fork copies only the counts it
// changes, counts terms interned after the freeze, and leaves the
// prototype's counts alone.
TEST_F(FactBaseTest, TermUseCountsUnderForking) {
  facts_.Add(Atom(p_, {a_, b_}));
  facts_.Add(Atom(p_, {a_, a_}));
  facts_.FreezeSharedBase();
  EXPECT_EQ(facts_.overlay_size(), 0u);

  FactBase fork = facts_;
  EXPECT_EQ(fork.overlay_size(), 0u);
  EXPECT_EQ(fork.TermUseCount(a_), 3u);
  EXPECT_EQ(fork.TermUseCount(c_), 0u);  // interned, never used
  fork.SetArg(1, 1, c_);
  const TermId late = symbols_.InternConstant("interned-after-freeze");
  EXPECT_EQ(fork.TermUseCount(late), 0u);  // past the counted ids
  fork.Add(Atom(p_, {late, late}));
  EXPECT_EQ(fork.TermUseCount(a_), 2u);
  EXPECT_EQ(fork.TermUseCount(c_), 1u);
  EXPECT_EQ(fork.TermUseCount(late), 2u);
  fork.Remove(2);
  EXPECT_EQ(fork.TermUseCount(late), 0u);

  EXPECT_EQ(facts_.TermUseCount(a_), 3u);
  EXPECT_EQ(facts_.TermUseCount(c_), 0u);
  EXPECT_EQ(facts_.TermUseCount(late), 0u);
  EXPECT_EQ(facts_.overlay_size(), 0u);
}

// Four threads fork one frozen base and read it through their forks
// while each rewrites its own overlay; the base is shared, never written.
// Run under TSan in CI.
TEST(FactBaseConcurrencyTest, SiblingForksReadOneFrozenBase) {
  const RandomOpsFixture fixture;
  Rng rng(2024);
  FactBase base;
  IndexModel model;
  for (int i = 0; i < 300; ++i) {
    const Atom atom = fixture.RandomAtom(rng);
    base.Add(atom);
    model.atoms.push_back(atom);
    model.alive.push_back(true);
  }
  base.FreezeSharedBase();

  std::vector<std::thread> readers;
  for (uint64_t t = 0; t < 4; ++t) {
    readers.emplace_back([&fixture, &base, &model, t] {
      FactBase fork = base;
      IndexModel fork_model = model;
      Rng fork_rng(t * 97 + 13);
      for (int op = 0; op < 150; ++op) {
        fixture.Step(fork, fork_model, fork_rng);
        if (op % 50 == 49) {
          CheckIndexesAgainstModel(fork, fork_model, fixture.predicates,
                                   fixture.terms, fixture.symbols);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  CheckIndexesAgainstModel(base, model, fixture.predicates, fixture.terms,
                           fixture.symbols);
}

TEST(AtomTest, EqualityAndHash) {
  SymbolTable symbols;
  const PredicateId p = symbols.InternPredicate("p", 2);
  const TermId a = symbols.InternConstant("a");
  const TermId b = symbols.InternConstant("b");
  const Atom x(p, {a, b});
  const Atom y(p, {a, b});
  const Atom z(p, {b, a});
  EXPECT_EQ(x, y);
  EXPECT_NE(x, z);
  AtomHash hash;
  EXPECT_EQ(hash(x), hash(y));
}

TEST(AtomTest, SubstituteTerms) {
  SymbolTable symbols;
  const PredicateId p = symbols.InternPredicate("p", 2);
  const TermId x = symbols.InternVariable("X");
  const TermId a = symbols.InternConstant("a");
  const TermId b = symbols.InternConstant("b");
  const Atom atom(p, {x, b});
  const Atom mapped =
      SubstituteTerms(atom, std::vector<Binding>{{x, a}});
  EXPECT_EQ(mapped, Atom(p, {a, b}));
  // Unmapped terms pass through.
  const Atom unchanged =
      SubstituteTerms(atom, std::vector<Binding>{{a, b}});
  EXPECT_EQ(unchanged, atom);
}

}  // namespace
}  // namespace kbrepair
