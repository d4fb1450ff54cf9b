// Fuzz-style corpus test for the DLGP parser and everything downstream
// of a successful parse: printing must round-trip to a fixpoint, and the
// parsed KB must survive the index-driven paths (FactBase postings,
// HomomorphismFinder, naive conflicts, full and incremental chase)
// without tripping an assertion — whatever the input looked like.
//
// Two layers:
//   * a hand-built corpus of adversarial inputs — truncated atoms,
//     duplicate facts, max-arity predicates, quoted strings, labeled
//     nulls, stray tokens — where we also pin down ok/error;
//   * seeded random fragment soup, where the only contract is
//     "no crash; if it parses, it round-trips and chases".

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chase/incremental_chase.h"
#include "kb/homomorphism.h"
#include "parser/dlgp_parser.h"
#include "repair/conflict.h"
#include "support/conflict_finder.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

// Exercises every index path the parser output feeds: print/reparse
// fixpoint, homomorphism queries over the postings, the naive conflict
// census, and (when the rules validate) a full chase that saturates or
// stops cleanly at the atom cap.
void ExerciseParsedKb(const KnowledgeBase& kb, const std::string& input) {
  const std::string printed = PrintDlgp(kb);
  StatusOr<KnowledgeBase> reparsed = ParseDlgp(printed);
  ASSERT_TRUE(reparsed.ok())
      << "printed form failed to reparse for input <" << input
      << ">: " << reparsed.status() << "\nprinted:\n"
      << printed;
  EXPECT_EQ(PrintDlgp(*reparsed), printed)
      << "print/parse/print not a fixpoint for input <" << input << ">";
  EXPECT_EQ(reparsed->facts().size(), kb.facts().size());
  EXPECT_EQ(reparsed->tgds().size(), kb.tgds().size());
  EXPECT_EQ(reparsed->cdds().size(), kb.cdds().size());

  // Index-driven lookups: query every fact against the base it lives in.
  // A KnowledgeBase is immutable here, so copy what the finder needs.
  KnowledgeBase& mutable_kb = const_cast<KnowledgeBase&>(kb);
  HomomorphismFinder finder(&mutable_kb.symbols(), &kb.facts());
  for (AtomId id = 0; id < kb.facts().size(); ++id) {
    EXPECT_TRUE(finder.FindFirst({kb.facts().atom(id)}).has_value());
  }

  ConflictFinder conflict_finder(&mutable_kb.symbols(), &kb.tgds(),
                                 &kb.cdds());
  (void)conflict_finder.NaiveConflicts(kb.facts());

  // Chase only rule sets that pass the standing assumptions (weak
  // acyclicity); random soup can produce divergent rules, and the atom
  // cap turns those into a clean Internal status rather than a hang.
  if (!kb.Validate().ok()) return;
  ChaseOptions options;
  options.max_atoms = 20000;
  IncrementalChase chased(&mutable_kb.symbols(), &kb.tgds(), options);
  const Status status = chased.Initialize(kb.facts());
  ASSERT_TRUE(status.ok() || status.code() == StatusCode::kInternal)
      << "for input <" << input << ">: " << status;
  if (status.ok()) {
    EXPECT_EQ(chased.facts().num_alive(), chased.facts().size())
        << "a full chase tombstoned atoms for input <" << input << ">";
  }
}

struct CorpusCase {
  const char* input;
  bool expect_ok;
};

TEST(ParserFuzzTest, AdversarialCorpus) {
  const CorpusCase corpus[] = {
      // Well-formed baseline.
      {"p(a, b). q(c).", true},
      // Duplicate facts: both survive parsing (dedup is repair's job).
      {"p(a, b). p(a, b). p(a, b).", true},
      // Max-arity predicate and single-character terms.
      {"wide(a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p).", true},
      // Same predicate name at different arities is rejected: predicates
      // have one fixed arity in this dialect.
      {"p(a). p(a, b). p(a, b, c).", false},
      // Quoted constants, including uppercase-initial and spaces.
      {"p(\"Aspirin\", \"durum wheat\").", true},
      // Labeled nulls in facts, shared across atoms.
      {"p(a, _N1). q(_N1, _N2).", true},
      // Comments everywhere.
      {"% leading\np(a, b). % trailing\n% full line\nq(c).", true},
      // Rules next to facts, multi-head, existentials, equality CDDs.
      {"p(a, b). q(X, Z) :- p(X, Y). ! :- p(X, Y), q(Y, X).", true},
      {"h1(X, Y), h2(Y, X) :- b(X, Y). b(c, d).", true},
      {"! :- p(X, Y), q(Z, W), Y = Z. p(a, b). q(b, c).", true},
      // Whitespace soup.
      {"  p(  a ,\tb )\n.\n\n q(c)  .", true},
      // Empty and comment-only inputs parse to empty KBs.
      {"", true},
      {"% nothing here\n", true},
      // Truncated atoms: every prefix of a valid statement.
      {"p", false},
      {"p(", false},
      {"p(a", false},
      {"p(a,", false},
      {"p(a, b", false},
      {"p(a, b)", false},  // missing final '.'
      // Truncated rules.
      {"q(X) :-", false},
      {"q(X) :- p(X, Y", false},
      {"! :-", false},
      {"! :- p(X, Y)", false},  // missing final '.'
      // Malformed tokens and structure.
      {"p(a,, b).", false},
      {"p().", false},
      {"(a, b).", false},
      {"p(a) q(b).", false},
      {".", false},
      {"p(a, b)..", false},
      {"\"unterminated(a).", false},
      {"p(a, \"b).", false},
      // Variables are not terms in fact context: parses as a rule-free
      // statement of constants? No — uppercase in fact context is a
      // constant by convention, so this is fine.
      {"p(Aspirin, John).", true},
  };
  for (const CorpusCase& entry : corpus) {
    SCOPED_TRACE(std::string("input <") + entry.input + ">");
    StatusOr<KnowledgeBase> kb = ParseDlgp(entry.input);
    EXPECT_EQ(kb.ok(), entry.expect_ok) << kb.status();
    if (kb.ok()) ExerciseParsedKb(*kb, entry.input);
  }
}

// Builds plausible-but-random DLGP text from a fragment alphabet. Biased
// toward near-valid statements so a healthy share parses and reaches the
// round-trip and chase checks.
std::string RandomSoup(Rng& rng) {
  static const char* kFragments[] = {
      "p",  "q",   "r",    "wide", "(",  ")",  ",",  ".",  " ",  "\n",
      "a",  "b",   "c",    "_N1",  "_N2", "X",  "Y",  "Z",  ":-", "!",
      "=",  "\"s\"", "% c\n", "\t",
  };
  // All q occurrences are binary: the parser enforces one arity per
  // predicate, so a unary q(c) would poison every soup that also draws a
  // q rule.
  static const char* kStatements[] = {
      "p(a, b). ",
      "q(c, d). ",
      "wide(a,b,c,d). ",
      "p(a, _N1). ",
      "q(X, Z) :- p(X, Y). ",
      "r(X) :- q(X, Y). ",
      "! :- p(X, Y), q(Y, X). ",
      "! :- r(X), r(Y), X = Y. ",
  };
  std::string out;
  const size_t pieces = 1 + rng.UniformIndex(8);
  for (size_t i = 0; i < pieces; ++i) {
    if (rng.Bernoulli(0.85)) {
      out += kStatements[rng.UniformIndex(std::size(kStatements))];
    } else {
      const size_t tokens = 1 + rng.UniformIndex(6);
      for (size_t t = 0; t < tokens; ++t) {
        out += kFragments[rng.UniformIndex(std::size(kFragments))];
      }
    }
  }
  return out;
}

TEST(ParserFuzzTest, RandomFragmentSoup) {
  size_t parsed_ok = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 2654435761u);
    const std::string input = RandomSoup(rng);
    StatusOr<KnowledgeBase> kb = ParseDlgp(input);
    if (!kb.ok()) continue;
    ++parsed_ok;
    ExerciseParsedKb(*kb, input);
  }
  // The soup is biased toward valid statements; if almost nothing
  // parses, the generator (or the parser) regressed.
  EXPECT_GT(parsed_ok, 100u);
}

}  // namespace
}  // namespace kbrepair
