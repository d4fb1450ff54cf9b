#include "parser/dlgp_parser.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace kbrepair {
namespace {

TEST(ParserTest, ParsesFacts) {
  StatusOr<KnowledgeBase> kb = ParseDlgp("p(a, b). q(c).");
  ASSERT_TRUE(kb.ok()) << kb.status();
  EXPECT_EQ(kb->facts().size(), 2u);
  EXPECT_EQ(kb->facts().atom(0).ToString(kb->symbols()), "p(a,b)");
  EXPECT_EQ(kb->facts().atom(1).ToString(kb->symbols()), "q(c)");
}

TEST(ParserTest, FactTermsAreConstantsEvenWhenUppercase) {
  StatusOr<KnowledgeBase> kb = ParseDlgp("p(Aspirin, John).");
  ASSERT_TRUE(kb.ok());
  for (TermId term : kb->facts().atom(0).args) {
    EXPECT_TRUE(kb->symbols().IsConstant(term));
  }
}

TEST(ParserTest, UnderscoreFactTermsAreLabeledNulls) {
  StatusOr<KnowledgeBase> kb = ParseDlgp("p(a, _N1).");
  ASSERT_TRUE(kb.ok());
  EXPECT_TRUE(kb->symbols().IsNull(kb->facts().atom(0).args[1]));
}

TEST(ParserTest, ParsesTgd) {
  StatusOr<KnowledgeBase> kb =
      ParseDlgp("q(X, Z) :- p(X, Y), r(Y, Z).");
  ASSERT_TRUE(kb.ok()) << kb.status();
  ASSERT_EQ(kb->tgds().size(), 1u);
  const Tgd& tgd = kb->tgds()[0];
  EXPECT_EQ(tgd.body().size(), 2u);
  EXPECT_EQ(tgd.head().size(), 1u);
  EXPECT_EQ(tgd.frontier_variables().size(), 2u);  // X and Z
  EXPECT_TRUE(tgd.existential_variables().empty());
}

TEST(ParserTest, ParsesTgdWithExistential) {
  StatusOr<KnowledgeBase> kb = ParseDlgp("q(X, Z) :- p(X, Y).");
  ASSERT_TRUE(kb.ok());
  ASSERT_EQ(kb->tgds().size(), 1u);
  EXPECT_EQ(kb->tgds()[0].existential_variables().size(), 1u);
}

TEST(ParserTest, ParsesMultiHeadTgd) {
  StatusOr<KnowledgeBase> kb = ParseDlgp("q(X, Z), r(Z, X) :- p(X, Y).");
  ASSERT_TRUE(kb.ok());
  ASSERT_EQ(kb->tgds().size(), 1u);
  EXPECT_EQ(kb->tgds()[0].head().size(), 2u);
}

TEST(ParserTest, ParsesCdd) {
  StatusOr<KnowledgeBase> kb =
      ParseDlgp("! :- prescribed(X, Y), hasAllergy(Y, X).");
  ASSERT_TRUE(kb.ok());
  ASSERT_EQ(kb->cdds().size(), 1u);
  EXPECT_EQ(kb->cdds()[0].body().size(), 2u);
  EXPECT_EQ(kb->cdds()[0].join_variables().size(), 2u);
}

TEST(ParserTest, ParsesCddWithEquality) {
  StatusOr<KnowledgeBase> kb =
      ParseDlgp("! :- p(X, Y), q(Z, W), Y = Z.");
  ASSERT_TRUE(kb.ok()) << kb.status();
  ASSERT_EQ(kb->cdds().size(), 1u);
  // Equality folded: Y/Z now one join variable across the two atoms.
  EXPECT_TRUE(kb->cdds()[0].has_join_variable());
}

TEST(ParserTest, ParsesCddWithEqualityToConstant) {
  StatusOr<KnowledgeBase> kb = ParseDlgp("! :- p(X, Y), X = a, p(Y, X).");
  ASSERT_TRUE(kb.ok()) << kb.status();
  const Cdd& cdd = kb->cdds()[0];
  const TermId a = kb->symbols().FindTerm(TermKind::kConstant, "a");
  EXPECT_EQ(cdd.body()[0].args[0], a);
}

TEST(ParserTest, QuotedConstantsInRules) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(R"(! :- p(X, "Aspirin"), q(X).)");
  ASSERT_TRUE(kb.ok()) << kb.status();
  const TermId aspirin =
      kb->symbols().FindTerm(TermKind::kConstant, "Aspirin");
  ASSERT_NE(aspirin, kInvalidTerm);
  EXPECT_EQ(kb->cdds()[0].body()[0].args[1], aspirin);
}

TEST(ParserTest, CommentsAndWhitespaceIgnored) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(R"(
    % leading comment
    p(a, b).  % trailing comment
    % another
  )");
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ(kb->facts().size(), 1u);
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  StatusOr<KnowledgeBase> kb = ParseDlgp("p(a, b).\nq(c");
  ASSERT_FALSE(kb.ok());
  EXPECT_NE(kb.status().message().find("line 2"), std::string::npos);
}

TEST(ParserTest, RejectsArityOverloading) {
  StatusOr<KnowledgeBase> kb = ParseDlgp("p(a, b). p(a).");
  ASSERT_FALSE(kb.ok());
  EXPECT_NE(kb.status().message().find("arity"), std::string::npos);
}

TEST(ParserTest, RejectsMissingDot) {
  EXPECT_FALSE(ParseDlgp("p(a, b)").ok());
}

TEST(ParserTest, RejectsUnterminatedString) {
  EXPECT_FALSE(ParseDlgp(R"(p("oops).)").ok());
}

TEST(ParserTest, RejectsEqualityInFacts) {
  EXPECT_FALSE(ParseDlgp("a = b.").ok());
}

TEST(ParserTest, RejectsEqualityInTgd) {
  EXPECT_FALSE(ParseDlgp("q(X, Y) :- p(X, Y), X = Y.").ok());
}

// --- Malformed-input corpus -------------------------------------------
// Every case must fail with a clean InvalidArgument carrying a
// line/column position — never a crash, hang, or silent acceptance.

TEST(ParserTest, TruncatedAtomReportsPosition) {
  StatusOr<KnowledgeBase> kb = ParseDlgp("p(a,");
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(kb.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(kb.status().message().find("column 5"), std::string::npos);
}

TEST(ParserTest, UnbalancedParensReportPosition) {
  // Extra ')' after a complete atom: the parser expects '.' there.
  StatusOr<KnowledgeBase> kb = ParseDlgp("p(a, b)).");
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(kb.status().message().find("line 1, column 8"),
            std::string::npos);

  // Missing ')' swallows the '.' as a term separator error.
  EXPECT_FALSE(ParseDlgp("p(a, b. q(c).").ok());
}

// The load is sized from the text's '(' and ',' counts before parsing.
// A text of nothing else, as long as kbrepaird's line cap, sizes the
// tables for what a valid text of that length could hold and still
// fails with the diagnostic of its first byte.
TEST(ParserTest, PunctuationFloodReportsItsFirstByte) {
  for (const char c : {'(', ','}) {
    StatusOr<KnowledgeBase> kb = ParseDlgp(std::string(1 << 20, c));
    ASSERT_FALSE(kb.ok());
    EXPECT_EQ(kb.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(kb.status().message(),
              "line 1, column 1: expected predicate or term");
  }
  // After a valid statement, the flood fails at its own first byte.
  StatusOr<KnowledgeBase> kb = ParseDlgp("p(a, b).\n" +
                                         std::string(1 << 20, '('));
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().message(),
            "line 2, column 1: expected predicate or term");
}

TEST(ParserTest, StrayBottomSymbolReportsHexByte) {
  // "⊥" (U+22A5) is not part of the DLGP syntax; the CDD head marker is
  // '!'. The error must name the offending byte in printable hex.
  StatusOr<KnowledgeBase> kb = ParseDlgp("⊥ :- p(X, X).");
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(kb.status().message().find("line 1, column 1"),
            std::string::npos);
  EXPECT_NE(kb.status().message().find("0xe2"), std::string::npos);
  // The raw multi-byte character itself must not leak into the message.
  EXPECT_EQ(kb.status().message().find("\xe2\x8a\xa5"), std::string::npos);
}

TEST(ParserTest, EmbeddedNulByteReportsHexByte) {
  const std::string text("p(a\0b).", 7);
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(kb.status().message().find("0x00"), std::string::npos);
  EXPECT_NE(kb.status().message().find("column 4"), std::string::npos);
}

TEST(ParserTest, ColumnsResetAcrossLines) {
  StatusOr<KnowledgeBase> kb = ParseDlgp("p(a).\nq(b).\n  r(@).");
  ASSERT_FALSE(kb.ok());
  EXPECT_NE(kb.status().message().find("line 3, column 5"),
            std::string::npos);
  EXPECT_NE(kb.status().message().find("'@'"), std::string::npos);
}

TEST(ParserTest, RejectsLoneColon) {
  EXPECT_FALSE(ParseDlgp("p(a) : q(b).").ok());
}

TEST(ParserTest, RejectsQuotedPredicate) {
  EXPECT_FALSE(ParseDlgp(R"("p"(a).)").ok());
}

TEST(ParserTest, RejectsEmptyArgumentList) {
  EXPECT_FALSE(ParseDlgp("p().").ok());
}

TEST(ParserTest, ParseDlgpIntoAppends) {
  KnowledgeBase kb;
  ASSERT_TRUE(ParseDlgpInto("p(a, b).", kb).ok());
  ASSERT_TRUE(ParseDlgpInto("p(c, d). ! :- p(X, Y), p(Y, X).", kb).ok());
  EXPECT_EQ(kb.facts().size(), 2u);
  EXPECT_EQ(kb.cdds().size(), 1u);
}

TEST(ParserTest, RoundTripThroughPrinter) {
  const std::string text = R"(
    prescribed(aspirin, john).
    hasAllergy(john, _N1).
    prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
    ! :- prescribed(X, Y), hasAllergy(Y, X).
  )";
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  ASSERT_TRUE(kb.ok());
  const std::string printed = PrintDlgp(*kb);
  StatusOr<KnowledgeBase> reparsed = ParseDlgp(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << printed;
  EXPECT_EQ(reparsed->facts().size(), kb->facts().size());
  EXPECT_EQ(reparsed->tgds().size(), kb->tgds().size());
  EXPECT_EQ(reparsed->cdds().size(), kb->cdds().size());
  // Printing again yields the identical text (fixpoint).
  EXPECT_EQ(PrintDlgp(*reparsed), printed);
}

TEST(ParserTest, PrinterQuotesAmbiguousConstants) {
  // A constant named like a variable must be quoted in rule context.
  KnowledgeBase kb;
  const PredicateId p = kb.symbols().InternPredicate("p", 1);
  const TermId upper = kb.symbols().InternConstant("Aspirin");
  const TermId x = kb.symbols().InternVariable("X");
  kb.facts().Add(Atom(p, {upper}));
  StatusOr<Cdd> cdd =
      Cdd::Create({Atom(p, {upper}), Atom(p, {x})}, kb.symbols());
  ASSERT_TRUE(cdd.ok());
  kb.cdds().push_back(std::move(cdd).value());
  const std::string printed = PrintDlgp(kb);
  StatusOr<KnowledgeBase> reparsed = ParseDlgp(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << printed;
  // The rule-context constant still resolves to a constant after reparse.
  EXPECT_TRUE(reparsed->symbols().IsConstant(
      reparsed->cdds()[0].body()[0].args[0]));
}

TEST(ParserTest, HospitalExampleParsesAndValidates) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(R"(
    prescribed(aspirin, john).
    hasAllergy(john, aspirin).
    hasAllergy(mike, penicillin).
    prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
    ! :- prescribed(X, Y), hasAllergy(Y, X).
    ! :- prescribed(X, Z), prescribed(Y, Z), incompatible(X, Y).
  )");
  ASSERT_TRUE(kb.ok()) << kb.status();
  EXPECT_TRUE(kb->Validate().ok());
}


TEST(ParserTest, FileRoundTrip) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(R"(
    prescribed(aspirin, john).
    hasAllergy(john, aspirin).
    prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
    ! :- prescribed(X, Y), hasAllergy(Y, X).
  )");
  ASSERT_TRUE(kb.ok());
  const std::string path =
      ::testing::TempDir() + "/kbrepair_parser_roundtrip.dlgp";
  ASSERT_TRUE(SaveDlgpFile(*kb, path).ok());
  StatusOr<KnowledgeBase> loaded = LoadDlgpFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->facts().size(), kb->facts().size());
  EXPECT_EQ(loaded->tgds().size(), kb->tgds().size());
  EXPECT_EQ(loaded->cdds().size(), kb->cdds().size());
  EXPECT_EQ(PrintDlgp(*loaded), PrintDlgp(*kb));
}

TEST(ParserTest, LoadMissingFileIsNotFound) {
  StatusOr<KnowledgeBase> kb = LoadDlgpFile("/no/such/dir/kb.dlgp");
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().code(), StatusCode::kNotFound);
}

TEST(ParserTest, SaveToUnwritablePathFails) {
  KnowledgeBase kb;
  EXPECT_FALSE(SaveDlgpFile(kb, "/no/such/dir/kb.dlgp").ok());
}


// Fuzz-ish robustness: the parser must reject garbage with a Status,
// never crash, and never accept text that fails to round-trip.
TEST(ParserTest, RandomGarbageNeverCrashes) {
  Rng rng(20180326);
  const std::string alphabet =
      "abcXYZ_09(),.:-!%\"= \n\t?*;[]{}";
  for (int round = 0; round < 500; ++round) {
    std::string text;
    const size_t length = rng.UniformIndex(60);
    for (size_t i = 0; i < length; ++i) {
      text += alphabet[rng.UniformIndex(alphabet.size())];
    }
    StatusOr<KnowledgeBase> kb = ParseDlgp(text);
    if (kb.ok()) {
      // Whatever parsed must print and re-parse to the same shape.
      const std::string printed = PrintDlgp(*kb);
      StatusOr<KnowledgeBase> reparsed = ParseDlgp(printed);
      ASSERT_TRUE(reparsed.ok()) << text << "\n--\n" << printed;
      EXPECT_EQ(PrintDlgp(*reparsed), printed) << text;
    }
  }
}

TEST(ParserTest, MutatedValidInputNeverCrashes) {
  const std::string base = R"(
    prescribed(aspirin, john).
    hasAllergy(john, aspirin).
    prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
    ! :- prescribed(X, Y), hasAllergy(Y, X), X = aspirin.
  )";
  Rng rng(42);
  for (int round = 0; round < 500; ++round) {
    std::string text = base;
    // A couple of random single-character mutations.
    for (int m = 0; m < 3; ++m) {
      const size_t pos = rng.UniformIndex(text.size());
      const int op = static_cast<int>(rng.UniformIndex(3));
      if (op == 0) {
        text.erase(pos, 1);
      } else if (op == 1) {
        text.insert(pos, 1, static_cast<char>('!' + rng.UniformIndex(90)));
      } else {
        text[pos] = static_cast<char>('!' + rng.UniformIndex(90));
      }
    }
    // Either outcome is fine; crashing or hanging is not.
    (void)ParseDlgp(text);
  }
}


TEST(ParserTest, RuleLabelsParsedAndPrinted) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(R"(
    p(a, b).
    [derive_q] q(X, Y) :- p(X, Y).
    [no_loop] ! :- p(X, Y), q(Y, X).
  )");
  ASSERT_TRUE(kb.ok()) << kb.status();
  ASSERT_EQ(kb->tgds().size(), 1u);
  ASSERT_EQ(kb->cdds().size(), 1u);
  EXPECT_EQ(kb->tgds()[0].label(), "derive_q");
  EXPECT_EQ(kb->cdds()[0].label(), "no_loop");

  const std::string printed = PrintDlgp(*kb);
  EXPECT_NE(printed.find("[derive_q]"), std::string::npos);
  EXPECT_NE(printed.find("[no_loop]"), std::string::npos);
  StatusOr<KnowledgeBase> reparsed = ParseDlgp(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->tgds()[0].label(), "derive_q");
  EXPECT_EQ(PrintDlgp(*reparsed), printed);
}

TEST(ParserTest, LabelOnFactRejected) {
  StatusOr<KnowledgeBase> kb = ParseDlgp("[f1] p(a, b).");
  ASSERT_FALSE(kb.ok());
  EXPECT_NE(kb.status().message().find("labels"), std::string::npos);
}

TEST(ParserTest, MalformedLabelRejected) {
  EXPECT_FALSE(ParseDlgp("[ q(X) :- p(X).").ok());
  EXPECT_FALSE(ParseDlgp("[r1 q(X) :- p(X).").ok());
}

}  // namespace
}  // namespace kbrepair
