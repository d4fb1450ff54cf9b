// End-to-end scenarios walking through the paper's narrative: the
// running example of Figure 1, Examples 1.2/1.3 (repairs), Example 2.1
// (chase), Example 2.4 (conflicts), Example 3.5 (c-fix vs r-fix) and a
// full parse -> repair -> print round trip.

#include <gtest/gtest.h>

#include "chase/incremental_chase.h"
#include "gen/durum_wheat.h"
#include "parser/dlgp_parser.h"
#include "repair/conflict.h"
#include "repair/consistency.h"
#include "repair/inquiry.h"
#include "repair/user.h"
#include "support/conflict_finder.h"

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

constexpr const char* kFigure1b = R"(
  prescribed(aspirin, john).
  hasAllergy(john, aspirin).
  hasAllergy(mike, penicillin).
  hasPain(john, migraine).
  isPainKillerFor(nsaids, migraine).
  incompatible(aspirin, nsaids).
  prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
  ! :- prescribed(X, Y), hasAllergy(Y, X).
  ! :- prescribed(X, Z), prescribed(Y, Z), incompatible(X, Y).
)";

TEST(IntegrationTest, Figure1aIsInconsistent) {
  KnowledgeBase kb = Parse(kFigure1a);
  EXPECT_FALSE(IsConsistent(kb).value());
}

TEST(IntegrationTest, Example13UpdateRepairF3) {
  // F3 replaces the allergy's drug with a labeled null; unlike the
  // deletion repairs F1/F2 it keeps all three facts.
  KnowledgeBase kb = Parse(kFigure1a);
  const TermId x1 = kb.symbols().MakeFreshNull();
  FactBase f3 = kb.facts();
  ASSERT_TRUE(ApplyFixes(f3, {Fix{1, 1, x1}}).ok());
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(checker.IsConsistentOpt(f3).value());
  EXPECT_EQ(f3.size(), 3u);
}

TEST(IntegrationTest, Example21ChaseResult) {
  KnowledgeBase kb = Parse(kFigure1b);
  IncrementalChase chased(&kb.symbols(), &kb.tgds());
  ASSERT_TRUE(chased.Initialize(kb.facts()).ok());
  // Cl(F') = F' ∪ {prescribed(nsaids, john)}.
  EXPECT_EQ(chased.facts().size(), kb.facts().size() + 1);
  EXPECT_EQ(chased.facts().atom(6).ToString(kb.symbols()),
            "prescribed(nsaids,john)");
}

TEST(IntegrationTest, Example24ConflictCount) {
  KnowledgeBase kb = Parse(kFigure1b);
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  StatusOr<std::vector<Conflict>> all = finder.AllConflicts(kb.facts());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
}

TEST(IntegrationTest, Example35CFixAndRFix) {
  // P = {(hasAllergy(john,aspirin),2,X1), (hasAllergy(mike,penicillin),
  // 2,aspirin)} is a c-fix; P1 = P minus the second fix is an r-fix;
  // P2 = P minus the first fix is not a c-fix.
  KnowledgeBase kb = Parse(kFigure1a);
  const TermId x1 = kb.symbols().MakeFreshNull();
  const TermId aspirin =
      kb.symbols().FindTerm(TermKind::kConstant, "aspirin");
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());

  auto consistent_after = [&](const std::vector<Fix>& fixes) {
    FactBase updated = kb.facts();
    EXPECT_TRUE(ApplyFixes(updated, fixes).ok());
    return checker.IsConsistentOpt(updated).value();
  };

  EXPECT_TRUE(consistent_after({Fix{1, 1, x1}, Fix{2, 1, aspirin}}));
  EXPECT_TRUE(consistent_after({Fix{1, 1, x1}}));          // P1: r-fix
  EXPECT_FALSE(consistent_after({Fix{2, 1, aspirin}}));    // P2: no c-fix
}

TEST(IntegrationTest, IntroductionClaimFixingPrescriptionResolvesBoth) {
  // "updating the atom prescribed(Aspirin, John) will resolve
  // automatically the new inconsistency without updating other atoms."
  KnowledgeBase kb = Parse(kFigure1b);
  FactBase updated = kb.facts();
  ASSERT_TRUE(
      ApplyFixes(updated, {Fix{0, 1, kb.symbols().MakeFreshNull()}}).ok());
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(checker.IsConsistentOpt(updated).value());

  // "whereas updating the atom prescribed(Nsaids, John) will not" — the
  // derived atom is not even in F; the nearest analogue is updating the
  // allergy atom, which leaves the incompatibility conflict open.
  FactBase partial = kb.facts();
  ASSERT_TRUE(
      ApplyFixes(partial, {Fix{1, 1, kb.symbols().MakeFreshNull()}}).ok());
  EXPECT_FALSE(checker.IsConsistentOpt(partial).value());
}

TEST(IntegrationTest, FullPipelineParseRepairPrintReparse) {
  KnowledgeBase kb = Parse(kFigure1b);
  ASSERT_TRUE(kb.Validate().ok());
  RandomUser user(31);
  InquiryOptions options;
  options.strategy = Strategy::kOptiMcd;
  options.seed = 31;
  InquiryEngine engine(&kb, options);
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok()) << result.status();

  // Rebuild a KB around the repaired facts and serialize + reparse.
  KnowledgeBase repaired = Parse(kFigure1b);
  for (const Fix& fix : result->applied_fixes) {
    // Port the fix's value into the new symbol table by name/kind.
    const SymbolTable& old_symbols = kb.symbols();
    TermId value;
    if (old_symbols.IsNull(fix.value)) {
      value = repaired.symbols().InternNull(old_symbols.term_name(fix.value));
    } else {
      value = repaired.symbols().InternConstant(
          old_symbols.term_name(fix.value));
    }
    ApplyFix(repaired.facts(), Fix{fix.atom, fix.arg, value});
  }
  const std::string printed = PrintDlgp(repaired);
  StatusOr<KnowledgeBase> reparsed = ParseDlgp(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << printed;
  ConsistencyChecker reparsed_checker(&reparsed->symbols(),
                                      &reparsed->tgds(), &reparsed->cdds());
  EXPECT_TRUE(reparsed_checker.IsConsistentOpt(reparsed->facts()).value())
      << printed;
}

TEST(IntegrationTest, DurumWheatEndToEnd) {
  StatusOr<DurumWheatKb> durum =
      GenerateDurumWheatKb({DurumWheatVersion::kV1});
  ASSERT_TRUE(durum.ok());
  KnowledgeBase& kb = durum->kb;

  // Round-trip the whole KB through the DLGP printer/parser and verify
  // the conflict census is preserved.
  const std::string printed = PrintDlgp(kb);
  StatusOr<KnowledgeBase> reparsed = ParseDlgp(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  ASSERT_TRUE(reparsed->Validate().ok());
  ConflictFinder original_finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  ConflictFinder reparsed_finder(&reparsed->symbols(), &reparsed->tgds(),
                                 &reparsed->cdds());
  StatusOr<std::vector<Conflict>> a =
      original_finder.AllConflicts(kb.facts());
  StatusOr<std::vector<Conflict>> b =
      reparsed_finder.AllConflicts(reparsed->facts());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->size(), b->size());

  // Repair the reparsed copy end to end.
  RandomUser user(77);
  InquiryOptions options;
  options.strategy = Strategy::kOptiJoin;
  options.seed = 77;
  InquiryEngine engine(&*reparsed, options);
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok()) << result.status();
  ConsistencyChecker checker(&reparsed->symbols(), &reparsed->tgds(),
                             &reparsed->cdds());
  EXPECT_TRUE(checker.IsConsistentOpt(result->facts).value());
}

TEST(IntegrationTest, InquiryWithHumanLikeScriptedAnswers) {
  // A scripted user that always prefers constants over nulls — a user
  // who "knows" the right values; the dialogue still terminates with a
  // consistent KB.
  KnowledgeBase kb = Parse(kFigure1b);
  CallbackUser expert([&kb](const Question& question,
                            const InquiryView&) -> std::optional<size_t> {
    for (size_t i = 0; i < question.fixes.size(); ++i) {
      if (!kb.symbols().IsNull(question.fixes[i].value)) return i;
    }
    return 0;
  });
  InquiryEngine engine(&kb, InquiryOptions{});
  StatusOr<InquiryResult> result = engine.Run(expert);
  ASSERT_TRUE(result.ok()) << result.status();
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(checker.IsConsistentOpt(result->facts).value());
}

}  // namespace
}  // namespace kbrepair
