// Satellite of the repair-service PR: SessionTranscript's JSON
// round-trip. A transcript serialized from one inquiry must re-load
// against a fresh symbol table of the same KB and drive ReplayUser to
// the bit-identical repair.

#include "repair/session_log.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>

#include "gen/synthetic.h"
#include "repair/inquiry.h"
#include "repair/user.h"
#include "util/json.h"

namespace kbrepair {
namespace {

StatusOr<SyntheticKb> MakeKb(uint64_t seed) {
  SyntheticKbOptions options;
  options.seed = seed;
  options.num_facts = 50;
  options.num_cdds = 6;
  options.inconsistency_ratio = 0.4;
  return GenerateSyntheticKb(options);
}

// Runs one random-user inquiry and returns the transcript (plus its
// JSON dump made with the *producing* KB's symbols — TermIds, including
// nulls minted during the run, are only meaningful in that table) and
// the repaired facts.
struct RunOutcome {
  SessionTranscript transcript;
  std::string transcript_dump;
  std::vector<std::string> facts;
};

StatusOr<RunOutcome> RunOnce(uint64_t seed) {
  KBREPAIR_ASSIGN_OR_RETURN(SyntheticKb synthetic, MakeKb(seed));
  KnowledgeBase& kb = synthetic.kb;
  InquiryOptions options;
  options.seed = seed;
  InquiryEngine engine(&kb, options);
  KBREPAIR_RETURN_IF_ERROR(engine.Begin());
  Rng rng(seed);
  RunOutcome outcome;
  for (;;) {
    KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                              engine.NextQuestion());
    if (question == nullptr) break;
    const size_t choice = rng.UniformIndex(question->fixes.size());
    const Question recorded = *question;
    KBREPAIR_RETURN_IF_ERROR(engine.Answer(choice));
    outcome.transcript.Record(recorded, choice);
  }
  KBREPAIR_ASSIGN_OR_RETURN(InquiryResult result, engine.Finish());
  outcome.transcript_dump = outcome.transcript.ToJson(kb.symbols()).Dump();
  for (AtomId id = 0; id < result.facts.size(); ++id) {
    outcome.facts.push_back(result.facts.atom(id).ToString(kb.symbols()));
  }
  return outcome;
}

TEST(TranscriptJsonTest, RoundTripPreservesEveryEntry) {
  StatusOr<RunOutcome> run = RunOnce(11);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_FALSE(run->transcript.empty());

  StatusOr<SyntheticKb> synthetic = MakeKb(11);
  ASSERT_TRUE(synthetic.ok());
  KnowledgeBase& kb = synthetic->kb;

  // Only the JSON text crosses to the fresh KB — terms re-intern by
  // (kind, name) against the fresh symbol table on load.
  StatusOr<JsonValue> reparsed = JsonValue::Parse(run->transcript_dump);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  StatusOr<SessionTranscript> loaded =
      SessionTranscript::FromJson(*reparsed, kb.symbols());
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  ASSERT_EQ(loaded->size(), run->transcript.size());
  for (size_t i = 0; i < loaded->size(); ++i) {
    const TranscriptEntry& a = run->transcript.entries()[i];
    const TranscriptEntry& b = loaded->entries()[i];
    EXPECT_EQ(a.chosen_index, b.chosen_index) << "entry " << i;
    EXPECT_EQ(a.question.source_cdd, b.question.source_cdd) << "entry " << i;
    ASSERT_EQ(a.question.fixes.size(), b.question.fixes.size())
        << "entry " << i;
    for (size_t f = 0; f < a.question.fixes.size(); ++f) {
      EXPECT_EQ(a.question.fixes[f].atom, b.question.fixes[f].atom);
      EXPECT_EQ(a.question.fixes[f].arg, b.question.fixes[f].arg);
    }
  }
}

// Rewrites every labeled-null name to its order of first appearance
// (_N9 -> @0, ...). Loading a transcript interns the recorded null
// names into the fresh symbol table, which shifts the counter used for
// nulls minted *during* the replay — the repair is identical up to
// that renaming (the equivalence ReplayUser enforces fix by fix).
std::vector<std::string> CanonicalizeNulls(std::vector<std::string> facts) {
  std::map<std::string, std::string> renames;
  for (std::string& fact : facts) {
    std::string out;
    for (size_t i = 0; i < fact.size();) {
      if (fact[i] == '_' && i + 1 < fact.size() && fact[i + 1] == 'N') {
        size_t end = i + 2;
        while (end < fact.size() &&
               std::isdigit(static_cast<unsigned char>(fact[end]))) {
          ++end;
        }
        const std::string name = fact.substr(i, end - i);
        const std::string index = std::to_string(renames.size());
        auto [it, inserted] = renames.emplace(name, "@" + index);
        out += it->second;
        i = end;
      } else {
        out += fact[i++];
      }
    }
    fact = std::move(out);
  }
  return facts;
}

TEST(TranscriptJsonTest, ReloadedTranscriptReplaysBitForBit) {
  StatusOr<RunOutcome> run = RunOnce(23);
  ASSERT_TRUE(run.ok()) << run.status();

  // Fresh KB, fresh symbol table: only the JSON text crosses over.
  StatusOr<SyntheticKb> synthetic = MakeKb(23);
  ASSERT_TRUE(synthetic.ok());
  KnowledgeBase& kb = synthetic->kb;
  StatusOr<JsonValue> reparsed = JsonValue::Parse(run->transcript_dump);
  ASSERT_TRUE(reparsed.ok());
  StatusOr<SessionTranscript> loaded =
      SessionTranscript::FromJson(*reparsed, kb.symbols());
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  InquiryOptions options;
  options.seed = 23;
  InquiryEngine engine(&kb, options);
  ReplayUser replay(&*loaded, &kb.symbols());
  StatusOr<InquiryResult> result = engine.Run(replay);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(replay.Finished());

  std::vector<std::string> facts;
  for (AtomId id = 0; id < result->facts.size(); ++id) {
    facts.push_back(result->facts.atom(id).ToString(kb.symbols()));
  }
  EXPECT_EQ(CanonicalizeNulls(facts), CanonicalizeNulls(run->facts));
}

TEST(TranscriptJsonTest, FromJsonRejectsMalformedDocuments) {
  StatusOr<SyntheticKb> synthetic = MakeKb(5);
  ASSERT_TRUE(synthetic.ok());
  SymbolTable& symbols = synthetic->kb.symbols();

  // Not an object.
  EXPECT_FALSE(
      SessionTranscript::FromJson(JsonValue::Array(), symbols).ok());

  // Entry with an out-of-range chosen index.
  StatusOr<JsonValue> bad = JsonValue::Parse(
      R"({"entries":[{"chosen":7,"question":{"source_cdd":0,
          "positions":[[0,0]],
          "fixes":[{"atom":0,"arg":0,"kind":"constant","value":"x"}]}}]})");
  ASSERT_TRUE(bad.ok()) << bad.status();
  StatusOr<SessionTranscript> loaded =
      SessionTranscript::FromJson(*bad, symbols);
  EXPECT_FALSE(loaded.ok());

  // Entry with an empty fix list.
  StatusOr<JsonValue> empty = JsonValue::Parse(
      R"({"entries":[{"chosen":0,"question":{"source_cdd":0,
          "positions":[],"fixes":[]}}]})");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_FALSE(SessionTranscript::FromJson(*empty, symbols).ok());
}

}  // namespace
}  // namespace kbrepair
