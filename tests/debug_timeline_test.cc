// kbrepair-debug timeline harness over the 208-dialogue differential
// matrix: every WAL the matrix produces must (a) replay to a
// byte-identical transcript with the census matching the reference
// census at every step, (b) report the exact conflict census the live
// session saw at any step reached by backward seeking, and (c) support
// what-if forks whose branch transcripts are themselves deterministic
// replayable sessions ending consistent. Plus: fsync-ghost skipping,
// base-fork rejection, and diff-engines pinpointing the first diverging
// step of tampered and failpoint-diverged recordings.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "debug/timeline.h"
#include "repair/inquiry.h"
#include "repair/session_log.h"
#include "service/base_registry.h"
#include "service/session.h"
#include "service/session_manager.h"
#include "service/wal.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/rng.h"

namespace kbrepair {
namespace debug {
namespace {

struct MatrixCase {
  uint64_t seed;
  Strategy strategy;
  bool two_phase;
  bool with_tgds;
};

// The same generator/engine surface the 208-dialogue differential
// harness uses (incremental_conflict_test), expressed as service create
// params so the WAL is a self-contained recipe.
JsonValue CreateParams(const MatrixCase& c) {
  JsonValue p = JsonValue::Object();
  p.Set("kb", JsonValue::String("synthetic"));
  p.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(c.seed)));
  p.Set("num_facts",
        JsonValue::Number(static_cast<int64_t>(60 + (c.seed % 5) * 20)));
  p.Set("inconsistency_ratio", JsonValue::Number(0.25));
  p.Set("num_cdds", JsonValue::Number(int64_t{5}));
  p.Set("cdd_min_atoms", JsonValue::Number(int64_t{2}));
  p.Set("cdd_max_atoms", JsonValue::Number(int64_t{3}));
  p.Set("min_arity", JsonValue::Number(int64_t{2}));
  p.Set("max_arity", JsonValue::Number(int64_t{4}));
  p.Set("min_multiplicity", JsonValue::Number(int64_t{1}));
  p.Set("max_multiplicity", JsonValue::Number(int64_t{2}));
  if (c.with_tgds) {
    p.Set("num_tgds", JsonValue::Number(int64_t{6}));
    p.Set("conflict_depth", JsonValue::Number(int64_t{2}));
    p.Set("routed_violation_share", JsonValue::Number(0.5));
  }
  p.Set("strategy", JsonValue::String(StrategyName(c.strategy)));
  p.Set("two_phase", JsonValue::Bool(c.two_phase));
  p.Set("seed", JsonValue::Number(static_cast<int64_t>(c.seed * 17 + 3)));
  // Keeps the chased census live from the first answer on.
  p.Set("record_convergence", JsonValue::String("total"));
  // One configuration's create carries "chase_threads", as WALs recorded
  // while the chase had worker threads do: it must replay byte-exactly.
  if (c.seed == 3 && c.strategy == Strategy::kOptiMcd && c.two_phase &&
      c.with_tgds) {
    p.Set("chase_threads", JsonValue::Number(int64_t{4}));
  }
  return p;
}

// An in-memory recording: the create params plus transcript entries,
// no WAL coordinates.
WalRecovery Recording(const JsonValue& params, std::vector<JsonValue> entries) {
  WalRecovery recording;
  recording.create_params = params;
  recording.entries = std::move(entries);
  return recording;
}

// Engine-deterministic signature of a canonical census (cdd index,
// matched atoms, support atoms). Comparable between a live session and
// its replay cursor: both run the same engine kind over identically
// interned tables, so even inspection-chase atom ids coincide.
std::string CensusSignature(const std::vector<Conflict>& census) {
  std::ostringstream out;
  for (const Conflict& conflict : census) {
    out << conflict.cdd_index << ":m[";
    for (AtomId id : conflict.matched) out << id << ",";
    out << "]s[";
    for (AtomId id : conflict.support) out << id << ",";
    out << "];";
  }
  return out.str();
}

// A live dialogue driven exactly as the service would run it, capturing
// what the debugger must later reproduce: the transcript entries, the
// census after every answer (index k = census at position k), and the
// final content hash.
struct LiveRecording {
  JsonValue params = JsonValue::Null();
  std::vector<JsonValue> entries;
  std::vector<std::string> censuses;
  std::vector<int> phases;  // phase of each answered question
  uint64_t final_hash = 0;
};

StatusOr<LiveRecording> RecordDialogue(const JsonValue& params) {
  LiveRecording rec;
  rec.params = params;
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(KnowledgeBase kb, BuildKbFromParams(params, &label));
  KBREPAIR_ASSIGN_OR_RETURN(InquiryOptions options,
                            InquiryOptionsFromParams(params));
  InquiryEngine engine(&kb, options);
  KBREPAIR_RETURN_IF_ERROR(engine.Begin());
  Rng chooser(static_cast<uint64_t>(params.Get("kb_seed").AsInt()) * 101 + 13);
  {
    KBREPAIR_ASSIGN_OR_RETURN(std::vector<Conflict> census,
                              engine.InspectCensus());
    rec.censuses.push_back(CensusSignature(census));
  }
  while (true) {
    KBREPAIR_ASSIGN_OR_RETURN(const Question* question, engine.NextQuestion());
    if (question == nullptr) break;
    const size_t choice = chooser.UniformIndex(question->fixes.size());
    rec.entries.push_back(SessionTranscript::EntryToJson(
        TranscriptEntry{*question, choice}, kb.symbols()));
    KBREPAIR_RETURN_IF_ERROR(engine.Answer(choice));
    rec.phases.push_back(engine.progress().records.back().phase);
    KBREPAIR_ASSIGN_OR_RETURN(std::vector<Conflict> census,
                              engine.InspectCensus());
    rec.censuses.push_back(CensusSignature(census));
  }
  rec.final_hash = engine.working_facts().ContentHash(kb.symbols());
  return rec;
}

std::string CaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& c = info.param;
  std::string name = StrategyName(c.strategy);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += c.two_phase ? "_2ph" : "_basic";
  name += c.with_tgds ? "_tgd" : "_flat";
  name += "_s" + std::to_string(c.seed);
  return name;
}

class DebugTimelineMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(DebugTimelineMatrix, ReplaysSeeksAndForks) {
  const MatrixCase& param = GetParam();
  const JsonValue params = CreateParams(param);
  StatusOr<LiveRecording> live = RecordDialogue(params);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_FALSE(live->entries.empty()) << "generator produced a consistent KB";

  // Round-trip through a real on-disk WAL so the coordinates the loader
  // reports are the file's actual ones.
  char dirbuf[] = "/tmp/kbrepair_debug_test_XXXXXX";
  ASSERT_NE(::mkdtemp(dirbuf), nullptr);
  const std::string dir = dirbuf;
  const std::string wal_path = dir + "/case.wal";
  {
    StatusOr<std::unique_ptr<SessionWal>> wal = SessionWal::Open(dir, "case");
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->Append(SessionWal::CreateRecord(params)).ok());
    for (const JsonValue& entry : live->entries) {
      ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(entry)).ok());
    }
  }
  StatusOr<WalRecovery> recorded = ReadWalFile(wal_path, "case");
  ::unlink(wal_path.c_str());
  ::rmdir(dir.c_str());
  ASSERT_TRUE(recorded.ok()) << recorded.status();
  EXPECT_EQ(recorded->session_id, "case");
  ASSERT_EQ(recorded->entries.size(), live->entries.size());
  ASSERT_EQ(recorded->entry_origins.size(), live->entries.size());
  for (size_t i = 0; i < recorded->entries.size(); ++i) {
    EXPECT_EQ(recorded->entries[i].Dump(), live->entries[i].Dump())
        << "entry " << i;
    // Line 1 is the header, line 2 the create record.
    EXPECT_EQ(recorded->entry_origins[i].record_index, i + 3)
        << "entry " << i;
    if (i > 0) {
      EXPECT_GT(recorded->entry_origins[i].byte_offset,
                recorded->entry_origins[i - 1].byte_offset)
          << "entry " << i;
    }
  }

  // Byte-identical replay, recorded engine.
  TimelineOptions options;
  options.checkpoint_every = 4;
  StatusOr<SessionTimeline> timeline =
      SessionTimeline::Create(*recorded, options);
  ASSERT_TRUE(timeline.ok()) << timeline.status();
  EXPECT_EQ(timeline->num_entries(), live->entries.size());
  EXPECT_EQ(timeline->num_questions(), live->entries.size());
  {
    const Status verified = timeline->ReplayVerify();
    ASSERT_TRUE(verified.ok()) << verified;
  }
  ASSERT_TRUE(timeline->SeekTo(timeline->num_entries()).ok());
  EXPECT_EQ(timeline->StateHash(), live->final_hash);
  {
    StatusOr<std::vector<Conflict>> census = timeline->Census();
    ASSERT_TRUE(census.ok()) << census.status();
    EXPECT_EQ(CensusSignature(*census), live->censuses.back());
    EXPECT_TRUE(census->empty());
  }

  // Backward seek to a random interior step: the census there must be
  // exactly what the live session reported.
  Rng rng(param.seed * 977 + static_cast<uint64_t>(param.strategy) * 31 +
          (param.two_phase ? 7 : 0) + (param.with_tgds ? 3 : 0));
  const size_t interior = rng.UniformIndex(timeline->num_entries());
  ASSERT_TRUE(timeline->SeekTo(interior).ok());
  EXPECT_EQ(timeline->position(), interior);
  {
    StatusOr<std::vector<Conflict>> census = timeline->Census();
    ASSERT_TRUE(census.ok()) << census.status();
    EXPECT_EQ(CensusSignature(*census), live->censuses[interior])
        << "census mismatch after backward seek to " << interior;
  }
  if (interior > 0) {
    ASSERT_TRUE(timeline->StepBack().ok());
    StatusOr<std::vector<Conflict>> census = timeline->Census();
    ASSERT_TRUE(census.ok()) << census.status();
    EXPECT_EQ(CensusSignature(*census), live->censuses[interior - 1]);
    ASSERT_TRUE(timeline->StepForward().ok());
    census = timeline->Census();
    ASSERT_TRUE(census.ok()) << census.status();
    EXPECT_EQ(CensusSignature(*census), live->censuses[interior]);
  }

  // The same WAL under diff-engines: the census the replay selects
  // from matches the reference census at every step.
  {
    StatusOr<EngineDivergence> diff = DiffEngines(*recorded);
    ASSERT_TRUE(diff.ok()) << diff.status();
    EXPECT_FALSE(diff->diverged) << FormatDivergence(*diff);
  }

  // Fork with a flipped answer at the interior step; the branch runs
  // through the real engine and its transcript must itself be a
  // deterministic replayable session ending consistent.
  const StepNote& note = timeline->note(interior);
  const size_t alt =
      note.num_fixes > 1 ? (note.chosen + 1) % note.num_fixes : 0;
  StatusOr<ForkBranch> branch =
      timeline->Fork(interior, alt, param.seed * 5 + 1);
  ASSERT_TRUE(branch.ok()) << branch.status();
  EXPECT_TRUE(branch->completed);
  EXPECT_GE(branch->num_questions, 1u);
  EXPECT_EQ(branch->entries.size(), interior + branch->num_questions);
  {
    TimelineOptions branch_options;
    branch_options.checkpoint_every = 0;
    StatusOr<SessionTimeline> verify = SessionTimeline::Create(
        Recording(params, branch->entries), branch_options);
    ASSERT_TRUE(verify.ok()) << verify.status();
    const Status verified = verify->ReplayVerify();
    ASSERT_TRUE(verified.ok()) << verified;
    ASSERT_TRUE(verify->SeekTo(verify->num_entries()).ok());
    EXPECT_EQ(verify->StateHash(), branch->final_state_hash);
    StatusOr<std::vector<Conflict>> census = verify->Census();
    ASSERT_TRUE(census.ok()) << census.status();
    EXPECT_TRUE(census->empty()) << "branch ended inconsistent";
  }

  // The fork left the main cursor where it was.
  EXPECT_EQ(timeline->position(), interior);
}

std::vector<MatrixCase> MakeCases() {
  std::vector<MatrixCase> cases;
  const Strategy strategies[] = {Strategy::kRandom, Strategy::kOptiJoin,
                                 Strategy::kOptiProp, Strategy::kOptiMcd};
  for (const Strategy strategy : strategies) {
    for (const bool two_phase : {false, true}) {
      for (const bool with_tgds : {false, true}) {
        for (uint64_t seed = 1; seed <= 13; ++seed) {
          cases.push_back({seed, strategy, two_phase, with_tgds});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DebugTimelineMatrix,
                         ::testing::ValuesIn(MakeCases()), CaseName);

class DebugTimelineTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::Reset(); }

  static MatrixCase BaseCase() {
    return {3, Strategy::kOptiMcd, /*two_phase=*/true, /*with_tgds=*/true};
  }
};

// An fsync-ghost (exact duplicate record, question regenerates
// differently) is skipped by the timeline exactly as daemon recovery
// skips it.
TEST_F(DebugTimelineTest, GhostDuplicateEntryIsSkipped) {
  const JsonValue params = CreateParams(BaseCase());
  StatusOr<LiveRecording> live = RecordDialogue(params);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_GE(live->entries.size(), 2u);
  std::vector<JsonValue> entries = live->entries;
  const size_t dup_at = entries.size() / 2;
  entries.insert(entries.begin() + dup_at, entries[dup_at]);

  StatusOr<SessionTimeline> timeline = SessionTimeline::Create(
      Recording(params, entries), TimelineOptions{});
  ASSERT_TRUE(timeline.ok()) << timeline.status();
  EXPECT_EQ(timeline->num_entries(), live->entries.size() + 1);
  EXPECT_EQ(timeline->num_questions(), live->entries.size());
  EXPECT_TRUE(timeline->note(dup_at + 1).ghost);
  const Status verified = timeline->ReplayVerify();
  ASSERT_TRUE(verified.ok()) << verified;
  ASSERT_TRUE(timeline->SeekTo(timeline->num_entries()).ok());
  EXPECT_EQ(timeline->StateHash(), live->final_hash);
}

// "chase_threads" in a recorded create is validated and then ignored:
// the dialogue is the one recorded without it, and an out-of-range
// value still makes the recording unreadable.
TEST_F(DebugTimelineTest, RecordedChaseThreadsIsValidatedAndIgnored) {
  const JsonValue params = CreateParams(BaseCase());
  ASSERT_EQ(params.Get("chase_threads").AsInt(), 4);
  JsonValue without = JsonValue::Object();
  for (const auto& [key, value] : params.members()) {
    if (key != "chase_threads") without.Set(key, value);
  }
  StatusOr<LiveRecording> with_threads = RecordDialogue(params);
  StatusOr<LiveRecording> plain = RecordDialogue(without);
  ASSERT_TRUE(with_threads.ok()) << with_threads.status();
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_EQ(with_threads->entries.size(), plain->entries.size());
  for (size_t i = 0; i < plain->entries.size(); ++i) {
    EXPECT_EQ(with_threads->entries[i].Dump(), plain->entries[i].Dump())
        << "entry " << i;
  }
  EXPECT_EQ(with_threads->final_hash, plain->final_hash);

  for (const int64_t threads : {int64_t{0}, int64_t{65}}) {
    JsonValue bad = params;
    bad.Set("chase_threads", JsonValue::Number(threads));
    StatusOr<SessionTimeline> timeline = SessionTimeline::Create(
        Recording(bad, with_threads->entries), TimelineOptions{});
    ASSERT_FALSE(timeline.ok()) << "chase_threads " << threads;
    EXPECT_EQ(timeline.status().code(), StatusCode::kInvalidArgument);
  }
}

// A recording that does not replay (tampered answer payload) fails
// Create with the WAL coordinates in the message.
TEST_F(DebugTimelineTest, NonReplayableRecordingNamesTheRecord) {
  const JsonValue params = CreateParams(BaseCase());
  StatusOr<LiveRecording> live = RecordDialogue(params);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_GE(live->entries.size(), 2u);
  std::vector<JsonValue> entries = live->entries;
  // Out-of-range chosen index: structurally invalid.
  entries[1].Set("chosen", JsonValue::Number(int64_t{999}));
  StatusOr<SessionTimeline> timeline = SessionTimeline::Create(
      Recording(params, entries), TimelineOptions{});
  ASSERT_FALSE(timeline.ok());
  EXPECT_NE(timeline.status().message().find("entry 2"), std::string::npos)
      << timeline.status();
}

TEST_F(DebugTimelineTest, BaseForkedRecordingsAreRejected) {
  JsonValue params = CreateParams(BaseCase());
  params.Set("base", JsonValue::String("b-1"));
  WalRecovery recorded = Recording(params, std::vector<JsonValue>());
  StatusOr<SessionTimeline> timeline =
      SessionTimeline::Create(std::move(recorded), TimelineOptions{});
  ASSERT_FALSE(timeline.ok());
  EXPECT_NE(timeline.status().message().find("base"), std::string::npos);
}

TEST_F(DebugTimelineTest, ForkAtConsistentEndIsRejected) {
  const JsonValue params = CreateParams(BaseCase());
  StatusOr<LiveRecording> live = RecordDialogue(params);
  ASSERT_TRUE(live.ok()) << live.status();
  StatusOr<SessionTimeline> timeline = SessionTimeline::Create(
      Recording(params, live->entries), TimelineOptions{});
  ASSERT_TRUE(timeline.ok()) << timeline.status();
  StatusOr<ForkBranch> branch =
      timeline->Fork(timeline->num_entries(), 0, 1);
  ASSERT_FALSE(branch.ok());
  EXPECT_NE(branch.status().message().find("consistent"), std::string::npos);
}

// A healthy replay matches the recording and the reference census at
// every step.
TEST_F(DebugTimelineTest, DiffEnginesAgreeOnHealthyRecording) {
  const JsonValue params = CreateParams(BaseCase());
  StatusOr<LiveRecording> live = RecordDialogue(params);
  ASSERT_TRUE(live.ok()) << live.status();
  const WalRecovery recorded =
      Recording(params, live->entries);
  StatusOr<EngineDivergence> result = DiffEngines(recorded);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->diverged) << result->reason;
}

// Tampering a mid-recording answer makes the tail unreplayable;
// diff-engines pinpoints the first step after the tamper, with the
// censuses still agreeing.
TEST_F(DebugTimelineTest, DiffEnginesPinpointsTamperedStep) {
  const JsonValue params = CreateParams(BaseCase());
  StatusOr<LiveRecording> live = RecordDialogue(params);
  ASSERT_TRUE(live.ok()) << live.status();
  std::vector<JsonValue> entries = live->entries;
  // Find an interior step whose question offers an alternative.
  size_t tamper = entries.size();
  for (size_t i = 0; i + 1 < entries.size(); ++i) {
    const JsonValue& fixes = entries[i].Get("question").Get("fixes");
    if (fixes.is_array() && fixes.size() > 1) {
      tamper = i;
      break;
    }
  }
  ASSERT_LT(tamper, entries.size()) << "no multi-fix interior question";
  const size_t original =
      static_cast<size_t>(entries[tamper].Get("chosen").AsInt(0));
  const size_t flipped =
      (original + 1) % entries[tamper].Get("question").Get("fixes").size();
  entries[tamper].Set("chosen",
                      JsonValue::Number(static_cast<int64_t>(flipped)));

  const WalRecovery recorded = Recording(params, entries);
  StatusOr<EngineDivergence> result = DiffEngines(recorded);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->diverged);
  // The tampered entry itself still replays (the flipped fix is one of
  // the question's own), so the first divergence is strictly after it —
  // typically the next entry, later if the flipped answer happens not
  // to affect the immediately following questions.
  EXPECT_GE(result->step, tamper + 2) << result->reason;
  EXPECT_LE(result->step, entries.size()) << result->reason;
  EXPECT_NE(result->reason.find("replay diverges from the recording"),
            std::string::npos)
      << result->reason;
  EXPECT_NE(result->reason.find("censuses agree"), std::string::npos)
      << result->reason;
}

// With the delta census failpoint armed, the maintained census silently
// loses a conflict: diff-engines must report the census split against
// the reference census.
TEST_F(DebugTimelineTest, DiffEnginesBlamesFailpointedIncrementalEngine) {
  // The drop only perturbs questions selected from the maintained
  // phase-two census, so hunt the matrix for a dialogue that ends in
  // phase two: its final answer resolves the last chased conflict,
  // which the failpointed maintained census no longer holds.
  JsonValue params = JsonValue::Null();
  std::optional<LiveRecording> live;
  for (uint64_t seed = 1; seed <= 13 && !live; ++seed) {
    MatrixCase c{seed, Strategy::kOptiMcd, /*two_phase=*/true,
                 /*with_tgds=*/true};
    JsonValue candidate_params = CreateParams(c);
    StatusOr<LiveRecording> candidate = RecordDialogue(candidate_params);
    ASSERT_TRUE(candidate.ok()) << candidate.status();
    if (!candidate->phases.empty() && candidate->phases.back() == 2) {
      params = std::move(candidate_params);
      live.emplace(std::move(*candidate));
    }
  }
  ASSERT_TRUE(live.has_value()) << "no matrix dialogue ends in phase two";
  const WalRecovery recorded =
      Recording(params, live->entries);

  failpoint::Arm("delta.census_drop", /*skip=*/0, /*fail=*/-1);
  StatusOr<EngineDivergence> result = DiffEngines(recorded);
  failpoint::Reset();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->diverged) << "census drop did not perturb the dialogue";
  EXPECT_NE(result->reason.find("maintained census diverges from the "
                                 "reference census"),
            std::string::npos)
      << result->reason;
  EXPECT_LE(result->step, recorded.entries.size()) << result->reason;
  EXPECT_NE(result->maintained_census, result->reference_census);
}

// Daemon recovery and the debugger timeline consume the same WAL through
// the same replay step, so they must agree on every recording: skip an
// fsync ghost identically, and reject an out-of-range `chosen` and a
// recorded fix the regenerated question does not offer, both naming the
// same WAL record. Recovery runs twice — on a private KB and forked from
// a registered shared base; the timeline always forks its replay
// engines from a shared snapshot of the KB the create params rebuild.
class ReplayAgreementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/kbrepair_replay_agreement_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    params_ = CreateParams({3, Strategy::kOptiMcd, /*two_phase=*/true,
                            /*with_tgds=*/true});
    StatusOr<LiveRecording> live = RecordDialogue(params_);
    ASSERT_TRUE(live.ok()) << live.status();
    ASSERT_GE(live->entries.size(), 3u);
    live_ = std::move(*live);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Writes `entries` as the WAL of session `id` under a fresh directory
  // and returns that directory.
  std::string WriteWal(const std::string& id, const JsonValue& create_params,
                       const std::vector<JsonValue>& entries) {
    const std::string dir = dir_ + "/" + id;
    std::filesystem::create_directories(dir);
    StatusOr<std::unique_ptr<SessionWal>> wal = SessionWal::Open(dir, id);
    EXPECT_TRUE(wal.ok()) << wal.status();
    EXPECT_TRUE((*wal)->Append(SessionWal::CreateRecord(create_params)).ok());
    for (const JsonValue& entry : entries) {
      EXPECT_TRUE((*wal)->Append(SessionWal::AnswerRecord(entry)).ok());
    }
    return dir;
  }

  // What daemon recovery made of `entries`, on a private KB or forked
  // from a shared base: the recovered transcript, or the replay error
  // (after checking the manager quarantined the WAL).
  StatusOr<std::vector<std::string>> Recover(
      const std::vector<JsonValue>& entries, bool forked) {
    JsonValue base_params = params_;
    base_params.Set("name", JsonValue::String("shared"));
    auto registry = std::make_shared<BaseRegistry>();
    if (forked) {
      KBREPAIR_RETURN_IF_ERROR(registry->Register(base_params).status());
    }
    const JsonValue create_params = SessionParams(forked);
    const std::string id = forked ? "s-2" : "s-1";
    const std::string dir = WriteWal(id, create_params, entries);
    const std::string path = dir + "/" + id + ".wal";
    KBREPAIR_ASSIGN_OR_RETURN(WalRecovery read, ReadWalFile(path, id));
    if (forked) {
      // As in the daemon, recovery finds the base in bases.jsonl: a
      // first manager on the same WAL directory registers it and shuts
      // down.
      ServiceConfig first_config;
      first_config.wal_dir = dir;
      SessionManager first(first_config);
      ServiceRequest register_base;
      register_base.command = "register-base";
      register_base.params = base_params;
      KBREPAIR_RETURN_IF_ERROR(first.Execute(register_base).status());
    }

    // The replay error, from the session opener and replay member the
    // manager's recovery calls.
    Status replayed = Status::Ok();
    {
      BaseRegistry::Handle base;
      if (forked) {
        KBREPAIR_ASSIGN_OR_RETURN(base, registry->Acquire("shared"));
      }
      KBREPAIR_ASSIGN_OR_RETURN(
          std::unique_ptr<RepairSession> session,
          RepairSession::Open(id, create_params, std::move(base)));
      replayed = session->Replay(read);
    }

    ServiceConfig config;
    config.wal_dir = dir;
    config.recover = true;
    SessionManager manager(config);
    ServiceRequest snapshot;
    snapshot.command = "snapshot";
    snapshot.session_id = id;
    StatusOr<JsonValue> recovered = manager.Execute(snapshot);
    const bool quarantined = std::filesystem::exists(path + ".corrupt");
    EXPECT_EQ(recovered.ok(), replayed.ok()) << replayed;
    EXPECT_EQ(quarantined, !replayed.ok());
    KBREPAIR_RETURN_IF_ERROR(replayed);
    KBREPAIR_RETURN_IF_ERROR(recovered.status());
    std::vector<std::string> transcript;
    const JsonValue& recorded = recovered->Get("transcript").Get("entries");
    for (size_t i = 0; i < recorded.size(); ++i) {
      transcript.push_back(recorded.at(i).Dump());
    }
    return transcript;
  }

  // The timeline's view of the same WAL: Create's validation replay.
  StatusOr<SessionTimeline> Load(const std::vector<JsonValue>& entries) {
    const std::string dir = WriteWal("s-3", params_, entries);
    KBREPAIR_ASSIGN_OR_RETURN(WalRecovery read,
                              ReadWalFile(dir + "/s-3.wal", "s-3"));
    return SessionTimeline::Create(std::move(read), TimelineOptions{});
  }

  // The create params of a private session, or of one forked from the
  // base registered as "shared".
  JsonValue SessionParams(bool forked) const {
    JsonValue params = params_;
    if (forked) params.Set("base", JsonValue::String("shared"));
    return params;
  }

  // Where entry `n` of the WAL of a session holding `entries` sits.
  std::string Where(bool forked, const std::vector<JsonValue>& entries,
                    size_t n) {
    const std::string dir = WriteWal("where", SessionParams(forked), entries);
    StatusOr<WalRecovery> read = ReadWalFile(dir + "/where.wal", "where");
    EXPECT_TRUE(read.ok()) << read.status();
    std::filesystem::remove_all(dir);
    return WalEntryWhere(*read, n);
  }

  // Both recovery modes and the timeline reject `entries`, each naming
  // entry `n`'s WAL record and byte offset and `why`.
  void ExpectRejectedByAll(const std::vector<JsonValue>& entries, size_t n,
                           const std::string& why) {
    for (const bool forked : {false, true}) {
      SCOPED_TRACE(forked ? "forked recovery" : "private recovery");
      const std::string where = Where(forked, entries, n);
      EXPECT_NE(where.find("byte offset"), std::string::npos) << where;
      StatusOr<std::vector<std::string>> recovered = Recover(entries, forked);
      ASSERT_FALSE(recovered.ok());
      EXPECT_NE(recovered.status().message().find(where), std::string::npos)
          << recovered.status();
      EXPECT_NE(recovered.status().message().find(why), std::string::npos)
          << recovered.status();
    }
    StatusOr<SessionTimeline> timeline = Load(entries);
    ASSERT_FALSE(timeline.ok());
    const std::string where = Where(/*forked=*/false, entries, n);
    EXPECT_NE(timeline.status().message().find(where), std::string::npos)
        << timeline.status();
    EXPECT_NE(timeline.status().message().find(why), std::string::npos)
        << timeline.status();
  }

  std::string dir_;
  JsonValue params_ = JsonValue::Null();
  LiveRecording live_;
};

TEST_F(ReplayAgreementTest, GhostIsSkippedByRecoveryAndTimelineAlike) {
  std::vector<JsonValue> entries = live_.entries;
  const size_t dup_at = entries.size() / 2;
  entries.insert(entries.begin() + dup_at, entries[dup_at]);
  std::vector<std::string> expected;
  for (const JsonValue& entry : live_.entries) expected.push_back(entry.Dump());

  for (const bool forked : {false, true}) {
    SCOPED_TRACE(forked ? "forked recovery" : "private recovery");
    StatusOr<std::vector<std::string>> recovered = Recover(entries, forked);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(*recovered, expected);
  }
  StatusOr<SessionTimeline> timeline = Load(entries);
  ASSERT_TRUE(timeline.ok()) << timeline.status();
  EXPECT_TRUE(timeline->note(dup_at + 1).ghost);
  EXPECT_EQ(timeline->num_questions(), live_.entries.size());
  ASSERT_TRUE(timeline->ReplayVerify().ok());
  ASSERT_TRUE(timeline->SeekTo(timeline->num_entries()).ok());
  EXPECT_EQ(timeline->StateHash(), live_.final_hash);
}

TEST_F(ReplayAgreementTest, OutOfRangeChoiceIsRejectedByRecoveryAndTimeline) {
  std::vector<JsonValue> entries = live_.entries;
  entries[1].Set("chosen", JsonValue::Number(int64_t{999}));
  ExpectRejectedByAll(entries, 1, "chose a fix index out of range");
}

TEST_F(ReplayAgreementTest, UnofferedFixIsRejectedByRecoveryAndTimeline) {
  std::vector<JsonValue> entries = live_.entries;
  const size_t chosen =
      static_cast<size_t>(entries[1].Get("chosen").AsInt(0));
  JsonValue question = entries[1].Get("question");
  JsonValue fixes = question.Get("fixes");
  JsonValue fix = fixes.at(chosen);
  fix.Set("kind", JsonValue::String("constant"));
  fix.Set("value", JsonValue::String("never-offered"));
  JsonValue rewritten = JsonValue::Array();
  for (size_t i = 0; i < fixes.size(); ++i) {
    rewritten.Append(i == chosen ? fix : fixes.at(i));
  }
  question.Set("fixes", std::move(rewritten));
  entries[1].Set("question", std::move(question));
  ExpectRejectedByAll(entries, 1, "recorded fix not offered");
}

}  // namespace
}  // namespace debug
}  // namespace kbrepair
