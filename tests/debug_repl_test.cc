// DebugRepl command-layer tests: stepping, inspection output,
// breakpoints, forking, and the diff command, all over an in-memory
// recording driven through the real engine.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "debug/repl.h"
#include "debug/timeline.h"
#include "repair/inquiry.h"
#include "repair/session_log.h"
#include "service/session.h"
#include "service/wal.h"
#include "util/json.h"
#include "util/rng.h"

namespace kbrepair {
namespace debug {
namespace {

JsonValue SmallParams() {
  JsonValue p = JsonValue::Object();
  p.Set("kb", JsonValue::String("synthetic"));
  p.Set("kb_seed", JsonValue::Number(int64_t{5}));
  p.Set("num_facts", JsonValue::Number(int64_t{60}));
  p.Set("inconsistency_ratio", JsonValue::Number(0.25));
  p.Set("num_cdds", JsonValue::Number(int64_t{5}));
  p.Set("num_tgds", JsonValue::Number(int64_t{6}));
  p.Set("conflict_depth", JsonValue::Number(int64_t{2}));
  p.Set("routed_violation_share", JsonValue::Number(0.5));
  p.Set("strategy", JsonValue::String("opti-mcd"));
  p.Set("two_phase", JsonValue::Bool(true));
  p.Set("seed", JsonValue::Number(int64_t{88}));
  p.Set("record_convergence", JsonValue::String("total"));
  return p;
}

// Replays a live dialogue into transcript entries.
std::vector<JsonValue> RecordEntries(const JsonValue& params) {
  std::string label;
  StatusOr<KnowledgeBase> kb = BuildKbFromParams(params, &label);
  EXPECT_TRUE(kb.ok()) << kb.status();
  StatusOr<InquiryOptions> options = InquiryOptionsFromParams(params);
  EXPECT_TRUE(options.ok()) << options.status();
  InquiryEngine engine(&*kb, *options);
  EXPECT_TRUE(engine.Begin().ok());
  Rng chooser(42);
  std::vector<JsonValue> entries;
  while (true) {
    StatusOr<const Question*> q = engine.NextQuestion();
    EXPECT_TRUE(q.ok()) << q.status();
    if (*q == nullptr) break;
    const size_t choice = chooser.UniformIndex((*q)->fixes.size());
    entries.push_back(SessionTranscript::EntryToJson(
        TranscriptEntry{**q, choice}, kb->symbols()));
    EXPECT_TRUE(engine.Answer(choice).ok());
  }
  return entries;
}

class DebugReplTest : public ::testing::Test {
 protected:
  void SetUp() override {
    params_ = SmallParams();
    entries_ = RecordEntries(params_);
    ASSERT_GE(entries_.size(), 2u);
    WalRecovery recording;
    recording.create_params = params_;
    recording.entries = entries_;
    StatusOr<SessionTimeline> timeline =
        SessionTimeline::Create(std::move(recording), TimelineOptions{});
    ASSERT_TRUE(timeline.ok()) << timeline.status();
    timeline_.emplace(std::move(*timeline));
    repl_.emplace(&*timeline_, &out_);
  }

  // Executes one command on the shared repl (so state like breakpoints
  // persists across commands), asserting success, and returns its output.
  std::string Exec(const std::string& line) {
    out_.str("");
    bool quit = false;
    const Status status = repl_->ExecLine(line, &quit);
    EXPECT_TRUE(status.ok()) << "'" << line << "': " << status;
    return out_.str();
  }

  JsonValue params_ = JsonValue::Null();
  std::vector<JsonValue> entries_;
  std::optional<SessionTimeline> timeline_;
  std::ostringstream out_;
  std::optional<DebugRepl> repl_;
};

TEST_F(DebugReplTest, InfoAndListDescribeTheRecording) {
  const std::string info = Exec("info");
  EXPECT_NE(info.find("entries: " + std::to_string(entries_.size())),
            std::string::npos)
      << info;
  EXPECT_NE(info.find("engine rebuilds: 0"), std::string::npos) << info;
  const std::string list = Exec("list");
  EXPECT_NE(list.find("step   1"), std::string::npos) << list;
  EXPECT_NE(list.find("phase"), std::string::npos) << list;
}

TEST_F(DebugReplTest, SteppingMovesTheCursor) {
  Exec("goto 0");
  EXPECT_EQ(timeline_->position(), 0u);
  Exec("step");
  EXPECT_EQ(timeline_->position(), 1u);
  Exec("step 2");
  EXPECT_EQ(timeline_->position(), 3u <= entries_.size() ? 3u
                                                         : entries_.size());
  Exec("back");
  const size_t before_run = timeline_->position();
  EXPECT_GT(before_run, 0u);
  Exec("run");
  EXPECT_EQ(timeline_->position(), entries_.size());
}

TEST_F(DebugReplTest, InspectionCommandsRender) {
  Exec("goto 0");
  const std::string question = Exec("question");
  EXPECT_NE(question.find("[0]"), std::string::npos) << question;
  const std::string census = Exec("census");
  EXPECT_NE(census.find("conflict"), std::string::npos) << census;
  const std::string pi = Exec("pi");
  EXPECT_NE(pi.find("|Pi| = 0"), std::string::npos) << pi;
  const std::string facts = Exec("facts");
  EXPECT_NE(facts.find("facts"), std::string::npos) << facts;
  const std::string hash = Exec("hash");
  EXPECT_NE(hash.find("state hash"), std::string::npos) << hash;
  // Provenance of the first answered atom.
  const AtomId atom = timeline_->note(0).chosen_atom;
  const std::string cone = Exec("cone " + std::to_string(atom));
  EXPECT_NE(cone.find("support cone"), std::string::npos) << cone;
  EXPECT_NE(cone.find("census conflict"), std::string::npos) << cone;
  // At the end of the recording the dialogue is consistent.
  Exec("goto " + std::to_string(entries_.size()));
  EXPECT_NE(Exec("question").find("consistent"), std::string::npos);
}

TEST_F(DebugReplTest, FixBreakpointStopsRunAtTheTouchingStep) {
  // Break on the atom the third step's answer rewrites.
  size_t target = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (!timeline_->note(i).ghost) target = i;
    if (i >= 2) break;
  }
  const AtomId atom = timeline_->note(target).chosen_atom;
  Exec("goto 0");
  const std::string set = Exec("break fix " + std::to_string(atom));
  EXPECT_NE(set.find("breakpoint set"), std::string::npos) << set;
  const std::string run = Exec("run");
  EXPECT_NE(run.find("breakpoint at step"), std::string::npos) << run;
  // It stopped at or before the known touching step (an earlier answer
  // may touch the same atom), and the note there matches.
  ASSERT_GT(timeline_->position(), 0u);
  ASSERT_LE(timeline_->position(), target + 1);
  EXPECT_EQ(timeline_->note(timeline_->position() - 1).chosen_atom, atom);
  Exec("break clear");
  const std::string cleared = Exec("break list");
  EXPECT_NE(cleared.find("(none)"), std::string::npos) << cleared;
}

TEST_F(DebugReplTest, ConflictBreakpointStopsWhilePredicateStillBurns) {
  Exec("goto 0");
  // Pick a predicate from the initial census support.
  StatusOr<std::vector<Conflict>> census = timeline_->Census();
  ASSERT_TRUE(census.ok()) << census.status();
  ASSERT_FALSE(census->empty());
  ASSERT_FALSE(census->front().support.empty());
  const AtomId support_atom = census->front().support.front();
  const std::string pred = timeline_->kb().symbols().predicate_name(
      timeline_->engine().working_facts().atom(support_atom).predicate);
  Exec("break conflict " + pred);
  const std::string run = Exec("run");
  // Either some step still has a conflict on that predicate (breakpoint
  // fires) or the first answer already cleared it (run reaches the end).
  if (run.find("breakpoint at step") != std::string::npos) {
    StatusOr<std::vector<Conflict>> now = timeline_->Census();
    ASSERT_TRUE(now.ok());
    bool found = false;
    for (const Conflict& conflict : *now) {
      for (AtomId id : conflict.support) {
        found = found ||
                timeline_->kb().symbols().predicate_name(
                    timeline_->engine().working_facts().atom(id).predicate) ==
                    pred;
      }
    }
    EXPECT_TRUE(found);
  } else {
    EXPECT_EQ(timeline_->position(), entries_.size());
  }
}

TEST_F(DebugReplTest, ForkReportsBranchSummary) {
  Exec("goto 1");
  const std::string fork = Exec("fork 0 7");
  EXPECT_NE(fork.find("fork from step 1"), std::string::npos) << fork;
  EXPECT_NE(fork.find("reached consistency"), std::string::npos) << fork;
  // Forking does not move the cursor.
  EXPECT_EQ(timeline_->position(), 1u);
}

TEST_F(DebugReplTest, DiffCommandReportsAgreement) {
  const std::string diff = Exec("diff");
  EXPECT_NE(diff.find("no divergence"), std::string::npos) << diff;
}

TEST_F(DebugReplTest, UnknownCommandFailsWithoutKillingTheLoop) {
  std::ostringstream out;
  DebugRepl repl(&*timeline_, &out);
  std::istringstream script("bogus\ninfo\nquit\n");
  const size_t failures = repl.RunLoop(script, /*prompt=*/false);
  EXPECT_EQ(failures, 1u);
  EXPECT_NE(out.str().find("error:"), std::string::npos);
  EXPECT_NE(out.str().find("entries:"), std::string::npos);
}

}  // namespace
}  // namespace debug
}  // namespace kbrepair
