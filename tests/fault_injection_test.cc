// Fault-injection matrix: every registered failpoint is armed and the
// specified outcome asserted — a clean error envelope, an engine
// rebuild, or DeadlineExceeded. In every case the service keeps
// serving and no acknowledged state is lost.
//
// Registered failpoints:
//   wal.append      WAL write fails      -> command rejected Unavailable
//   wal.fsync       WAL durability fails -> rejected + counted, retryable
//   fs.enospc       WAL disk full        -> create/answer ResourceExhausted,
//                                          close proceeds, shard degraded
//   wal.torn_write  short write + ENOSPC -> as fs.enospc, and the partial
//                                          record is cut back off the log
//   chase.saturate  chase blows up       -> error envelope, no crash
//   delta.corrupt   delta engine diverges-> dropped and rebuilt cold,
//                                          dialogue continues unchanged
//   fs.atomic_write transcript / bases.jsonl rewrite fails -> counted, logged
//   fs.fsync        durability step of atomic writes fails
//   worker.stall    wedged worker        -> DeadlineExceeded + watchdog

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "repair/inquiry.h"
#include "service/protocol.h"
#include "service/session.h"
#include "service/session_manager.h"
#include "service/wal.h"
#include "support/temp_dir.h"
#include "util/cancel.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/json.h"

namespace kbrepair {
namespace {

JsonValue CreateParams(uint64_t seed) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("create"));
  params.Set("kb", JsonValue::String("synthetic"));
  params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(seed)));
  params.Set("num_facts", JsonValue::Number(int64_t{40}));
  params.Set("strategy", JsonValue::String("random"));
  params.Set("seed", JsonValue::Number(static_cast<int64_t>(seed)));
  return params;
}

ServiceRequest MakeRequest(JsonValue params) {
  ServiceRequest request;
  request.command = params.Get("command").AsString();
  request.session_id = params.Get("session").AsString();
  request.params = std::move(params);
  return request;
}

ServiceRequest SessionCommand(const std::string& command,
                              const std::string& session) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String(command));
  params.Set("session", JsonValue::String(session));
  return MakeRequest(std::move(params));
}

ServiceRequest AnswerCommand(const std::string& session, int64_t choice) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("answer"));
  params.Set("session", JsonValue::String(session));
  params.Set("choice", JsonValue::Number(choice));
  return MakeRequest(std::move(params));
}

JsonValue GetMetrics(SessionManager& manager) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> metrics = manager.Execute(MakeRequest(std::move(params)));
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  return metrics.ok() ? *metrics : JsonValue::Object();
}

// Failpoints are process-global; every test starts and ends clean.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Reset(); }
  void TearDown() override { failpoint::Reset(); }
};

// ------------------------------------------------------------------
// The registry itself.

TEST_F(FaultInjectionTest, ArmSkipFailSemantics) {
  failpoint::Arm("t.point", /*skip=*/2, /*fail=*/2);
  EXPECT_FALSE(failpoint::ShouldFail("t.point"));
  EXPECT_FALSE(failpoint::ShouldFail("t.point"));
  EXPECT_TRUE(failpoint::ShouldFail("t.point"));
  EXPECT_TRUE(failpoint::ShouldFail("t.point"));
  EXPECT_FALSE(failpoint::ShouldFail("t.point"));  // exhausted
  EXPECT_EQ(failpoint::Hits("t.point"), 5u);
  EXPECT_FALSE(failpoint::ShouldFail("t.never_armed"));
}

TEST_F(FaultInjectionTest, ConfigureParsesTheSpecGrammar) {
  ASSERT_TRUE(failpoint::Configure("a.forever,b.counted=2,c.offset=1:1").ok());
  EXPECT_TRUE(failpoint::ShouldFail("a.forever"));
  EXPECT_TRUE(failpoint::ShouldFail("a.forever"));  // -1 = forever
  EXPECT_TRUE(failpoint::ShouldFail("b.counted"));
  EXPECT_TRUE(failpoint::ShouldFail("b.counted"));
  EXPECT_FALSE(failpoint::ShouldFail("b.counted"));
  EXPECT_FALSE(failpoint::ShouldFail("c.offset"));
  EXPECT_TRUE(failpoint::ShouldFail("c.offset"));
  EXPECT_FALSE(failpoint::ShouldFail("c.offset"));
  EXPECT_FALSE(failpoint::Configure("bad=not_a_number").ok());
  EXPECT_FALSE(failpoint::Configure("=3").ok());
}

TEST_F(FaultInjectionTest, DisarmAndResetClear) {
  failpoint::Arm("t.x", 0, -1);
  EXPECT_TRUE(failpoint::ShouldFail("t.x"));
  failpoint::Disarm("t.x");
  EXPECT_FALSE(failpoint::ShouldFail("t.x"));
  failpoint::Arm("t.y", 0, -1);
  failpoint::Reset();
  EXPECT_FALSE(failpoint::ShouldFail("t.y"));
}

// ------------------------------------------------------------------
// Cooperative cancellation.

TEST_F(FaultInjectionTest, CancelTokenExpires) {
  CancelToken token;
  EXPECT_FALSE(token.armed());
  EXPECT_TRUE(token.Check("idle").ok());
  token.ArmDeadline(0);  // non-positive budget = already expired
  EXPECT_TRUE(token.armed());
  EXPECT_TRUE(token.Expired());
  const Status status = token.Check("chase");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  token.Disarm();
  EXPECT_TRUE(token.Check("chase").ok());
}

TEST_F(FaultInjectionTest, ChaseHonorsCancelToken) {
  // An engine built with a pre-expired token must refuse to chase,
  // surfacing DeadlineExceeded instead of burning the worker.
  const JsonValue params = CreateParams(1);
  std::string label;
  StatusOr<KnowledgeBase> kb = BuildKbFromParams(params, &label);
  ASSERT_TRUE(kb.ok()) << kb.status();
  StatusOr<InquiryOptions> options = InquiryOptionsFromParams(params);
  ASSERT_TRUE(options.ok());
  auto cancel = std::make_shared<CancelToken>();
  cancel->ArmDeadline(0);
  options->chase_options.cancel = cancel;
  InquiryEngine engine(&*kb, *options);
  const Status begun = engine.Begin();
  ASSERT_FALSE(begun.ok());
  EXPECT_EQ(begun.code(), StatusCode::kDeadlineExceeded) << begun;
}

// ------------------------------------------------------------------
// Filesystem failpoints.

TEST_F(FaultInjectionTest, AtomicWriteFailpointsLeaveTargetIntact) {
  TempDir dir("kbrepair_fault_");
  const std::string path = dir.path + "/file.json";
  ASSERT_TRUE(AtomicWriteFile(path, "original\n").ok());

  failpoint::Arm("fs.atomic_write", 0, 1);
  EXPECT_FALSE(AtomicWriteFile(path, "clobbered\n").ok());
  failpoint::Arm("fs.fsync", 0, 1);
  EXPECT_FALSE(AtomicWriteFile(path, "clobbered\n").ok());

  // Both failures left the original contents untouched.
  EXPECT_TRUE(AtomicWriteFile(path, "updated\n").ok());
}

TEST_F(FaultInjectionTest, TranscriptWriteFailureIsCountedNotFatal) {
  TempDir transcripts("kbrepair_fault_");
  ServiceConfig config;
  config.num_workers = 1;
  config.transcript_dir = transcripts.path;
  SessionManager manager(config);
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateParams(5)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  failpoint::Arm("fs.atomic_write", 0, -1);
  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  StatusOr<JsonValue> closed = manager.Execute(MakeRequest(close));
  // The close itself succeeds — only the best-effort flush failed, and
  // it failed *visibly*.
  ASSERT_TRUE(closed.ok()) << closed.status();
  failpoint::Reset();
  const JsonValue metrics = GetMetrics(manager);
  EXPECT_GE(metrics.Get("durability").Get("transcript_write_failures").AsInt(0),
            1);
}

// ------------------------------------------------------------------
// WAL failpoints: log-before-execute means an unloggable command is
// rejected, never half-applied.

TEST_F(FaultInjectionTest, WalAppendFailureRejectsCreate) {
  TempDir wal_dir("kbrepair_fault_");
  ServiceConfig config;
  config.num_workers = 1;
  config.wal_dir = wal_dir.path;
  SessionManager manager(config);

  failpoint::Arm("wal.append", 0, -1);
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateParams(5)));
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kUnavailable);
  // No session registered, no stray WAL file.
  EXPECT_TRUE(ListWalSessionIds(wal_dir.path).empty());

  // The service survives: disarm and the same create succeeds.
  failpoint::Reset();
  StatusOr<JsonValue> retried =
      manager.Execute(MakeRequest(CreateParams(5)));
  ASSERT_TRUE(retried.ok()) << retried.status();
  const JsonValue metrics = GetMetrics(manager);
  EXPECT_GE(metrics.Get("traffic").Get("rejected_commands").AsInt(0), 1);
}

TEST_F(FaultInjectionTest, WalFsyncFailureRejectsAnswerRetryably) {
  TempDir wal_dir("kbrepair_fault_");
  ServiceConfig config;
  config.num_workers = 1;
  config.wal_dir = wal_dir.path;
  SessionManager manager(config);
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateParams(5)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  StatusOr<JsonValue> asked = manager.Execute(SessionCommand("ask", session));
  ASSERT_TRUE(asked.ok()) << asked.status();
  ASSERT_FALSE(asked->Get("done").AsBool(false));
  const std::string question_dump = asked->Get("question").Dump();

  failpoint::Arm("wal.fsync", 0, 1);
  StatusOr<JsonValue> answered = manager.Execute(AnswerCommand(session, 0));
  ASSERT_FALSE(answered.ok());
  EXPECT_EQ(answered.status().code(), StatusCode::kUnavailable);

  // Nothing was applied: the same question is still pending, and the
  // retried answer succeeds exactly once.
  StatusOr<JsonValue> re_asked =
      manager.Execute(SessionCommand("ask", session));
  ASSERT_TRUE(re_asked.ok()) << re_asked.status();
  EXPECT_EQ(re_asked->Get("question").Dump(), question_dump);
  StatusOr<JsonValue> retried = manager.Execute(AnswerCommand(session, 0));
  ASSERT_TRUE(retried.ok()) << retried.status();

  const JsonValue metrics = GetMetrics(manager);
  EXPECT_GE(metrics.Get("durability").Get("wal_fsync_failures").AsInt(0), 1);
  EXPECT_GE(metrics.Get("traffic").Get("rejected_commands").AsInt(0), 1);
}

// The WAL failure policy (docs/SERVICE.md, "Write-ahead log"), one cell
// per {create, answer, close} x {wal.append, wal.fsync, fs.enospc,
// wal.torn_write}: the reply code, the metric deltas, and the degraded
// gauge read straight after the reply.

struct WalPolicyCell {
  const char* command;
  const char* failpoint;
  StatusCode code;
  int64_t fsync_failures;
  int64_t disk_full_failures;
  int64_t rejected;
  int64_t degraded;
};

constexpr WalPolicyCell kWalPolicy[] = {
    {"create", "wal.append", StatusCode::kUnavailable, 0, 0, 1, 0},
    {"create", "wal.fsync", StatusCode::kUnavailable, 1, 0, 1, 0},
    {"create", "fs.enospc", StatusCode::kResourceExhausted, 0, 1, 1, 1},
    {"answer", "wal.append", StatusCode::kUnavailable, 0, 0, 1, 0},
    {"answer", "wal.fsync", StatusCode::kUnavailable, 1, 0, 1, 0},
    {"answer", "fs.enospc", StatusCode::kResourceExhausted, 0, 1, 1, 1},
    {"close", "wal.append", StatusCode::kUnavailable, 0, 0, 1, 0},
    {"close", "wal.fsync", StatusCode::kUnavailable, 1, 0, 1, 0},
    // Close proceeds without its record: closing frees the disk.
    {"close", "fs.enospc", StatusCode::kOk, 0, 1, 0, 1},
    // A short write and then a full disk fares exactly like a full disk.
    {"create", "wal.torn_write", StatusCode::kResourceExhausted, 0, 1, 1, 1},
    {"answer", "wal.torn_write", StatusCode::kResourceExhausted, 0, 1, 1, 1},
    {"close", "wal.torn_write", StatusCode::kOk, 0, 1, 0, 1},
};

TEST_F(FaultInjectionTest, WalFailurePolicyTable) {
  for (const WalPolicyCell& cell : kWalPolicy) {
    const std::string command = cell.command;
    SCOPED_TRACE(command + " x " + cell.failpoint);
    failpoint::Reset();
    TempDir wal_dir("kbrepair_fault_");
    ServiceConfig config;
    config.num_workers = 1;
    config.wal_dir = wal_dir.path;
    SessionManager manager(config);

    std::string session;
    std::string question_dump;
    if (command != "create") {
      StatusOr<JsonValue> created =
          manager.Execute(MakeRequest(CreateParams(5)));
      ASSERT_TRUE(created.ok()) << created.status();
      session = created->Get("session").AsString();
      StatusOr<JsonValue> asked =
          manager.Execute(SessionCommand("ask", session));
      ASSERT_TRUE(asked.ok()) << asked.status();
      ASSERT_FALSE(asked->Get("done").AsBool(false));
      question_dump = asked->Get("question").Dump();
    }
    const auto request = [&] {
      if (command == "create") return MakeRequest(CreateParams(5));
      if (command == "answer") return AnswerCommand(session, 0);
      return SessionCommand("close", session);
    };

    const JsonValue before = GetMetrics(manager);
    // Armed for good until the metrics are read, so the reaper's write
    // probe cannot clear the degraded gauge first.
    failpoint::Arm(cell.failpoint, 0, -1);
    StatusOr<JsonValue> reply = manager.Execute(request());
    const JsonValue after = GetMetrics(manager);
    failpoint::Reset();

    EXPECT_EQ(reply.status().code(), cell.code) << reply.status();
    const auto delta = [&](const char* group, const char* name) {
      return after.Get(group).Get(name).AsInt(0) -
             before.Get(group).Get(name).AsInt(0);
    };
    EXPECT_EQ(delta("durability", "wal_appends"), 0);
    EXPECT_EQ(delta("durability", "wal_fsync_failures"), cell.fsync_failures);
    EXPECT_EQ(delta("durability", "wal_disk_full_failures"),
              cell.disk_full_failures);
    EXPECT_EQ(delta("traffic", "rejected_commands"), cell.rejected);
    EXPECT_EQ(after.Get("durability").Get("wal_degraded").AsInt(-1),
              cell.degraded);

    if (command == "answer") {
      // Nothing was applied: the same question is still pending.
      StatusOr<JsonValue> re_asked =
          manager.Execute(SessionCommand("ask", session));
      ASSERT_TRUE(re_asked.ok()) << re_asked.status();
      EXPECT_EQ(re_asked->Get("question").Dump(), question_dump);
    }
    if (command == "create" || cell.code == StatusCode::kOk) {
      // A rejected create leaves no WAL to resurrect, and a close that
      // ran removed its WAL.
      EXPECT_TRUE(ListWalSessionIds(wal_dir.path).empty());
    }
    if (cell.code == StatusCode::kOk) continue;
    // The rejected command retries cleanly once the disk is back (a
    // disk-full shard sheds it until the reaper's probe succeeds).
    StatusOr<JsonValue> retried = manager.Execute(request());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!retried.ok() &&
           retried.status().code() == StatusCode::kResourceExhausted &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      retried = manager.Execute(request());
    }
    EXPECT_TRUE(retried.ok()) << retried.status();
  }
}

// ------------------------------------------------------------------
// Engine failpoints.

TEST_F(FaultInjectionTest, ChaseSaturationFaultIsACleanError) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);

  failpoint::Arm("chase.saturate", 0, -1);
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateParams(5)));
  ASSERT_FALSE(created.ok());  // error envelope, not a crash

  failpoint::Reset();
  StatusOr<JsonValue> retried =
      manager.Execute(MakeRequest(CreateParams(5)));
  ASSERT_TRUE(retried.ok()) << retried.status();
  const JsonValue metrics = GetMetrics(manager);
  EXPECT_GE(metrics.Get("sessions").Get("failed").AsInt(0), 1);
}

TEST_F(FaultInjectionTest, DeltaCorruptionRebuildsEngineMidSession) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  const JsonValue params = CreateParams(7);
  StatusOr<JsonValue> created = manager.Execute(MakeRequest(params));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  // The in-process reference: the same dialogue with no fault armed.
  std::string label;
  StatusOr<KnowledgeBase> kb = BuildKbFromParams(params, &label);
  ASSERT_TRUE(kb.ok()) << kb.status();
  StatusOr<InquiryOptions> options = InquiryOptionsFromParams(params);
  ASSERT_TRUE(options.ok()) << options.status();
  InquiryEngine reference(&*kb, *options);
  ASSERT_TRUE(reference.Begin().ok());

  // Always answer 0; the engine's post-fix invariant check "detects
  // divergence" on the first answer. The session drops the engine and
  // rebuilds it cold instead of failing, and every question stays
  // byte-identical to the reference's.
  for (int turn = 0; turn < 100000; ++turn) {
    StatusOr<JsonValue> asked = manager.Execute(SessionCommand("ask", session));
    ASSERT_TRUE(asked.ok()) << asked.status();
    StatusOr<const Question*> expected = reference.NextQuestion();
    ASSERT_TRUE(expected.ok()) << expected.status();
    if (asked->Get("done").AsBool(false)) {
      EXPECT_EQ(*expected, nullptr) << "service finished before the engine";
      break;
    }
    ASSERT_NE(*expected, nullptr) << "engine finished before the service";
    EXPECT_EQ(asked->Get("question").Dump(),
              QuestionToWireJson(**expected, reference.View()).Dump())
        << "turn " << turn;
    if (turn == 0) failpoint::Arm("delta.corrupt", 0, 1);
    StatusOr<JsonValue> answered = manager.Execute(AnswerCommand(session, 0));
    ASSERT_TRUE(answered.ok()) << answered.status();
    if (turn == 0) {
      // Both maintained engines (chased census and Π-skeleton) evaluate
      // the failpoint once per answer; only the first hit fails.
      EXPECT_EQ(failpoint::Hits("delta.corrupt"), 2u);
      failpoint::Reset();
    }
    ASSERT_TRUE(reference.Answer(0).ok());
  }
  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  close.Set("include_facts", JsonValue::Bool(true));
  StatusOr<JsonValue> closed = manager.Execute(MakeRequest(close));
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_TRUE(closed->Get("consistent").AsBool(false));
  StatusOr<InquiryResult> repaired = reference.Finish();
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  JsonValue expected_facts = JsonValue::Array();
  for (AtomId id = 0; id < repaired->facts.size(); ++id) {
    expected_facts.Append(
        JsonValue::String(repaired->facts.atom(id).ToString(kb->symbols())));
  }
  EXPECT_EQ(closed->Get("facts").Dump(), expected_facts.Dump());
  EXPECT_EQ(repaired->engine_rebuilds, 0u);

  const JsonValue metrics = GetMetrics(manager);
  EXPECT_EQ(metrics.Get("durability").Get("engine_rebuilds").AsInt(0), 1);
}

// ------------------------------------------------------------------
// Worker watchdog.

TEST_F(FaultInjectionTest, WorkerStallIsDetectedAndDeadlined) {
  ServiceConfig config;
  config.num_workers = 2;
  config.deadline_ms = 50;  // stall threshold 4x = 200ms
  SessionManager manager(config);
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateParams(5)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  failpoint::Arm("worker.stall", 0, 1);
  StatusOr<JsonValue> stalled =
      manager.Execute(SessionCommand("status", session));
  ASSERT_FALSE(stalled.ok());
  EXPECT_EQ(stalled.status().code(), StatusCode::kDeadlineExceeded);

  // The worker came back, the watchdog saw the stall, and the command
  // was accounted as deadline-exceeded.
  StatusOr<JsonValue> after = manager.Execute(SessionCommand("status", session));
  ASSERT_TRUE(after.ok()) << after.status();
  const JsonValue metrics = GetMetrics(manager);
  EXPECT_GE(metrics.Get("durability").Get("worker_stalls").AsInt(0), 1);
  EXPECT_GE(metrics.Get("traffic").Get("deadline_exceeded").AsInt(0), 1);
}

}  // namespace
}  // namespace kbrepair
