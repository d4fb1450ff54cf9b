// Crash recovery: a session interrupted mid-dialogue and rebuilt from
// its WAL must be byte-identical to one that was never interrupted.
//
// Two layers of coverage:
//  * In-process: drive a SessionManager with a WAL dir, drop it
//    mid-dialogue, start a fresh manager with recover=true and compare
//    snapshots and close outputs byte-for-byte against an uninterrupted
//    reference — across three strategies, each once with the conflict
//    engine rebuilt from scratch before the crash (the "Scratch"
//    cases, via the delta.corrupt failpoint) and once without; plus a
//    log folded into the compacted form older daemons wrote, and one
//    whose second answer append was torn and retried.
//  * Daemon-level: spawn the real kbrepaird (KBREPAIRD_PATH), kill -9 it
//    mid-dialogue, restart with --recover-dir, and finish the dialogue;
//    the repaired fact base must match the uninterrupted run exactly.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "debug/timeline.h"
#include "service/daemon_client.h"
#include "service/session_manager.h"
#include "service/wal.h"
#include "support/temp_dir.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

// An empty `engine` leaves the param out (the default engine).
JsonValue CreateParams(uint64_t seed, const std::string& strategy,
                       const std::string& engine = "",
                       int64_t num_facts = 40) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("create"));
  params.Set("kb", JsonValue::String("synthetic"));
  params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(seed)));
  params.Set("num_facts", JsonValue::Number(num_facts));
  params.Set("strategy", JsonValue::String(strategy));
  if (!engine.empty()) params.Set("engine", JsonValue::String(engine));
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

// The deterministic part of a close response: everything except the
// wall-clock timing fields, which legitimately differ between runs.
std::string CloseFingerprint(const JsonValue& closed) {
  JsonValue out = JsonValue::Object();
  out.Set("session", closed.Get("session"));
  out.Set("consistent", closed.Get("consistent"));
  out.Set("questions", closed.Get("questions"));
  out.Set("applied_fixes", closed.Get("applied_fixes"));
  out.Set("facts", closed.Get("facts"));
  return out.Dump();
}

// Drives an uninterrupted reference session to completion, returning
// the full choice sequence plus the snapshot dump after `split` answers
// and the close output fingerprint.
struct ReferenceRun {
  std::vector<int64_t> choices;
  std::string mid_snapshot;
  std::string close_output;
};

StatusOr<ReferenceRun> RunReference(const JsonValue& create_params,
                                    uint64_t seed, size_t split) {
  ServiceConfig config;
  config.num_workers = 2;
  SessionManager manager(config);
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue created,
                            manager.Execute(MakeRequest(create_params)));
  const std::string session = created.Get("session").AsString();

  ReferenceRun run;
  Rng rng(seed);
  for (;;) {
    KBREPAIR_ASSIGN_OR_RETURN(
        JsonValue asked, manager.Execute(SessionCommand("ask", session)));
    if (asked.Get("done").AsBool(false)) break;
    const int64_t num_fixes = asked.Get("question").Get("num_fixes").AsInt(0);
    const int64_t choice = static_cast<int64_t>(
        rng.UniformIndex(static_cast<size_t>(num_fixes)));
    run.choices.push_back(choice);
    KBREPAIR_RETURN_IF_ERROR(
        manager.Execute(AnswerCommand(session, choice)).status());
    if (run.choices.size() == split) {
      KBREPAIR_ASSIGN_OR_RETURN(
          JsonValue snap, manager.Execute(SessionCommand("snapshot", session)));
      run.mid_snapshot = snap.Dump();
    }
  }
  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  close.Set("include_facts", JsonValue::Bool(true));
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue closed,
                            manager.Execute(MakeRequest(close)));
  run.close_output = CloseFingerprint(closed);
  return run;
}

// The WAL's framing: "<len> <crc32c-hex8> <payload>\n".
std::string Framed(const std::string& payload) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32c(payload));
  return std::to_string(payload.size()) + " " + crc + " " + payload + "\n";
}

// Rewrites a three-answer WAL in the compacted form older daemons
// wrote: the header, one snapshot record of the create params and the
// first two answers, then the third answer's own record.
void FoldIntoCompactedForm(const std::string& path, const std::string& id) {
  StatusOr<WalRecovery> read = ReadWalFile(path, id);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->entries.size(), 3u);
  JsonValue snapshot = JsonValue::Object();
  snapshot.Set("op", JsonValue::String("snapshot"));
  snapshot.Set("params", read->create_params);
  JsonValue entries = JsonValue::Array();
  entries.Append(read->entries[0]);
  entries.Append(read->entries[1]);
  snapshot.Set("entries", std::move(entries));
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << "#kbrepair-wal v2\n"
      << Framed(snapshot.Dump())
      << Framed(SessionWal::AnswerRecord(read->entries[2]).Dump());
}

// What phase one leaves in the WAL for recovery.
enum class WalShape {
  kAppended,    // as the daemon writes it: create + one record per answer
  kCompacted,   // folded afterwards into FoldIntoCompactedForm's shape
  kTornAppend,  // the second answer's append torn (wal.torn_write), retried
  // The first answer's fsync fails (wal.fsync) and is retried, leaving
  // an fsync ghost before it; the third answer's append is torn and
  // retried.
  kGhostThenTornAppend,
};

// With `rebuild`, the conflict engine is dropped and rebuilt from
// scratch on the second answer before the crash (and the create names
// no engine); otherwise the create names "incremental" explicitly.
void RoundTrip(const std::string& strategy, bool rebuild,
               WalShape shape = WalShape::kAppended, int64_t num_facts = 40) {
  SCOPED_TRACE("strategy=" + strategy +
               " rebuild=" + (rebuild ? "yes" : "no") +
               " shape=" + std::to_string(static_cast<int>(shape)));
  const uint64_t seed = 20180326;
  const JsonValue create_params = CreateParams(
      seed, strategy, rebuild ? "" : "incremental", num_facts);

  StatusOr<ReferenceRun> ref = RunReference(create_params, seed, 3);
  ASSERT_TRUE(ref.ok()) << ref.status();
  // Dialogues under the chosen num_facts are long enough to interrupt;
  // a skip here would silently drop a strategy from coverage.
  ASSERT_GT(ref->choices.size(), 3u)
      << "dialogue too short to interrupt (" << ref->choices.size()
      << " questions) — pick a larger num_facts for this strategy";

  TempDir wal_dir("kbrepair_recovery_");
  std::string session;
  {
    // Phase one: a WAL-backed manager that "crashes" (is destroyed)
    // after 3 answers, before ever closing the session.
    ServiceConfig config;
    config.num_workers = 2;
    config.wal_dir = wal_dir.path;
    SessionManager manager(config);
    StatusOr<JsonValue> created = manager.Execute(MakeRequest(create_params));
    ASSERT_TRUE(created.ok()) << created.status();
    session = created->Get("session").AsString();
    if (rebuild) failpoint::Arm("delta.corrupt", /*skip=*/1, /*fail=*/1);
    for (size_t i = 0; i < 3; ++i) {
      StatusOr<JsonValue> asked =
          manager.Execute(SessionCommand("ask", session));
      ASSERT_TRUE(asked.ok()) << asked.status();
      ASSERT_FALSE(asked->Get("done").AsBool(false));
      if (shape == WalShape::kGhostThenTornAppend && i == 0) {
        // The record lands but its fsync fails: the answer is rejected
        // as transient and the verbatim retry goes through.
        failpoint::Arm("wal.fsync", /*skip=*/0, /*fail=*/1);
        StatusOr<JsonValue> ghost =
            manager.Execute(AnswerCommand(session, ref->choices[i]));
        ASSERT_EQ(ghost.status().code(), StatusCode::kUnavailable)
            << ghost.status();
        ASSERT_TRUE(
            manager.Execute(AnswerCommand(session, ref->choices[i])).ok());
        continue;
      }
      const size_t torn_at =
          shape == WalShape::kGhostThenTornAppend ? 2 : 1;
      if ((shape == WalShape::kTornAppend ||
           shape == WalShape::kGhostThenTornAppend) &&
          i == torn_at) {
        // Half the record lands, then the disk is full: the answer is
        // rejected and the shard sheds answers until its write probe
        // passes. The retry must not land on the fragment.
        failpoint::Arm("wal.torn_write", /*skip=*/0, /*fail=*/1);
        StatusOr<JsonValue> torn =
            manager.Execute(AnswerCommand(session, ref->choices[i]));
        ASSERT_EQ(torn.status().code(), StatusCode::kResourceExhausted)
            << torn.status();
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        StatusOr<JsonValue> retried = torn;
        while (retried.status().code() == StatusCode::kResourceExhausted &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          retried = manager.Execute(AnswerCommand(session, ref->choices[i]));
        }
        ASSERT_TRUE(retried.ok()) << retried.status();
        continue;
      }
      ASSERT_TRUE(
          manager.Execute(AnswerCommand(session, ref->choices[i])).ok());
    }
    failpoint::Reset();
    StatusOr<JsonValue> metrics = manager.Execute(MakeRequest([] {
      JsonValue params = JsonValue::Object();
      params.Set("command", JsonValue::String("metrics"));
      return params;
    }()));
    ASSERT_TRUE(metrics.ok());
    EXPECT_EQ(metrics->Get("durability").Get("engine_rebuilds").AsInt(0),
              rebuild ? 1 : 0);
  }

  if (shape == WalShape::kCompacted) {
    const std::string path = wal_dir.path + "/" + session + ".wal";
    FoldIntoCompactedForm(path, session);
    if (::testing::Test::HasFatalFailure()) return;
    // The debugger's replay-verify accepts the folded log too.
    StatusOr<WalRecovery> folded = ReadWalFile(path, session);
    ASSERT_TRUE(folded.ok()) << folded.status();
    debug::TimelineOptions verify_only;
    verify_only.checkpoint_every = 0;
    StatusOr<debug::SessionTimeline> timeline =
        debug::SessionTimeline::Create(std::move(*folded), verify_only);
    ASSERT_TRUE(timeline.ok()) << timeline.status();
    EXPECT_TRUE(timeline->ReplayVerify().ok());
  }

  // Phase two: recover from the WAL and finish the dialogue.
  ServiceConfig config;
  config.num_workers = 2;
  config.wal_dir = wal_dir.path;
  config.recover = true;
  SessionManager manager(config);

  StatusOr<JsonValue> metrics =
      manager.Execute(MakeRequest([] {
        JsonValue params = JsonValue::Object();
        params.Set("command", JsonValue::String("metrics"));
        return params;
      }()));
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->Get("durability").Get("sessions_recovered").AsInt(0), 1);

  StatusOr<JsonValue> snap =
      manager.Execute(SessionCommand("snapshot", session));
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->Dump(), ref->mid_snapshot)
      << "recovered session diverged from the uninterrupted one";

  // Mirror the reference loop exactly (including the final ask that
  // observes done=true) so the close outputs are comparable.
  size_t next_choice = 3;
  for (;;) {
    StatusOr<JsonValue> asked = manager.Execute(SessionCommand("ask", session));
    ASSERT_TRUE(asked.ok()) << asked.status();
    if (asked->Get("done").AsBool(false)) break;
    ASSERT_LT(next_choice, ref->choices.size())
        << "recovered dialogue ran past the reference";
    ASSERT_TRUE(
        manager.Execute(AnswerCommand(session, ref->choices[next_choice]))
            .ok());
    ++next_choice;
  }
  EXPECT_EQ(next_choice, ref->choices.size())
      << "recovered dialogue finished early";
  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  close.Set("include_facts", JsonValue::Bool(true));
  StatusOr<JsonValue> closed = manager.Execute(MakeRequest(close));
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_EQ(CloseFingerprint(*closed), ref->close_output)
      << "recovered repair diverged from the uninterrupted one";

  // Closing removed the WAL: a third manager recovers nothing.
  ServiceConfig config3;
  config3.wal_dir = wal_dir.path;
  config3.recover = true;
  SessionManager manager3(config3);
  StatusOr<JsonValue> gone = manager3.Execute(SessionCommand("status", session));
  EXPECT_FALSE(gone.ok());
}

// "Scratch": the engine is rebuilt from scratch before the crash.
TEST(CrashRecoveryTest, RandomScratch) { RoundTrip("random", true); }
TEST(CrashRecoveryTest, RandomIncremental) { RoundTrip("random", false); }
// The opti-* dialogues converge in ≤3 questions on the 40-fact KB, so
// they run on a larger one that leaves room to crash mid-dialogue.
TEST(CrashRecoveryTest, OptiMcdScratch) {
  RoundTrip("opti-mcd", true, WalShape::kAppended, 80);
}
TEST(CrashRecoveryTest, OptiMcdIncremental) {
  RoundTrip("opti-mcd", false, WalShape::kAppended, 80);
}
TEST(CrashRecoveryTest, OptiPropScratch) {
  RoundTrip("opti-prop", true, WalShape::kAppended, 80);
}
TEST(CrashRecoveryTest, OptiPropIncremental) {
  RoundTrip("opti-prop", false, WalShape::kAppended, 80);
}

// A log in the compacted form older daemons wrote still recovers.
TEST(CrashRecoveryTest, RecoversThroughCompactedWal) {
  RoundTrip("random", false, WalShape::kCompacted);
}

// A torn answer append is cut back off the log, so the retried answer
// and the ones after it all recover.
TEST(CrashRecoveryTest, TornAnswerAppendKeepsEveryAcknowledgedAnswer) {
  RoundTrip("random", false, WalShape::kTornAppend);
}

// A torn append after an fsync ghost is cut back to the file's real
// end, so the ghost's retry and the answer after it survive too.
TEST(CrashRecoveryTest, TornAppendAfterFsyncGhostKeepsEveryAcknowledgedAnswer) {
  RoundTrip("random", false, WalShape::kGhostThenTornAppend);
}

// A crash mid-append leaves a torn tail. Recovery drops it, and the
// recovered session's next appends must not land on it: a second crash
// still recovers every acknowledged answer.
TEST(CrashRecoveryTest, TornTailIsCutBeforeTheRecoveredSessionAppends) {
  const uint64_t seed = 20180326;
  const JsonValue create_params = CreateParams(seed, "random");
  StatusOr<ReferenceRun> ref = RunReference(create_params, seed, 2);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_GT(ref->choices.size(), 2u);

  TempDir wal_dir("kbrepair_recovery_");
  ServiceConfig config;
  config.num_workers = 2;
  config.wal_dir = wal_dir.path;
  std::string session;
  {
    SessionManager manager(config);
    StatusOr<JsonValue> created = manager.Execute(MakeRequest(create_params));
    ASSERT_TRUE(created.ok()) << created.status();
    session = created->Get("session").AsString();
    ASSERT_TRUE(manager.Execute(AnswerCommand(session, ref->choices[0])).ok());
  }
  {
    // The crash tore the next (never acknowledged) append.
    std::ofstream out(wal_dir.path + "/" + session + ".wal",
                      std::ios::app | std::ios::binary);
    out << "97 0badc0de {\"op\":\"answer\",\"cho";
  }
  config.recover = true;
  {
    SessionManager manager(config);
    ASSERT_TRUE(manager.Execute(AnswerCommand(session, ref->choices[1])).ok());
  }
  SessionManager manager(config);
  StatusOr<JsonValue> snap =
      manager.Execute(SessionCommand("snapshot", session));
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->Dump(), ref->mid_snapshot);
}

TEST(CrashRecoveryTest, CorruptWalIsQuarantinedNotFatal) {
  TempDir wal_dir("kbrepair_recovery_");
  {
    std::ofstream out(wal_dir.path + "/s-9.wal");
    out << "{\"op\":\"create\",\"params\":{\"kb\":\"synthetic\"}}\n"
        << "garbage interior line\n"
        << "{\"op\":\"close\"}\n";
  }
  ServiceConfig config;
  config.wal_dir = wal_dir.path;
  config.recover = true;
  SessionManager manager(config);
  // The daemon came up, did not register the broken session, and set
  // the file aside for inspection.
  EXPECT_FALSE(manager.Execute(SessionCommand("status", "s-9")).ok());
  struct stat st;
  EXPECT_NE(::stat((wal_dir.path + "/s-9.wal").c_str(), &st), 0);
  EXPECT_EQ(::stat((wal_dir.path + "/s-9.wal.corrupt").c_str(), &st), 0);
  // And fresh sessions still allocate ids past the quarantined one.
  StatusOr<JsonValue> created = manager.Execute(
      MakeRequest(CreateParams(7, "random")));
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(created->Get("session").AsString(), "s-10");
}

TEST(CrashRecoveryTest, ClosedWalIsDroppedOnRecovery) {
  TempDir wal_dir("kbrepair_recovery_");
  std::string session;
  {
    ServiceConfig config;
    config.wal_dir = wal_dir.path;
    SessionManager manager(config);
    StatusOr<JsonValue> created = manager.Execute(
        MakeRequest(CreateParams(11, "random")));
    ASSERT_TRUE(created.ok()) << created.status();
    session = created->Get("session").AsString();
    // Interrupt the close *after* its WAL record: simulate by writing
    // the close record and crashing before Finish by hand.
    StatusOr<std::unique_ptr<SessionWal>> wal =
        SessionWal::Open(wal_dir.path, session);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->Append(SessionWal::CloseRecord()).ok());
  }
  ServiceConfig config;
  config.wal_dir = wal_dir.path;
  config.recover = true;
  SessionManager manager(config);
  // The logged close wins: the session is not resurrected and its WAL
  // is gone.
  EXPECT_FALSE(manager.Execute(SessionCommand("status", session)).ok());
  struct stat st;
  EXPECT_NE(::stat((wal_dir.path + "/" + session + ".wal").c_str(), &st), 0);
  EXPECT_NE(
      ::stat((wal_dir.path + "/" + session + ".wal.corrupt").c_str(), &st), 0);
}

// Logs this build cannot replay take the quarantine path: a bare v1
// log, and a pre-upgrade v2 log whose create params name the retired
// scratch engine. A log naming "incremental" still recovers.
TEST(CrashRecoveryTest, V1AndScratchWalsAreQuarantined) {
  TempDir wal_dir("kbrepair_recovery_");
  {
    std::ofstream out(wal_dir.path + "/s-1.wal");
    out << SessionWal::CreateRecord(CreateParams(3, "random")).Dump() << "\n";
  }
  JsonValue scratch = CreateParams(4, "random", "scratch");
  JsonValue incremental = CreateParams(5, "random", "incremental");
  for (const auto& [id, params] :
       {std::make_pair("s-2", &scratch), std::make_pair("s-3", &incremental)}) {
    StatusOr<std::unique_ptr<SessionWal>> wal =
        SessionWal::Open(wal_dir.path, id);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->Append(SessionWal::CreateRecord(*params)).ok());
  }

  ServiceConfig config;
  config.wal_dir = wal_dir.path;
  config.recover = true;
  SessionManager manager(config);
  struct stat st;
  for (const char* id : {"s-1", "s-2"}) {
    SCOPED_TRACE(id);
    EXPECT_FALSE(manager.Execute(SessionCommand("status", id)).ok());
    const std::string path = wal_dir.path + "/" + id + ".wal";
    EXPECT_NE(::stat(path.c_str(), &st), 0);
    EXPECT_EQ(::stat((path + ".corrupt").c_str(), &st), 0);
  }
  EXPECT_TRUE(manager.Execute(SessionCommand("status", "s-3")).ok());
  EXPECT_EQ(::stat((wal_dir.path + "/s-3.wal").c_str(), &st), 0);
}

#ifdef KBREPAIRD_PATH
// ------------------------------------------------------------------
// Daemon-level: the real binary, a real SIGKILL, a real restart.

TEST(CrashRecoveryTest, DaemonKillDashNineAndRestart) {
  const uint64_t seed = 424242;
  const JsonValue create_params = CreateParams(seed, "random");

  StatusOr<ReferenceRun> ref = RunReference(create_params, seed, 2);
  ASSERT_TRUE(ref.ok()) << ref.status();
  if (ref->choices.size() <= 2) {
    GTEST_SKIP() << "dialogue too short to interrupt";
  }

  TempDir wal_dir("kbrepair_recovery_");
  client::Daemon daemon;
  ASSERT_TRUE(daemon
                  .Start({KBREPAIRD_PATH, "--workers", "2", "--wal-dir",
                          wal_dir.path},
                         client::Stdio::kPipes)
                  .ok());
  client::Connection conn(daemon);

  JsonValue create = create_params;
  StatusOr<JsonValue> created = conn.Call(std::move(create));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();
  for (size_t i = 0; i < 2; ++i) {
    StatusOr<JsonValue> asked =
        conn.Call(SessionCommand("ask", session).params);
    ASSERT_TRUE(asked.ok()) << asked.status();
    ASSERT_TRUE(
        conn.Call(AnswerCommand(session, ref->choices[i]).params).ok());
  }

  daemon.Kill9();  // no drain, no flush — a genuine crash

  client::Daemon revived;
  ASSERT_TRUE(revived
                  .Start({KBREPAIRD_PATH, "--workers", "2", "--recover-dir",
                          wal_dir.path},
                         client::Stdio::kPipes)
                  .ok());
  client::Connection revived_conn(revived);
  StatusOr<JsonValue> snap =
      revived_conn.Call(SessionCommand("snapshot", session).params);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->Dump(), ref->mid_snapshot);

  size_t next_choice = 2;
  for (;;) {
    StatusOr<JsonValue> asked =
        revived_conn.Call(SessionCommand("ask", session).params);
    ASSERT_TRUE(asked.ok()) << asked.status();
    if (asked->Get("done").AsBool(false)) break;
    ASSERT_LT(next_choice, ref->choices.size());
    ASSERT_TRUE(revived_conn
                    .Call(AnswerCommand(session, ref->choices[next_choice])
                              .params)
                    .ok());
    ++next_choice;
  }
  EXPECT_EQ(next_choice, ref->choices.size());
  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  close.Set("include_facts", JsonValue::Bool(true));
  StatusOr<JsonValue> closed = revived_conn.Call(std::move(close));
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_EQ(CloseFingerprint(*closed), ref->close_output)
      << "post-crash repair diverged from the uninterrupted run";
  revived_conn.Close();
  EXPECT_EQ(revived.CloseStdinAndWait(), 0);
}
#endif  // KBREPAIRD_PATH

}  // namespace
}  // namespace kbrepair
