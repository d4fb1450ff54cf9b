// Satellite of the repair-service PR: single-session lifecycle through
// the SessionManager and the JSON-lines protocol, plus error paths.
// The headline check: a session driven command-by-command through the
// service repairs the KB bit-for-bit identically to a plain
// single-threaded InquiryEngine run with the same seed.

#include "service/session_manager.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "repair/inquiry.h"
#include "service/session.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

JsonValue CreateRequestParams(uint64_t seed) {
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

TEST(ServiceTest, LifecycleMatchesPlainEngineBitForBit) {
  constexpr uint64_t kSeed = 77;
  ServiceConfig config;
  config.num_workers = 2;
  SessionManager manager(config);

  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateRequestParams(kSeed)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();
  ASSERT_FALSE(session.empty());
  EXPECT_EQ(created->Get("state").AsString(), "active");

  Rng rng(kSeed);
  size_t answered = 0;
  for (;;) {
    StatusOr<JsonValue> asked =
        manager.Execute(SessionCommand("ask", session));
    ASSERT_TRUE(asked.ok()) << asked.status();
    if (asked->Get("done").AsBool(false)) break;

    // ask is idempotent until answered: a second ask returns the same
    // question at the same turn.
    StatusOr<JsonValue> again =
        manager.Execute(SessionCommand("ask", session));
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again->Get("turn").AsInt(), asked->Get("turn").AsInt());
    EXPECT_EQ(again->Get("question").Get("num_fixes").AsInt(),
              asked->Get("question").Get("num_fixes").AsInt());

    StatusOr<JsonValue> status =
        manager.Execute(SessionCommand("status", session));
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status->Get("state").AsString(), "awaiting_answer");

    const int64_t num_fixes =
        asked->Get("question").Get("num_fixes").AsInt(0);
    ASSERT_GT(num_fixes, 0);
    ServiceRequest answer = SessionCommand("answer", session);
    answer.params.Set(
        "choice", JsonValue::Number(static_cast<int64_t>(rng.UniformIndex(
                      static_cast<size_t>(num_fixes)))));
    StatusOr<JsonValue> applied = manager.Execute(std::move(answer));
    ASSERT_TRUE(applied.ok()) << applied.status();
    EXPECT_TRUE(applied->Get("applied").AsBool(false));
    ++answered;
    ASSERT_LT(answered, 10000u);
  }
  ASSERT_GT(answered, 0u) << "seed produced a consistent KB; test is vacuous";

  StatusOr<JsonValue> status =
      manager.Execute(SessionCommand("status", session));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->Get("state").AsString(), "consistent");

  StatusOr<JsonValue> snapshot =
      manager.Execute(SessionCommand("snapshot", session));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_TRUE(snapshot->Get("consistent").AsBool(false));
  EXPECT_EQ(snapshot->Get("transcript").Get("entries").size(), answered);

  ServiceRequest close = SessionCommand("close", session);
  close.params.Set("include_facts", JsonValue::Bool(true));
  StatusOr<JsonValue> closed = manager.Execute(std::move(close));
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_TRUE(closed->Get("consistent").AsBool(false));
  EXPECT_EQ(closed->Get("questions").AsInt(),
            static_cast<int64_t>(answered));

  StatusOr<std::vector<std::string>> oracle = OracleFacts(CreateRequestParams(kSeed), kSeed);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  const JsonValue& facts = closed->Get("facts");
  ASSERT_EQ(facts.size(), oracle->size());
  for (size_t i = 0; i < oracle->size(); ++i) {
    EXPECT_EQ(facts.at(i).AsString(), (*oracle)[i]) << "fact " << i;
  }

  // The session is gone from the registry.
  StatusOr<JsonValue> after =
      manager.Execute(SessionCommand("status", session));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound);

  // Ledger: one opened, one completed, none active.
  JsonValue metrics_params = JsonValue::Object();
  metrics_params.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> metrics =
      manager.Execute(MakeRequest(std::move(metrics_params)));
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->Get("sessions").Get("opened").AsInt(), 1);
  EXPECT_EQ(metrics->Get("sessions").Get("completed").AsInt(), 1);
  EXPECT_EQ(metrics->Get("sessions").Get("active").AsInt(), 0);
  EXPECT_EQ(metrics->Get("traffic").Get("answers_applied").AsInt(),
            static_cast<int64_t>(answered));
}

TEST(ServiceTest, ErrorPaths) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);

  // Unknown session.
  StatusOr<JsonValue> unknown =
      manager.Execute(SessionCommand("ask", "s-999"));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  // Session command without a session id.
  JsonValue no_session = JsonValue::Object();
  no_session.Set("command", JsonValue::String("ask"));
  StatusOr<JsonValue> missing =
      manager.Execute(MakeRequest(std::move(no_session)));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  // create with an unusable KB spec.
  JsonValue bad_kb = JsonValue::Object();
  bad_kb.Set("command", JsonValue::String("create"));
  bad_kb.Set("kb", JsonValue::String("no_such_kb"));
  StatusOr<JsonValue> bad = manager.Execute(MakeRequest(std::move(bad_kb)));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Real session: unknown command and out-of-range answer.
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateRequestParams(3)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  StatusOr<JsonValue> nonsense =
      manager.Execute(SessionCommand("frobnicate", session));
  ASSERT_FALSE(nonsense.ok());
  EXPECT_EQ(nonsense.status().code(), StatusCode::kInvalidArgument);

  ServiceRequest huge_choice = SessionCommand("answer", session);
  huge_choice.params.Set("choice", JsonValue::Number(int64_t{1000000}));
  StatusOr<JsonValue> out_of_range = manager.Execute(std::move(huge_choice));
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);

  ServiceRequest no_choice = SessionCommand("answer", session);
  StatusOr<JsonValue> unanswered = manager.Execute(std::move(no_choice));
  ASSERT_FALSE(unanswered.ok());
  EXPECT_EQ(unanswered.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceTest, WireProtocolEnvelopes) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> lines;
  auto emit = [&](std::string line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(std::move(line));
    cv.notify_all();
  };
  auto wait_for_lines = [&](size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return lines.size() >= n; });
  };

  // Malformed JSON still yields exactly one ok:false line.
  manager.SubmitLine("{not json", emit);
  wait_for_lines(1);
  {
    StatusOr<JsonValue> response = JsonValue::Parse(lines[0]);
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->Get("ok").AsBool(true));
    EXPECT_EQ(response->Get("error").Get("code").AsString(),
              "InvalidArgument");
  }

  // Missing command, with an id to echo.
  manager.SubmitLine(R"({"id":"x1","foo":1})", emit);
  wait_for_lines(2);
  {
    StatusOr<JsonValue> response = JsonValue::Parse(lines[1]);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->Get("id").AsString(), "x1");
    EXPECT_FALSE(response->Get("ok").AsBool(true));
  }

  // A good create; the response correlates by id.
  manager.SubmitLine(
      R"({"id":"c1","command":"create","kb":"synthetic","kb_seed":9,)"
      R"("num_facts":30,"seed":9})",
      emit);
  wait_for_lines(3);
  {
    StatusOr<JsonValue> response = JsonValue::Parse(lines[2]);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->Get("id").AsString(), "c1");
    EXPECT_TRUE(response->Get("ok").AsBool(false));
    EXPECT_FALSE(response->Get("result").Get("session").AsString().empty());
  }
}

TEST(ServiceTest, CloseFlushesTranscriptToDisk) {
  const std::string dir = ::testing::TempDir() + "kbrepair_service_test";
  ::mkdir(dir.c_str(), 0755);  // fine if it already exists
  std::remove((dir + "/s-1.json").c_str());

  ServiceConfig config;
  config.num_workers = 1;
  config.transcript_dir = dir;
  SessionManager manager(config);

  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateRequestParams(13)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  Rng rng(13);
  for (;;) {
    StatusOr<JsonValue> asked =
        manager.Execute(SessionCommand("ask", session));
    ASSERT_TRUE(asked.ok());
    if (asked->Get("done").AsBool(false)) break;
    ServiceRequest answer = SessionCommand("answer", session);
    answer.params.Set(
        "choice",
        JsonValue::Number(static_cast<int64_t>(rng.UniformIndex(
            static_cast<size_t>(
                asked->Get("question").Get("num_fixes").AsInt())))));
    ASSERT_TRUE(manager.Execute(std::move(answer)).ok());
  }
  ASSERT_TRUE(manager.Execute(SessionCommand("close", session)).ok());

  std::ifstream file(dir + "/" + session + ".json");
  ASSERT_TRUE(file.good()) << "transcript file missing";
  std::string text((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  StatusOr<JsonValue> transcript = JsonValue::Parse(text);
  ASSERT_TRUE(transcript.ok()) << transcript.status();
  EXPECT_EQ(transcript->Get("session").AsString(), session);
  EXPECT_TRUE(transcript->Get("transcript").Get("entries").is_array());
}

TEST(ServiceTest, IdleSessionsAreEvicted) {
  ServiceConfig config;
  config.num_workers = 1;
  config.idle_ttl_seconds = 0.05;
  SessionManager manager(config);

  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateRequestParams(5)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  // Poll via `metrics` only — a `status` command would refresh the
  // session's idle clock. The reaper polls every ~12ms at this TTL.
  for (int i = 0; i < 250; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    JsonValue metrics_params = JsonValue::Object();
    metrics_params.Set("command", JsonValue::String("metrics"));
    StatusOr<JsonValue> metrics =
        manager.Execute(MakeRequest(std::move(metrics_params)));
    ASSERT_TRUE(metrics.ok());
    if (metrics->Get("sessions").Get("evicted").AsInt() == 1) {
      EXPECT_EQ(metrics->Get("sessions").Get("active").AsInt(), 0);
      StatusOr<JsonValue> status =
          manager.Execute(SessionCommand("status", session));
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.status().code(), StatusCode::kNotFound);
      return;
    }
  }
  FAIL() << "session was never evicted";
}

// Session-ledger and histogram invariants of one metrics snapshot, or
// "" when it holds them. `final` demands the ledger balance exactly.
std::string SnapshotViolation(const JsonValue& metrics, bool final) {
  const JsonValue& sessions = metrics.Get("sessions");
  const int64_t opened = sessions.Get("opened").AsInt(-1);
  const int64_t retired = sessions.Get("completed").AsInt(-1) +
                          sessions.Get("evicted").AsInt(-1);
  const int64_t active = sessions.Get("active").AsInt(-1);
  if (active < 0 || active + retired > opened ||
      (final && active + retired != opened)) {
    return "session ledger: " + sessions.Dump();
  }
  // Every histogram: cumulative buckets never shrink, and the +Inf
  // bucket (their total) equals the histogram's count.
  std::vector<const JsonValue*> stack = {&metrics};
  while (!stack.empty()) {
    const JsonValue& value = *stack.back();
    stack.pop_back();
    if (!value.is_object()) continue;
    const JsonValue& buckets = value.Get("buckets");
    if (buckets.is_array() && buckets.size() > 0) {
      int64_t running = 0;
      for (size_t i = 0; i < buckets.size(); ++i) {
        const int64_t cumulative = buckets.at(i).Get("count").AsInt(-1);
        if (cumulative < running) return "buckets shrink: " + value.Dump();
        running = cumulative;
      }
      if (!buckets.at(buckets.size() - 1).Get("le_ms").is_string() ||
          running != value.Get("count").AsInt(-1)) {
        return "buckets do not sum to count: " + value.Dump();
      }
    }
    for (const auto& member : value.members()) stack.push_back(&member.second);
  }
  return "";
}

// The same ledger read from the Prometheus rendering.
std::string PrometheusViolation(const std::string& text) {
  const auto value = [&](const std::string& name) -> int64_t {
    const size_t at = text.find("\n" + name + " ");
    if (at == std::string::npos) return -1;
    return std::strtoll(text.c_str() + at + name.size() + 2, nullptr, 10);
  };
  const int64_t opened = value("kbrepair_sessions_opened_total");
  const int64_t active = value("kbrepair_sessions_active");
  const int64_t retired = value("kbrepair_sessions_completed_total") +
                          value("kbrepair_sessions_evicted_total");
  if (opened < 0 || active < 0 || active + retired > opened) {
    return "prometheus ledger: opened " + std::to_string(opened) +
           " active " + std::to_string(active) + " retired " +
           std::to_string(retired);
  }
  return "";
}

// Sessions retire by close, by idle TTL and by memory-pressure eviction
// while another thread scrapes `metrics` and the Prometheus text: no
// snapshot may count a retirement before the session leaves `active`,
// or show a histogram whose buckets disagree with its count.
TEST(ServiceTest, MetricsSnapshotsStayConsistentWhileSessionsRetire) {
  ServiceConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  config.idle_ttl_seconds = 1.0;
  config.mem_budget_bytes = int64_t{1} << 30;
  SessionManager manager(config);
  const auto metrics_snapshot = [&manager] {
    JsonValue params = JsonValue::Object();
    params.Set("command", JsonValue::String("metrics"));
    StatusOr<JsonValue> metrics = manager.Execute(MakeRequest(params));
    EXPECT_TRUE(metrics.ok()) << metrics.status();
    return metrics.ok() ? *metrics : JsonValue::Object();
  };

  std::atomic<bool> stop_scraping{false};
  std::atomic<size_t> snapshots{0};
  std::mutex violation_mu;
  std::string violation;
  std::thread scraper([&] {
    while (!stop_scraping.load()) {
      std::string found = SnapshotViolation(metrics_snapshot(), false);
      if (found.empty()) {
        std::string text;
        manager.AppendMetricsText(&text);
        found = PrometheusViolation("\n" + text);
      }
      ++snapshots;
      if (!found.empty()) {
        std::lock_guard<std::mutex> lock(violation_mu);
        if (violation.empty()) violation = found;
      }
    }
  });

  // Opened in retirement order: `idle` ages out first, `closed` is
  // closed right away, `pressured` is kept alive until the pressure
  // eviction takes it.
  constexpr size_t kPerGroup = 4;
  std::vector<std::string> idle, closed, pressured;
  uint64_t seed = 40;
  for (std::vector<std::string>* group : {&idle, &closed, &pressured}) {
    for (size_t i = 0; i < kPerGroup; ++i) {
      StatusOr<JsonValue> created =
          manager.Execute(MakeRequest(CreateRequestParams(seed++)));
      ASSERT_TRUE(created.ok()) << created.status();
      group->push_back(created->Get("session").AsString());
    }
  }
  std::atomic<bool> keep_alive{true};
  std::thread toucher([&] {
    while (keep_alive.load()) {
      // `status` refreshes the idle clock. A host stalled past the TTL
      // may still evict one; the ledger must balance either way.
      for (const std::string& session : pressured) {
        (void)manager.Execute(SessionCommand("status", session));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  for (const std::string& session : closed) {
    StatusOr<JsonValue> result =
        manager.Execute(SessionCommand("close", session));
    // A slow host may let the TTL take it first.
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
    }
  }

  const auto wait_for = [&](const std::function<bool(const JsonValue&)>& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (done(metrics_snapshot().Get("sessions"))) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  };
  const bool idle_gone = wait_for([&](const JsonValue& sessions) {
    return sessions.Get("completed").AsInt() + sessions.Get("evicted").AsInt() >=
           static_cast<int64_t>(idle.size() + closed.size());
  });
  keep_alive = false;
  toucher.join();
  ASSERT_TRUE(idle_gone) << "idle sessions were never evicted";

  // Charge the whole budget: the reaper evicts every idle session.
  manager.governor()->AdjustSessionBytes(config.mem_budget_bytes);
  const bool all_gone = wait_for([](const JsonValue& sessions) {
    return sessions.Get("active").AsInt(-1) == 0;
  });
  manager.governor()->AdjustSessionBytes(-config.mem_budget_bytes);
  stop_scraping = true;
  scraper.join();
  ASSERT_TRUE(all_gone) << "pressure never evicted the kept-alive sessions";

  EXPECT_EQ(violation, "");
  EXPECT_GE(snapshots.load(), 2u);
  const JsonValue final_metrics = metrics_snapshot();
  EXPECT_EQ(SnapshotViolation(final_metrics, true), "");
  const JsonValue& sessions = final_metrics.Get("sessions");
  EXPECT_EQ(sessions.Get("opened").AsInt(), 3 * static_cast<int64_t>(kPerGroup));
  EXPECT_GE(sessions.Get("completed").AsInt(), 1);
  const int64_t pressure_evictions =
      final_metrics.Get("resources").Get("pressure_evictions").AsInt();
  EXPECT_GE(pressure_evictions, 1);
  EXPECT_GE(sessions.Get("evicted").AsInt() - pressure_evictions, 1)
      << "no idle-TTL eviction";
}

TEST(ServiceTest, ShutdownRejectsNewWork) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  manager.Shutdown();
  StatusOr<JsonValue> after =
      manager.Execute(MakeRequest(CreateRequestParams(1)));
  ASSERT_FALSE(after.ok());
  // Unavailable = not executed, safe to retry against a live replica.
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
}

// ------------------------------------------------------------------
// Scheduler edge cases: TTL eviction vs in-flight work, close racing
// queued commands, and overload rejection ordering. All three pin the
// single worker with the `worker.stall` failpoint so the interleavings
// are deterministic instead of timing-dependent.

// A one-shot future for asynchronous Submit calls.
class PendingCall {
 public:
  SessionManager::Completion Completion() {
    return [this](Status status, JsonValue result) {
      std::lock_guard<std::mutex> lock(mu_);
      status_ = std::move(status);
      result_ = std::move(result);
      done_ = true;
      cv_.notify_all();
    };
  }
  bool done() {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }
  Status Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
    return status_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  Status status_ = Status::Ok();
  JsonValue result_;
};

class SchedulerEdgeCaseTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Reset(); }
  void TearDown() override { failpoint::Reset(); }

  static JsonValue Metrics(SessionManager& manager) {
    JsonValue params = JsonValue::Object();
    params.Set("command", JsonValue::String("metrics"));
    StatusOr<JsonValue> metrics = manager.Execute(MakeRequest(std::move(params)));
    EXPECT_TRUE(metrics.ok());
    return metrics.ok() ? *metrics : JsonValue::Object();
  }
};

TEST_F(SchedulerEdgeCaseTest, TtlEvictionDoesNotRaceInFlightCommands) {
  ServiceConfig config;
  config.num_workers = 1;
  config.idle_ttl_seconds = 0.05;
  config.deadline_ms = 50;  // keeps the stall failpoint's sleep short
  SessionManager manager(config);

  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateRequestParams(5)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  // Wedge the worker in the middle of a command for ~1.2s — dozens of
  // reaper sweeps at this TTL. A busy session must never be evicted,
  // no matter how stale its idle clock looks.
  failpoint::Arm("worker.stall", 0, 1);
  PendingCall stalled;
  manager.Submit(SessionCommand("ask", session), stalled.Completion());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(stalled.done()) << "stall failpoint did not hold the worker";
  EXPECT_EQ(Metrics(manager).Get("sessions").Get("evicted").AsInt(0), 0);

  // The stalled command fails like an expired deadline; the session
  // survives it and is still addressable.
  EXPECT_EQ(stalled.Wait().code(), StatusCode::kDeadlineExceeded);
  StatusOr<JsonValue> status = manager.Execute(SessionCommand("status", session));
  EXPECT_TRUE(status.ok()) << status.status();

  // Once genuinely idle, the TTL applies as usual.
  for (int i = 0; i < 250; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (Metrics(manager).Get("sessions").Get("evicted").AsInt(0) == 1) return;
  }
  FAIL() << "session was never evicted after going idle";
}

TEST_F(SchedulerEdgeCaseTest, CloseOrphansQueuedCommandsWithNotFound) {
  ServiceConfig config;
  config.num_workers = 1;
  config.deadline_ms = 50;
  SessionManager manager(config);

  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateRequestParams(6)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  // Pin the worker so ask/close/ask all sit in the session's queue at
  // once; per-session FIFO then makes the outcome deterministic.
  failpoint::Arm("worker.stall", 0, 1);
  PendingCall stalled, closing, orphan;
  manager.Submit(SessionCommand("ask", session), stalled.Completion());
  manager.Submit(SessionCommand("close", session), closing.Completion());
  manager.Submit(SessionCommand("ask", session), orphan.Completion());

  EXPECT_EQ(stalled.Wait().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(closing.Wait().ok());
  const Status orphaned = orphan.Wait();
  ASSERT_FALSE(orphaned.ok());
  // The command was accepted while the session existed, then the close
  // won the queue: it must complete (not vanish) with NotFound.
  EXPECT_EQ(orphaned.code(), StatusCode::kNotFound);
  EXPECT_NE(orphaned.message().find("was closed"), std::string::npos)
      << orphaned;

  StatusOr<JsonValue> after = manager.Execute(SessionCommand("status", session));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound);
}

TEST_F(SchedulerEdgeCaseTest, OverloadRejectionIsImmediateAndOrdered) {
  ServiceConfig config;
  config.num_workers = 1;
  config.max_queue = 2;
  config.deadline_ms = 50;
  SessionManager manager(config);

  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateRequestParams(7)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();
  // Execute() returns from the completion callback, a hair before the
  // worker decrements tasks_in_flight_; let the create fully drain so
  // the queue accounting below starts from zero.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  failpoint::Arm("worker.stall", 0, 1);
  PendingCall stalled, queued, rejected;
  manager.Submit(SessionCommand("ask", session), stalled.Completion());
  manager.Submit(SessionCommand("ask", session), queued.Completion());
  // The queue is full (one executing + one waiting). The overflow is
  // rejected inline, before either accepted command finishes — clients
  // get backpressure immediately, not after the backlog drains.
  manager.Submit(SessionCommand("ask", session), rejected.Completion());
  EXPECT_TRUE(rejected.done());
  EXPECT_FALSE(stalled.done());
  const Status overload = rejected.Wait();
  ASSERT_FALSE(overload.ok());
  EXPECT_EQ(overload.code(), StatusCode::kUnavailable);
  EXPECT_NE(overload.message().find("overloaded"), std::string::npos)
      << overload;

  // Rejection never cancels accepted work: the stalled command fails
  // with its deadline, the queued one still runs to completion.
  EXPECT_EQ(stalled.Wait().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(queued.Wait().ok());
  const JsonValue metrics = Metrics(manager);
  EXPECT_EQ(metrics.Get("traffic").Get("rejected_overload").AsInt(0), 1);
  EXPECT_EQ(metrics.Get("traffic").Get("deadline_exceeded").AsInt(0), 1);
}

}  // namespace
}  // namespace kbrepair
