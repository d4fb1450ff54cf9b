// Satellite of the repair-service PR: the concurrency acceptance test.
// 64 scripted sessions hammer a 4-worker SessionManager concurrently;
// every session's repair must be byte-identical to a fresh
// single-threaded engine run with the same seed, no command may be lost
// or answered twice, and the lifecycle ledger must balance afterwards
// (opened == completed == 64, active == 0).

#include "service/session_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "repair/inquiry.h"
#include "service/session.h"
#include "util/json.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

constexpr size_t kSessions = 64;
constexpr uint64_t kBaseSeed = 4000;

JsonValue CreateParams(uint64_t seed) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("create"));
  params.Set("kb", JsonValue::String("synthetic"));
  params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(seed)));
  params.Set("num_facts", JsonValue::Number(int64_t{30}));
  params.Set("num_cdds", JsonValue::Number(int64_t{4}));
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

// Drives one full scripted session and compares against the oracle.
Status DriveAndVerify(SessionManager& manager, uint64_t seed) {
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue created,
                            manager.Execute(MakeRequest(CreateParams(seed))));
  const std::string session = created.Get("session").AsString();
  if (session.empty()) return Status::Internal("no session id");

  Rng rng(seed);
  size_t guard = 0;
  for (;;) {
    KBREPAIR_ASSIGN_OR_RETURN(
        JsonValue asked, manager.Execute(SessionCommand("ask", session)));
    if (asked.Get("done").AsBool(false)) break;
    const int64_t num_fixes = asked.Get("question").Get("num_fixes").AsInt(0);
    if (num_fixes <= 0) return Status::Internal("question with no fixes");
    ServiceRequest answer = SessionCommand("answer", session);
    answer.params.Set(
        "choice", JsonValue::Number(static_cast<int64_t>(rng.UniformIndex(
                      static_cast<size_t>(num_fixes)))));
    KBREPAIR_RETURN_IF_ERROR(manager.Execute(std::move(answer)).status());
    if (++guard > 10000) return Status::Internal("no convergence");
  }

  ServiceRequest close = SessionCommand("close", session);
  close.params.Set("include_facts", JsonValue::Bool(true));
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue closed,
                            manager.Execute(std::move(close)));
  if (!closed.Get("consistent").AsBool(false)) {
    return Status::Internal("closed inconsistent");
  }

  KBREPAIR_ASSIGN_OR_RETURN(std::vector<std::string> oracle,
                            OracleFacts(CreateParams(seed), seed));
  const JsonValue& facts = closed.Get("facts");
  if (facts.size() != oracle.size()) {
    return Status::Internal("fact count diverged: service " +
                            std::to_string(facts.size()) + " vs oracle " +
                            std::to_string(oracle.size()));
  }
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (facts.at(i).AsString() != oracle[i]) {
      return Status::Internal("fact " + std::to_string(i) +
                              " diverged: '" + facts.at(i).AsString() +
                              "' vs '" + oracle[i] + "'");
    }
  }
  return Status::Ok();
}

TEST(ServiceStressTest, SixtyFourConcurrentSessionsOnFourWorkers) {
  ServiceConfig config;
  config.num_workers = 4;
  config.max_queue = 4096;  // all 64 drivers may have a command in flight
  SessionManager manager(config);

  std::mutex mu;
  std::vector<std::string> failures;
  std::vector<std::thread> drivers;
  drivers.reserve(kSessions);
  for (size_t i = 0; i < kSessions; ++i) {
    drivers.emplace_back([&, i] {
      const Status status = DriveAndVerify(manager, kBaseSeed + i);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        failures.push_back("session " + std::to_string(i) + ": " +
                           status.ToString());
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  for (const std::string& failure : failures) ADD_FAILURE() << failure;

  // The ledger balances: everything opened was closed, nothing leaked.
  JsonValue metrics_params = JsonValue::Object();
  metrics_params.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> metrics =
      manager.Execute(MakeRequest(std::move(metrics_params)));
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  const JsonValue& sessions = metrics->Get("sessions");
  EXPECT_EQ(sessions.Get("opened").AsInt(),
            static_cast<int64_t>(kSessions));
  EXPECT_EQ(sessions.Get("completed").AsInt(),
            static_cast<int64_t>(kSessions));
  EXPECT_EQ(sessions.Get("active").AsInt(), 0);
  EXPECT_EQ(sessions.Get("failed").AsInt(), 0);
  EXPECT_EQ(metrics->Get("traffic").Get("errors_total").AsInt(), 0);
  EXPECT_GT(metrics->Get("traffic").Get("answers_applied").AsInt(), 0);
}

// Async storm on one session: every submitted command gets exactly one
// completion, in per-session submission order for the mutating ones.
TEST(ServiceStressTest, AsyncCommandsAreNeitherLostNorDuplicated) {
  ServiceConfig config;
  config.num_workers = 4;
  SessionManager manager(config);

  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateParams(kBaseSeed + 999)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  constexpr size_t kBlast = 200;
  std::mutex mu;
  std::condition_variable cv;
  size_t completions = 0;
  std::atomic<size_t> ok_count{0};
  for (size_t i = 0; i < kBlast; ++i) {
    manager.Submit(SessionCommand("status", session),
                   [&](Status status, JsonValue) {
                     if (status.ok()) {
                       ok_count.fetch_add(1, std::memory_order_relaxed);
                     }
                     std::lock_guard<std::mutex> lock(mu);
                     ++completions;
                     cv.notify_all();
                   });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return completions == kBlast; }))
        << "only " << completions << "/" << kBlast << " completions";
  }
  EXPECT_EQ(ok_count.load(), kBlast);

  ASSERT_TRUE(manager.Execute(SessionCommand("close", session)).ok());
}

// Submitting more work than max_queue admits must reject the overflow
// cleanly (Unavailable + rejected_overload counter), never block or
// drop it silently.
TEST(ServiceStressTest, OverloadIsRejectedNotDropped) {
  ServiceConfig config;
  config.num_workers = 1;
  config.max_queue = 4;
  SessionManager manager(config);

  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(CreateParams(kBaseSeed + 1234)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  constexpr size_t kBlast = 64;
  std::mutex mu;
  std::condition_variable cv;
  size_t completions = 0;
  std::atomic<size_t> rejected{0};
  for (size_t i = 0; i < kBlast; ++i) {
    manager.Submit(SessionCommand("status", session),
                   [&](Status status, JsonValue) {
                     if (!status.ok()) {
                       rejected.fetch_add(1, std::memory_order_relaxed);
                     }
                     std::lock_guard<std::mutex> lock(mu);
                     ++completions;
                     cv.notify_all();
                   });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return completions == kBlast; }))
        << "only " << completions << "/" << kBlast << " completions";
  }
  // Whatever was turned away is accounted for exactly — no silent drops
  // (every submission completed) and no phantom rejections.
  JsonValue metrics_params = JsonValue::Object();
  metrics_params.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> metrics =
      manager.Execute(MakeRequest(std::move(metrics_params)));
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->Get("traffic").Get("rejected_overload").AsInt(),
            static_cast<int64_t>(rejected.load()));
}

}  // namespace
}  // namespace kbrepair
