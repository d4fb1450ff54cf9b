// Deterministic chaos soak: seeded fault schedules composed against a
// live multi-shard manager, with scripted clients following the retry
// contract (Unavailable / ResourceExhausted retried with backoff,
// everything else final). The invariants checked after every round:
//
//  * oracle byte-identity — every completed dialogue's repaired facts
//    equal a fresh single-threaded engine run with the same seed, no
//    matter which commands were rejected and retried along the way;
//  * ledger consistency — opened == completed + evicted + recovered
//    hand-offs balance across a mid-round restart, active ends at 0;
//  * degraded modes are accurate — ENOSPC flips exactly the owning
//    shard's /readyz cause and the reaper's write probe clears it;
//    memory pressure sheds creates, evicts idle sessions oldest-first,
//    and clears once the estimate is back under the low watermark;
//  * no aborts — every fault lands as a clean error envelope.
//
// The daemon-level composition (kill -9, socket resets, --recover-dir)
// lives in bench/chaos_soak.cc; this test keeps the faults in-process
// so every seed is reproducible under ASan/UBSan in CI.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "repair/inquiry.h"
#include "service/session.h"
#include "service/session_manager.h"
#include "service/session_shard.h"
#include "service/wal.h"
#include "support/temp_dir.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"

namespace kbrepair {
namespace {

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

JsonValue GetMetrics(SessionManager& manager) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> metrics = manager.Execute(MakeRequest(std::move(params)));
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  return metrics.ok() ? *metrics : JsonValue::Object();
}

// True for the status codes the retry contract promises were never
// executed (so a verbatim retry is safe).
bool Retryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kResourceExhausted;
}

// Executes `request` against `manager`, retrying retryable rejections
// with a fixed small backoff (deterministic — the jitter under test is
// the daemon's, not the driver's). ~6s worth of attempts covers the
// worst chaos window: a degraded shard needs one reaper probe (~50ms).
StatusOr<JsonValue> ExecuteWithRetry(SessionManager& manager,
                                     const ServiceRequest& request) {
  Status last = Status::Ok();
  for (int attempt = 0; attempt < 600; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ServiceRequest copy;
    copy.command = request.command;
    copy.session_id = request.session_id;
    copy.params = request.params;
    StatusOr<JsonValue> outcome = manager.Execute(std::move(copy));
    if (outcome.ok()) return outcome;
    last = outcome.status();
    if (!Retryable(last)) return last;
  }
  return last;
}

class ChaosSoakTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Reset(); }
  void TearDown() override { failpoint::Reset(); }
};

// ------------------------------------------------------------------
// The runtime fault-injection admin command the bench harness drives a
// live daemon with.

TEST_F(ChaosSoakTest, FailpointCommandArmsListsDisarmsResets) {
  ServiceConfig config;
  config.num_shards = 2;
  config.num_workers = 1;
  SessionManager manager(config);

  JsonValue arm = JsonValue::Object();
  arm.Set("command", JsonValue::String("failpoint"));
  arm.Set("spec", JsonValue::String("t.chaos=2"));
  StatusOr<JsonValue> armed = manager.Execute(MakeRequest(std::move(arm)));
  ASSERT_TRUE(armed.ok()) << armed.status();
  ASSERT_EQ(armed->Get("armed").size(), 1u);
  EXPECT_EQ(armed->Get("armed").at(0).AsString(), "t.chaos");
  EXPECT_TRUE(failpoint::ShouldFail("t.chaos"));

  JsonValue disarm = JsonValue::Object();
  disarm.Set("command", JsonValue::String("failpoint"));
  disarm.Set("disarm", JsonValue::String("t.chaos"));
  StatusOr<JsonValue> disarmed =
      manager.Execute(MakeRequest(std::move(disarm)));
  ASSERT_TRUE(disarmed.ok());
  EXPECT_EQ(disarmed->Get("armed").size(), 0u);
  EXPECT_FALSE(failpoint::ShouldFail("t.chaos"));

  // A malformed spec is a clean error, not a half-applied config.
  JsonValue bad = JsonValue::Object();
  bad.Set("command", JsonValue::String("failpoint"));
  bad.Set("spec", JsonValue::String("bad=not_a_number"));
  EXPECT_FALSE(manager.Execute(MakeRequest(std::move(bad))).ok());

  failpoint::Arm("t.other", 0, -1);
  JsonValue reset = JsonValue::Object();
  reset.Set("command", JsonValue::String("failpoint"));
  reset.Set("reset", JsonValue::Bool(true));
  StatusOr<JsonValue> after = manager.Execute(MakeRequest(std::move(reset)));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->Get("armed").size(), 0u);
}

// ------------------------------------------------------------------
// ENOSPC flips exactly the owning shard into read-only degraded mode;
// the reaper's write probe recovers it without operator action.

TEST_F(ChaosSoakTest, EnospcDegradesOnlyTheOwningShardAndAutoRecovers) {
  TempDir wal_root("kbrepair_chaos_");
  ServiceConfig config;
  config.num_shards = 2;
  config.num_workers = 1;
  config.wal_dir = wal_root.path;
  SessionManager manager(config);

  // Create sessions until both shards own at least one.
  std::vector<std::string> by_shard(2);
  for (uint64_t seed = 1; by_shard[0].empty() || by_shard[1].empty();
       ++seed) {
    ASSERT_LT(seed, 32u) << "routing never hit both shards";
    StatusOr<JsonValue> created =
        manager.Execute(MakeRequest(CreateParams(seed)));
    ASSERT_TRUE(created.ok()) << created.status();
    const std::string id = created->Get("session").AsString();
    by_shard[SessionManager::ShardForSession(id, 2)] = id;
  }
  const std::string on_a = by_shard[0];
  const std::string on_b = by_shard[1];
  SessionShard& shard_a = manager.shard(0);
  SessionShard& shard_b = manager.shard(1);

  auto ask_ok = [&](const std::string& id) {
    StatusOr<JsonValue> asked = manager.Execute(SessionCommand("ask", id));
    ASSERT_TRUE(asked.ok()) << asked.status();
    ASSERT_FALSE(asked->Get("done").AsBool(false));
  };
  ask_ok(on_a);
  ask_ok(on_b);

  // One injected ENOSPC: the very next WAL append fails and the shard
  // that served it degrades. The failpoint is counted (fail=1) so it
  // exhausts itself — exactly one append is hit, which pins the fault
  // to session A's shard.
  failpoint::Arm("fs.enospc", 0, 1);
  ServiceRequest answer = SessionCommand("answer", on_a);
  answer.params.Set("choice", JsonValue::Number(int64_t{0}));
  StatusOr<JsonValue> rejected = manager.Execute(std::move(answer));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status();
  EXPECT_TRUE(shard_a.WalDegraded());
  EXPECT_FALSE(shard_b.WalDegraded());

  // The cause names the right shard-level condition (the sharded
  // front end prefixes each cause with its shard index).
  bool saw_cause = false;
  for (const std::string& cause : manager.ReadinessCauses()) {
    if (cause.find("wal-disk-degraded") != std::string::npos) {
      saw_cause = true;
    }
  }
  EXPECT_TRUE(saw_cause);

  // While degraded: answers on shard A shed at admission; the other
  // shard and the read path keep serving.
  if (shard_a.WalDegraded()) {
    ServiceRequest again = SessionCommand("answer", on_a);
    again.params.Set("choice", JsonValue::Number(int64_t{0}));
    StatusOr<JsonValue> shed = manager.Execute(std::move(again));
    if (!shed.ok()) {
      EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
    }
  }
  EXPECT_TRUE(manager.Execute(SessionCommand("status", on_a)).ok());
  ServiceRequest answer_b = SessionCommand("answer", on_b);
  answer_b.params.Set("choice", JsonValue::Number(int64_t{0}));
  EXPECT_TRUE(manager.Execute(std::move(answer_b)).ok());

  // The failpoint is exhausted, so the reaper's next write probe
  // succeeds and the shard leaves degraded mode on its own.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (shard_a.WalDegraded() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_FALSE(shard_a.WalDegraded()) << "probe never recovered the shard";
  for (const std::string& cause : manager.ReadinessCauses()) {
    EXPECT_NE(cause, "wal-disk-degraded");
  }

  // The rejected answer was never applied: the dialogue continues and
  // the retried answer succeeds exactly once.
  ServiceRequest retried = SessionCommand("answer", on_a);
  retried.params.Set("choice", JsonValue::Number(int64_t{0}));
  EXPECT_TRUE(manager.Execute(std::move(retried)).ok());

  const JsonValue metrics = GetMetrics(manager);
  EXPECT_GE(metrics.Get("durability").Get("wal_disk_full_failures").AsInt(0),
            1);
  EXPECT_EQ(metrics.Get("durability").Get("wal_degraded").AsInt(-1), 0);
}

// ------------------------------------------------------------------
// Memory pressure: creates shed with a retryable rejection, idle
// sessions evicted oldest-first, pressure clears under the watermark.

TEST_F(ChaosSoakTest, MemoryPressureShedsThenEvictsThenRecovers) {
  ServiceConfig config;
  config.num_shards = 1;
  config.num_workers = 2;
  // Roughly 10 sessions' worth of estimate: 8 parked sessions later
  // become the eviction fodder that brings the estimate back down.
  config.mem_budget_bytes = 10 * 20 * 1024;
  SessionManager manager(config);
  const std::shared_ptr<ResourceGovernor>& governor =
      manager.governor();
  ASSERT_EQ(governor->budget_bytes(), config.mem_budget_bytes);

  // Park 8 idle sessions (strictly older last_activity than anything
  // created later — eviction is oldest-first, so these go first).
  std::vector<std::string> parked;
  for (uint64_t i = 0; i < 8; ++i) {
    StatusOr<JsonValue> created =
        ExecuteWithRetry(manager, MakeRequest(CreateParams(300 + i)));
    ASSERT_TRUE(created.ok()) << created.status();
    parked.push_back(created->Get("session").AsString());
  }

  // Push the estimate over budget and observe at least one shed: the
  // governor rejects ResourceExhausted with a retry hint, /readyz says
  // memory-pressure, and the mem_pressure gauge is up.
  bool saw_shed = false;
  std::vector<std::string> extra;
  for (uint64_t i = 0; i < 32 && !saw_shed; ++i) {
    StatusOr<JsonValue> created =
        manager.Execute(MakeRequest(CreateParams(400 + i)));
    if (created.ok()) {
      extra.push_back(created->Get("session").AsString());
      continue;
    }
    ASSERT_EQ(created.status().code(), StatusCode::kResourceExhausted)
        << created.status();
    saw_shed = true;
    EXPECT_NE(created.status().message().find("retry"), std::string::npos)
        << created.status();
    bool saw_cause = false;
    for (const std::string& cause : manager.ReadinessCauses()) {
      if (cause.find("memory-pressure") != std::string::npos) {
        saw_cause = true;
      }
    }
    // The reaper's eviction sweep runs on a 50 ms cadence while over
    // budget, so it can resolve the pressure between the shed and this
    // probe; readiness must either report the pressure or it must
    // already be gone — never silently stay unready.
    EXPECT_TRUE(saw_cause || !governor->UnderPressure());
  }
  ASSERT_TRUE(saw_shed) << "budget never tripped";

  // The reaper evicts parked sessions until the estimate is back under
  // the low watermark; a retried create is then admitted.
  StatusOr<JsonValue> retried =
      ExecuteWithRetry(manager, MakeRequest(CreateParams(999)));
  ASSERT_TRUE(retried.ok()) << retried.status();
  extra.push_back(retried->Get("session").AsString());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (governor->UnderPressure() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(governor->UnderPressure());
  for (const std::string& cause : manager.ReadinessCauses()) {
    EXPECT_EQ(cause.find("memory-pressure"), std::string::npos) << cause;
  }

  const JsonValue metrics = GetMetrics(manager);
  EXPECT_GE(metrics.Get("resources").Get("rejected_pressure").AsInt(0), 1);
  EXPECT_GE(metrics.Get("resources").Get("pressure_evictions").AsInt(0), 1);
  EXPECT_EQ(metrics.Get("resources").Get("mem_budget_bytes").AsInt(0),
            config.mem_budget_bytes);
  EXPECT_EQ(metrics.Get("resources").Get("mem_pressure").AsInt(-1), 0);

  // Ledger: everything opened is either still active or was evicted.
  const int64_t opened = metrics.Get("sessions").Get("opened").AsInt(-1);
  const int64_t evicted = metrics.Get("sessions").Get("evicted").AsInt(-1);
  const int64_t active = metrics.Get("sessions").Get("active").AsInt(-1);
  EXPECT_EQ(opened, evicted + active);

  // The surviving sessions still answer (closing proves liveness).
  for (const std::string& id : extra) {
    StatusOr<JsonValue> status =
        manager.Execute(SessionCommand("status", id));
    if (status.ok()) {
      EXPECT_TRUE(manager.Execute(SessionCommand("close", id)).ok());
    }
  }
}

// ------------------------------------------------------------------
// Process-wide readiness causes come from the front end, once, however
// many shards there are; only shard-local causes carry a shard prefix.

size_t CountCauses(SessionManager& manager, const std::string& cause) {
  size_t count = 0;
  for (const std::string& line : manager.ReadinessCauses()) {
    if (line.find(cause) != std::string::npos) ++count;
  }
  return count;
}

TEST_F(ChaosSoakTest, ProcessWideReadinessCausesAreReportedOnce) {
  ServiceConfig config;
  config.num_shards = 2;
  config.num_workers = 1;
  config.mem_budget_bytes = 10 * 20 * 1024;
  SessionManager manager(config);
  const std::shared_ptr<ResourceGovernor>& governor = manager.governor();
  ASSERT_TRUE(manager.ReadinessCauses().empty());

  // Hold the estimate at the budget: with no sessions to evict the
  // pressure stays up until the charge is returned.
  governor->AdjustSessionBytes(config.mem_budget_bytes);
  ASSERT_TRUE(governor->UnderPressure());
  StatusOr<JsonValue> shed = manager.Execute(MakeRequest(CreateParams(1)));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(CountCauses(manager, "memory-pressure"), 1u);
  const std::vector<std::string> causes = manager.ReadinessCauses();
  EXPECT_NE(std::find(causes.begin(), causes.end(), "memory-pressure"),
            causes.end())
      << "a process-wide cause carries no shard prefix";
  const JsonValue statusz = manager.StatuszJson();
  ASSERT_EQ(statusz.Get("readiness_causes").size(), 1u);
  EXPECT_EQ(statusz.Get("readiness_causes").at(0).AsString(),
            "memory-pressure");
  governor->AdjustSessionBytes(-config.mem_budget_bytes);
  EXPECT_EQ(CountCauses(manager, "memory-pressure"), 0u);

  manager.Shutdown();
  EXPECT_EQ(CountCauses(manager, "shutdown-in-progress"), 1u);
  EXPECT_EQ(manager.ReadinessCauses(),
            std::vector<std::string>{"shutdown-in-progress"});
}

// ------------------------------------------------------------------
// The seeded soak: a chaos controller arms counted fault windows while
// scripted drivers run dialogues under the retry contract, the whole
// fleet restarts mid-round and recovers from the WALs, and every
// completed dialogue must match the single-threaded oracle.

struct DriverState {
  uint64_t seed = 0;
  std::string session;
  Rng rng{0};
  bool done = false;    // dialogue reached done
  bool closed = false;  // close acknowledged
  std::string failure;  // non-empty = invariant broken
};

// Advances one dialogue by up to `max_answers` questions. Every command
// uses the retry contract; any non-retryable error is recorded.
void DriveSome(SessionManager& manager, DriverState& st,
               size_t max_answers) {
  for (size_t n = 0; n < max_answers && !st.done; ++n) {
    StatusOr<JsonValue> asked =
        ExecuteWithRetry(manager, SessionCommand("ask", st.session));
    if (!asked.ok()) {
      st.failure = "ask: " + asked.status().ToString();
      return;
    }
    if (asked->Get("done").AsBool(false)) {
      st.done = true;
      return;
    }
    const int64_t num_fixes =
        asked->Get("question").Get("num_fixes").AsInt(0);
    if (num_fixes <= 0) {
      st.failure = "question with no fixes";
      return;
    }
    ServiceRequest answer = SessionCommand("answer", st.session);
    answer.params.Set(
        "choice", JsonValue::Number(static_cast<int64_t>(st.rng.UniformIndex(
                      static_cast<size_t>(num_fixes)))));
    StatusOr<JsonValue> answered = ExecuteWithRetry(manager, answer);
    if (!answered.ok()) {
      st.failure = "answer: " + answered.status().ToString();
      return;
    }
  }
}

// Closes with include_facts and checks byte-identity with the oracle.
void CloseAndVerify(SessionManager& manager, DriverState& st) {
  ServiceRequest close = SessionCommand("close", st.session);
  close.params.Set("include_facts", JsonValue::Bool(true));
  StatusOr<JsonValue> closed = ExecuteWithRetry(manager, close);
  if (!closed.ok()) {
    st.failure = "close: " + closed.status().ToString();
    return;
  }
  st.closed = true;
  if (!closed->Get("consistent").AsBool(false)) {
    st.failure = "closed inconsistent";
    return;
  }
  StatusOr<std::vector<std::string>> oracle = OracleFacts(CreateParams(st.seed), st.seed);
  if (!oracle.ok()) {
    st.failure = "oracle: " + oracle.status().ToString();
    return;
  }
  const JsonValue& facts = closed->Get("facts");
  if (facts.size() != oracle->size()) {
    st.failure = "fact count diverged: service " +
                 std::to_string(facts.size()) + " vs oracle " +
                 std::to_string(oracle->size());
    return;
  }
  for (size_t i = 0; i < oracle->size(); ++i) {
    if (facts.at(i).AsString() != (*oracle)[i]) {
      st.failure = "fact " + std::to_string(i) + " diverged";
      return;
    }
  }
}

void RunSoakRound(uint64_t seed) {
  SCOPED_TRACE("soak seed " + std::to_string(seed));
  constexpr size_t kDrivers = 6;
  TempDir wal_root("kbrepair_chaos_");

  ServiceConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  config.wal_dir = wal_root.path;

  std::vector<DriverState> states(kDrivers);
  for (size_t i = 0; i < kDrivers; ++i) {
    states[i].seed = seed * 1000 + i;
    states[i].rng = Rng(states[i].seed);
  }

  // ---- Phase A: drive the first turns of every dialogue while the
  // chaos controller opens counted fault windows (each spec exhausts
  // itself, so no window can wedge the round).
  int64_t opened_a = 0;
  int64_t completed_a = 0;
  {
    auto manager = std::make_unique<SessionManager>(config);
    std::atomic<bool> stop_chaos{false};
    std::thread chaos([&] {
      Rng chaos_rng(seed ^ 0x9e3779b97f4a7c15ull);
      const char* kSpecs[] = {"wal.fsync=1", "wal.append=1", "fs.enospc=1",
                              "fs.atomic_write=1"};
      // The schedule is bounded: once a shard is disk-degraded its
      // appends shed at admission, so the reaper's write probe is the
      // only consumer of a re-armed fs.enospc — an unbounded re-arming
      // loop would keep winning that race and the shard would never
      // recover. ~50 windows blanket the phase and then let it drain.
      for (int event = 0;
           event < 50 && !stop_chaos.load(std::memory_order_relaxed);
           ++event) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            1 + static_cast<int64_t>(chaos_rng.UniformIndex(8))));
        (void)failpoint::Configure(kSpecs[chaos_rng.UniformIndex(4)]);
      }
    });

    std::vector<std::thread> drivers;
    for (size_t i = 0; i < kDrivers; ++i) {
      drivers.emplace_back([&, i] {
        DriverState& st = states[i];
        StatusOr<JsonValue> created =
            ExecuteWithRetry(*manager, MakeRequest(CreateParams(st.seed)));
        if (!created.ok()) {
          st.failure = "create: " + created.status().ToString();
          return;
        }
        st.session = created->Get("session").AsString();
        DriveSome(*manager, st, 3);
        // Dialogues that finish early are closed before the restart.
        if (st.done && st.failure.empty()) CloseAndVerify(*manager, st);
      });
    }
    for (std::thread& t : drivers) t.join();
    stop_chaos.store(true, std::memory_order_relaxed);
    chaos.join();
    failpoint::Reset();
    for (const DriverState& st : states) {
      ASSERT_TRUE(st.failure.empty()) << "seed " << st.seed << ": "
                                      << st.failure;
    }

    const JsonValue metrics = GetMetrics(*manager);
    opened_a = metrics.Get("sessions").Get("opened").AsInt(-1);
    completed_a = metrics.Get("sessions").Get("completed").AsInt(-1);
    EXPECT_EQ(opened_a, static_cast<int64_t>(kDrivers));
    EXPECT_EQ(metrics.Get("sessions").Get("failed").AsInt(-1), 0);
    manager->Shutdown();
  }

  // ---- Phase B: the fleet restarts; open sessions are rebuilt from
  // their WALs and every dialogue continues exactly where it stopped
  // (the drivers keep their Rng state across the restart).
  config.recover = true;
  SessionManager recovered(config);
  const JsonValue mid = GetMetrics(recovered);
  EXPECT_EQ(mid.Get("durability").Get("sessions_recovered").AsInt(-1),
            static_cast<int64_t>(kDrivers) - completed_a);

  std::vector<std::thread> finishers;
  for (size_t i = 0; i < kDrivers; ++i) {
    if (states[i].closed) continue;
    finishers.emplace_back([&, i] {
      DriverState& st = states[i];
      DriveSome(recovered, st, 100000);
      if (st.failure.empty()) CloseAndVerify(recovered, st);
    });
  }
  for (std::thread& t : finishers) t.join();
  for (const DriverState& st : states) {
    EXPECT_TRUE(st.failure.empty()) << "seed " << st.seed << ": "
                                    << st.failure;
    EXPECT_TRUE(st.closed) << "seed " << st.seed << " never closed";
  }

  // Ledger across the restart: everything recovered was completed, the
  // fleet ends empty and healthy.
  const JsonValue metrics = GetMetrics(recovered);
  EXPECT_EQ(metrics.Get("sessions").Get("active").AsInt(-1), 0);
  EXPECT_EQ(metrics.Get("sessions").Get("completed").AsInt(-1),
            static_cast<int64_t>(kDrivers) - completed_a);
  EXPECT_EQ(metrics.Get("sessions").Get("failed").AsInt(-1), 0);
  EXPECT_TRUE(recovered.ReadinessCauses().empty());
  // All WALs were removed on close — nothing left to recover.
  EXPECT_TRUE(
      ListWalSessionIds(SessionManager::ShardWalDir(wal_root.path, 0, 2))
          .empty());
  EXPECT_TRUE(
      ListWalSessionIds(SessionManager::ShardWalDir(wal_root.path, 1, 2))
          .empty());
}

TEST_F(ChaosSoakTest, FiveSeededRoundsStayByteIdentical) {
  for (uint64_t seed = 1; seed <= 5; ++seed) RunSoakRound(seed);
}

// ------------------------------------------------------------------
// Restart with a bit-rotted WAL: the corrupt log is quarantined (moved
// aside, never replayed) while every healthy session recovers.

TEST_F(ChaosSoakTest, BitRotIsQuarantinedOnRecoveryNotReplayed) {
  TempDir wal_root("kbrepair_chaos_");
  ServiceConfig config;
  config.num_shards = 1;
  config.num_workers = 1;
  config.wal_dir = wal_root.path;

  std::vector<std::string> ids;
  {
    SessionManager manager(config);
    for (uint64_t i = 0; i < 3; ++i) {
      StatusOr<JsonValue> created =
          manager.Execute(MakeRequest(CreateParams(700 + i)));
      ASSERT_TRUE(created.ok()) << created.status();
      const std::string id = created->Get("session").AsString();
      StatusOr<JsonValue> asked =
          manager.Execute(SessionCommand("ask", id));
      ASSERT_TRUE(asked.ok());
      if (!asked->Get("done").AsBool(false)) {
        ServiceRequest answer = SessionCommand("answer", id);
        answer.params.Set("choice", JsonValue::Number(int64_t{0}));
        ASSERT_TRUE(manager.Execute(std::move(answer)).ok());
      }
      ids.push_back(id);
    }
    manager.Shutdown();
  }

  // Flip one interior byte of the second session's log — a framed v2
  // record, so the CRC catches it.
  const std::string victim = wal_root.path + "/" + ids[1] + ".wal";
  {
    std::FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
    std::fputc(c ^ 0x10, f);
    std::fclose(f);
  }

  config.recover = true;
  SessionManager recovered(config);
  const JsonValue metrics = GetMetrics(recovered);
  EXPECT_EQ(metrics.Get("durability").Get("sessions_recovered").AsInt(-1), 2);

  // The healthy sessions answer; the rotted one is gone, not garbled.
  EXPECT_TRUE(recovered.Execute(SessionCommand("status", ids[0])).ok());
  EXPECT_TRUE(recovered.Execute(SessionCommand("status", ids[2])).ok());
  StatusOr<JsonValue> gone =
      recovered.Execute(SessionCommand("status", ids[1]));
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);

  // The quarantined file is preserved for forensics.
  struct stat st;
  EXPECT_EQ(::stat((victim + ".corrupt").c_str(), &st), 0);
  EXPECT_NE(::stat(victim.c_str(), &st), 0);
}

}  // namespace
}  // namespace kbrepair
