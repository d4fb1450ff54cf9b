// chaos_soak: deterministic daemon-level chaos harness for kbrepaird.
//
// Every round spawns the real daemon on a fresh WAL directory and
// drives a fleet of scripted repair dialogues over TCP while a seeded
// chaos controller injects faults the service must absorb:
//
//  * counted failpoint windows (wal.fsync, wal.append, fs.enospc,
//    fs.atomic_write) armed over the wire via the `failpoint` command;
//  * client connection resets — drivers drop their socket after
//    sending an answer, then reconcile the unknown outcome against
//    `status` before deciding whether to resend;
//  * one kill -9 mid-round, followed by a restart with --recover-dir
//    on the same WAL directory; drivers reconnect and must find every
//    acknowledged answer preserved.
//
// Invariants per round: every dialogue completes and its repaired
// facts are byte-identical to a single-threaded oracle run with the
// same seed; the session ledger drains to zero; /readyz reports ready
// with no causes once the faults clear; SIGTERM exits cleanly.
//
// The schedule is a pure function of --seed, so a failing round is
// replayable. The in-process composition of the same faults (runnable
// under ASan/UBSan) lives in tests/chaos_soak_test.cc.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "repair/inquiry.h"
#include "service/daemon_client.h"
#include "service/session.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"

namespace kbrepair {
namespace {

struct SoakOptions {
  std::string server_path;
  uint64_t seed = 20180326;
  size_t rounds = 3;
  size_t sessions = 8;
  size_t shards = 2;
  size_t workers = 2;
  size_t num_facts = 30;
  bool quick = false;
  // When non-empty: put each round's WAL dir under this existing
  // directory (round-<seed>/) and keep it after the run, so CI can
  // sweep the surviving logs with kbrepair-debug --replay-verify.
  std::string keep_wal_dir;
};

std::atomic<uint64_t> g_resets{0};     // deliberate connection drops
std::atomic<uint64_t> g_retries{0};    // retryable rejections retried
std::atomic<uint64_t> g_reconciles{0}; // status-based answer reconciles
std::atomic<uint64_t> g_windows{0};    // failpoint windows armed

// ------------------------------------------------------------------
// A reconnecting connection. Every transport failure drops it, and the
// next call reconnects via the port file (which the respawned daemon
// rewrites after a kill -9).

class Client {
 public:
  explicit Client(const std::string& port_file) {
    endpoint_.port_file = port_file;
  }

  // Executes one command in a single attempt; the retry and reconcile
  // policy is the caller's. Returns false when the transport failed and
  // the command's outcome is unknown; otherwise *result holds the
  // server's result or its rejection. `drop_before_read` simulates a
  // client crash: the command reaches the kernel but the response is
  // lost, so the caller must reconcile via `status`.
  bool Call(const JsonValue& params, StatusOr<JsonValue>* result,
            bool drop_before_read = false) {
    if (connection_ == nullptr) {
      // Generous budget: a restart must finish WAL replay for the whole
      // fleet before the listener accepts again.
      StatusOr<int> fd = client::ConnectWhenReady(
          endpoint_, nullptr, std::chrono::seconds(30));
      if (!fd.ok()) {
        *result = fd.status();
        return false;
      }
      connection_ = std::make_unique<client::Connection>(*fd);
    }
    StatusOr<std::string> id = connection_->Send(params);
    if (!id.ok()) {
      *result = id.status();
      connection_.reset();
      return false;
    }
    if (drop_before_read) {
      g_resets.fetch_add(1, std::memory_order_relaxed);
      *result = Status::Unavailable("connection reset after send");
      connection_.reset();
      return false;
    }
    *result = connection_->Await(*id);
    if (!connection_->closed()) return true;
    // An id still unanswered after Await was lost with the connection.
    const std::vector<std::string> lost = connection_->UnansweredIds();
    connection_.reset();
    return std::find(lost.begin(), lost.end(), *id) == lost.end();
  }

 private:
  client::Endpoint endpoint_;
  std::unique_ptr<client::Connection> connection_;
};

// Retries a command until the server acknowledges it. Only safe for
// idempotent commands (ask, status, metrics, failpoint, close):
// transport failures are retried blindly alongside retryable
// rejections. Non-retryable rejections surface as the final status.
StatusOr<JsonValue> CallIdempotent(Client& client, const JsonValue& params) {
  StatusOr<JsonValue> result = Status::Unavailable("never attempted");
  for (int attempt = 0; attempt < 1200; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const bool delivered = client.Call(params, &result);
    if (result.ok()) return result;
    if (delivered && !client::IsRetryableCode(result.status().code())) {
      return result;
    }
    if (delivered) g_retries.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

JsonValue SessionCommand(const std::string& command,
                         const std::string& session) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String(command));
  params.Set("session", JsonValue::String(session));
  return params;
}

JsonValue CreateParams(uint64_t seed, size_t num_facts) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("create"));
  params.Set("kb", JsonValue::String("synthetic"));
  params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(seed)));
  params.Set("num_facts",
             JsonValue::Number(static_cast<int64_t>(num_facts)));
  params.Set("num_cdds", JsonValue::Number(int64_t{4}));
  params.Set("strategy", JsonValue::String("random"));
  params.Set("seed", JsonValue::Number(static_cast<int64_t>(seed)));
  return params;
}

// ------------------------------------------------------------------
// Driver: one scripted dialogue following the retry contract, with
// seeded connection drops and status-based reconciliation.

struct Driver {
  uint64_t seed = 0;       // kb seed, user-model seed, oracle seed
  uint64_t chaos_seed = 0; // connection-drop schedule, independent of rng
  std::string session;
  Rng rng{0};        // the scripted user's draws; must stay oracle-locked
  Rng chaos{0};
  size_t answered = 0;  // answers the server has acknowledged
  bool done = false;
  bool closed = false;
  std::string failure;  // non-empty = invariant broken
};

// Sends one answer, surviving transport loss at any point. When the
// outcome is unknown (connection died after the send), `status` is the
// arbiter: the server's applied-answer count tells us whether to
// advance or resend the identical choice.
void AnswerWithReconcile(Client& client, Driver& st, int64_t choice) {
  JsonValue params = SessionCommand("answer", st.session);
  params.Set("choice", JsonValue::Number(choice));
  for (int attempt = 0; attempt < 1200; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // Roughly one answer in six loses its connection before the
    // response arrives, covering both reconcile verdicts.
    const bool drop = st.chaos.UniformIndex(6) == 0;
    StatusOr<JsonValue> answered = Status::Unavailable("never attempted");
    const bool delivered = client.Call(params, &answered, drop);
    if (answered.ok()) {
      ++st.answered;
      return;
    }
    if (delivered) {
      if (!client::IsRetryableCode(answered.status().code())) {
        st.failure = "answer rejected " + answered.status().ToString();
        return;
      }
      // Rejected before execution: resend the identical answer.
      g_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Transport failure: the answer may or may not have executed.
    StatusOr<JsonValue> status =
        CallIdempotent(client, SessionCommand("status", st.session));
    if (!status.ok()) {
      st.failure = "status after reset: " + status.status().ToString();
      return;
    }
    g_reconciles.fetch_add(1, std::memory_order_relaxed);
    const int64_t applied = status->Get("questions").AsInt(-1);
    if (applied == static_cast<int64_t>(st.answered) + 1) {
      ++st.answered;  // it landed; the lost response is irrelevant
      return;
    }
    if (applied != static_cast<int64_t>(st.answered)) {
      st.failure = "answer ledger diverged: server " +
                   std::to_string(applied) + " vs client " +
                   std::to_string(st.answered);
      return;
    }
    // Not executed: fall through and resend.
  }
  st.failure = "answer never acknowledged";
}

// Advances the dialogue by up to `max_answers` questions.
void DriveSome(Client& client, Driver& st, size_t max_answers) {
  for (size_t n = 0; n < max_answers && !st.done && st.failure.empty(); ++n) {
    StatusOr<JsonValue> asked =
        CallIdempotent(client, SessionCommand("ask", st.session));
    if (!asked.ok()) {
      st.failure = "ask: " + asked.status().ToString();
      return;
    }
    if (asked->Get("done").AsBool(false)) {
      st.done = true;
      return;
    }
    const int64_t num_fixes = asked->Get("question").Get("num_fixes").AsInt(0);
    if (num_fixes <= 0) {
      st.failure = "question with no fixes";
      return;
    }
    AnswerWithReconcile(client, st,
                        static_cast<int64_t>(st.rng.UniformIndex(
                            static_cast<size_t>(num_fixes))));
  }
}

void CloseAndVerify(Client& client, Driver& st, size_t num_facts) {
  JsonValue close = SessionCommand("close", st.session);
  close.Set("include_facts", JsonValue::Bool(true));
  StatusOr<JsonValue> closed = CallIdempotent(client, close);
  if (!closed.ok()) {
    st.failure = "close: " + closed.status().ToString();
    return;
  }
  st.closed = true;
  if (!closed->Get("consistent").AsBool(false)) {
    st.failure = "closed inconsistent";
    return;
  }
  StatusOr<std::vector<std::string>> oracle =
      OracleFacts(CreateParams(st.seed, num_facts), st.seed);
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
      st.failure = "fact " + std::to_string(i) + " diverged on " + st.session;
      return;
    }
  }
}

// ------------------------------------------------------------------
// Chaos controller: arms counted failpoint windows over the wire at
// seeded intervals. Counted specs (fail=1) self-exhaust, so no window
// outlives the faults it injects and the round always converges.

void ChaosLoop(const std::string& port_file, uint64_t seed,
               std::atomic<bool>& stop) {
  static const char* kSpecs[] = {"wal.fsync=1", "wal.append=1", "fs.enospc=1",
                                 "fs.atomic_write=1"};
  Client client(port_file);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  // The schedule is bounded: a degraded shard sheds appends at
  // admission, leaving the reaper's write probe as the only consumer
  // of a re-armed fs.enospc — re-arming forever would keep winning
  // that race and the shard would never recover. ~60 windows blanket
  // the phase and then let the fleet drain fault-free.
  for (int event = 0; event < 60 && !stop.load(std::memory_order_acquire);
       ++event) {
    JsonValue params = JsonValue::Object();
    params.Set("command", JsonValue::String("failpoint"));
    params.Set("spec", JsonValue::String(kSpecs[rng.UniformIndex(4)]));
    StatusOr<JsonValue> armed = Status::Unavailable("never attempted");
    if (client.Call(params, &armed) && armed.ok()) {
      g_windows.fetch_add(1, std::memory_order_relaxed);
    }
    // 1-9ms between windows keeps several faults per dialogue turn.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(1 + rng.UniformIndex(9)));
  }
}

// ------------------------------------------------------------------
// One round: spawn, create fleet, chaos phase A, kill -9, recover,
// chaos phase B, verify, reap.

Status RunRound(const SoakOptions& options, uint64_t round_seed,
                size_t* kills_out) {
  std::string wal_dir;
  if (!options.keep_wal_dir.empty()) {
    wal_dir = options.keep_wal_dir + "/round-" + std::to_string(round_seed);
    if (::mkdir(wal_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal("mkdir " + wal_dir + " failed: " +
                              std::string(std::strerror(errno)));
    }
  } else {
    char wal_tmpl[] = "/tmp/kbrepair_chaos_wal_XXXXXX";
    if (::mkdtemp(wal_tmpl) == nullptr) {
      return Status::Internal("mkdtemp failed");
    }
    wal_dir = wal_tmpl;
  }
  const std::string port_file = client::MakeTempPath("kbrepair_chaos_port_");
  const std::string http_file = client::MakeTempPath("kbrepair_chaos_http_");
  if (port_file.empty() || http_file.empty()) {
    return Status::Internal("mkstemp failed");
  }

  const auto daemon_args = [&](bool recover) {
    std::vector<std::string> args = {
        options.server_path,
        "--workers", std::to_string(options.workers),
        "--shards", std::to_string(options.shards),
        recover ? "--recover-dir" : "--wal-dir", wal_dir,
        "--listen-tcp", "0", "--listen-tcp-port-file", port_file,
        "--http-port", "0", "--http-port-file", http_file,
    };
    return args;
  };
  client::Daemon daemon;
  const auto cleanup = [&] {
    daemon.Kill9();
    if (options.keep_wal_dir.empty()) {
      std::error_code error;
      std::filesystem::remove_all(wal_dir, error);
      if (error) {
        std::cerr << "warning: cleanup of " << wal_dir
                  << " failed: " << error.message() << "\n";
      }
    }
    ::unlink(port_file.c_str());
    ::unlink(http_file.c_str());
  };
  if (Status started = daemon.Start(daemon_args(/*recover=*/false),
                                    client::Stdio::kDetached);
      !started.ok()) {
    cleanup();
    return started;
  }

  // The fleet: one driver (thread + connection) per session.
  std::vector<Driver> fleet(options.sessions);
  for (size_t i = 0; i < fleet.size(); ++i) {
    fleet[i].seed = round_seed * 1000 + i;
    fleet[i].chaos_seed = round_seed ^ (0xc0ffee00ull + i);
    fleet[i].rng = Rng(fleet[i].seed);
    fleet[i].chaos = Rng(fleet[i].chaos_seed);
  }

  // Creates land before any chaos so a lost create response can never
  // leak an orphan session into the ledger.
  {
    Client client(port_file);
    for (Driver& st : fleet) {
      StatusOr<JsonValue> created = CallIdempotent(
          client, CreateParams(st.seed, options.num_facts));
      if (!created.ok()) {
        cleanup();
        return Status::Internal("create: " + created.status().ToString());
      }
      st.session = created->Get("session").AsString();
    }
  }

  // Phase A: every dialogue advances up to two answers under fault
  // windows and connection resets, then parks at the barrier.
  std::atomic<bool> stop_chaos{false};
  std::thread chaos(ChaosLoop, port_file, round_seed, std::ref(stop_chaos));
  {
    std::vector<std::thread> threads;
    for (Driver& st : fleet) {
      threads.emplace_back([&] {
        Client client(port_file);
        DriveSome(client, st, 2);
        if (st.done && st.failure.empty()) {
          CloseAndVerify(client, st, options.num_facts);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  stop_chaos.store(true, std::memory_order_release);
  chaos.join();
  for (const Driver& st : fleet) {
    if (!st.failure.empty()) {
      cleanup();
      return Status::Internal("phase A " + st.session + ": " + st.failure);
    }
  }

  // The crash: no warning, no flush — recovery must rebuild every
  // still-open session from its WAL alone.
  daemon.Kill9();
  // Truncate the port file so drivers cannot reconnect to the dead
  // listener's port before the new daemon publishes its own.
  if (FILE* f = std::fopen(port_file.c_str(), "w")) std::fclose(f);
  if (FILE* f = std::fopen(http_file.c_str(), "w")) std::fclose(f);
  if (Status started = daemon.Start(daemon_args(/*recover=*/true),
                                    client::Stdio::kDetached);
      !started.ok()) {
    cleanup();
    return started;
  }
  ++*kills_out;

  // Phase B: drivers verify recovery preserved exactly the answers
  // that were acknowledged, then run their dialogues to completion
  // under a fresh chaos schedule.
  stop_chaos.store(false, std::memory_order_relaxed);
  std::thread chaos_b(ChaosLoop, port_file, round_seed + 1,
                      std::ref(stop_chaos));
  {
    std::vector<std::thread> threads;
    for (Driver& st : fleet) {
      threads.emplace_back([&] {
        if (st.closed || !st.failure.empty()) return;
        Client client(port_file);
        StatusOr<JsonValue> status =
            CallIdempotent(client, SessionCommand("status", st.session));
        if (!status.ok()) {
          st.failure = "status after recovery: " + status.status().ToString();
          return;
        }
        const int64_t applied = status->Get("questions").AsInt(-1);
        if (applied != static_cast<int64_t>(st.answered)) {
          st.failure = "recovery lost answers: server " +
                       std::to_string(applied) + " vs client " +
                       std::to_string(st.answered);
          return;
        }
        DriveSome(client, st, 1000);
        if (st.failure.empty()) CloseAndVerify(client, st, options.num_facts);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  stop_chaos.store(true, std::memory_order_release);
  chaos_b.join();
  for (const Driver& st : fleet) {
    if (!st.failure.empty()) {
      cleanup();
      return Status::Internal("phase B " + st.session + ": " + st.failure);
    }
  }

  // Final invariants: the ledger drained, readiness recovered with no
  // causes, and SIGTERM still exits cleanly after all that abuse. The
  // last chaos window can land moments before the fleet drains, and
  // recovering from it takes a reaper probe cycle (~50 ms), so the
  // checks poll: what must hold is that the daemon *converges* to
  // healthy once faults stop, not that it is healthy the same instant.
  Status verdict = [&]() -> Status {
    Client client(port_file);
    Status last = Status::Ok();
    for (int attempt = 0; attempt < 500; ++attempt) {
      if (attempt > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      last = [&]() -> Status {
        JsonValue params = JsonValue::Object();
        params.Set("command", JsonValue::String("metrics"));
        KBREPAIR_ASSIGN_OR_RETURN(JsonValue metrics,
                                  CallIdempotent(client, params));
        const int64_t active =
            metrics.Get("sessions").Get("active").AsInt(-1);
        if (active != 0) {
          return Status::Internal("session ledger did not drain: active=" +
                                  std::to_string(active));
        }
        const int64_t degraded =
            metrics.Get("durability").Get("wal_degraded").AsInt(-1);
        if (degraded != 0) {
          return Status::Internal("shards still degraded at round end: " +
                                  std::to_string(degraded));
        }
        const int http_port = client::ReadPortFile(http_file);
        if (http_port <= 0) return Status::Internal("no http port published");
        KBREPAIR_ASSIGN_OR_RETURN(
            client::HttpResponse readyz,
            client::HttpGet("127.0.0.1", http_port, "/readyz"));
        // The level-based causes must have cleared with the faults. The
        // 30s `recent-*` hold-down causes may legitimately linger (the
        // last injected fsync failure was moments ago), so a 503 carrying
        // only those is correct degraded-mode reporting, not a failure.
        if (readyz.body.find("wal-disk-degraded") != std::string::npos ||
            readyz.body.find("memory-pressure") != std::string::npos) {
          return Status::Internal("readyz still degraded at round end: " +
                                  readyz.body);
        }
        if (readyz.status != 200 &&
            readyz.body.find("recent-") == std::string::npos) {
          return Status::Internal("readyz not ready at round end: HTTP " +
                                  std::to_string(readyz.status) + " " +
                                  readyz.body);
        }
        return Status::Ok();
      }();
      if (last.ok()) break;
    }
    return last;
  }();

  const bool clean = daemon.Terminate() == 0;
  cleanup();
  if (!verdict.ok()) return verdict;
  if (!clean) return Status::Internal("daemon did not exit cleanly");
  return Status::Ok();
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--seed S] [--rounds N] [--sessions N] [--shards S]\n"
               "       [--workers W] [--num-facts F] [--server PATH]"
               " [--quick]\n"
               "       [--keep-wal-dir DIR]  (keep per-round WALs under"
               " DIR for replay)\n"
               "Seeded chaos soak against the real daemon: failpoint\n"
               "windows, connection resets, and a kill -9 /"
               " --recover-dir\n"
               "restart per round, verified against a single-threaded"
               " oracle.\n";
  return 2;
}

int Main(int argc, char** argv) {
  SoakOptions options;
#ifdef KBREPAIRD_PATH
  options.server_path = KBREPAIRD_PATH;
#endif
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--seed" && (v = next_value())) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--rounds" && (v = next_value())) {
      options.rounds = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--sessions" && (v = next_value())) {
      options.sessions = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--shards" && (v = next_value())) {
      options.shards = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--workers" && (v = next_value())) {
      options.workers = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--num-facts" && (v = next_value())) {
      options.num_facts = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--server" && (v = next_value())) {
      options.server_path = v;
    } else if (arg == "--keep-wal-dir" && (v = next_value())) {
      options.keep_wal_dir = v;
    } else if (arg == "--quick") {
      options.quick = true;
      options.rounds = 1;
      options.sessions = 4;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown or incomplete flag '" << arg << "'\n";
      return Usage(argv[0]);
    }
  }
  if (options.server_path.empty()) {
    std::cerr << "--server is required\n";
    return Usage(argv[0]);
  }
  if (options.sessions == 0) options.sessions = 1;
  if (options.rounds == 0) options.rounds = 1;

  size_t kills = 0;
  for (size_t round = 0; round < options.rounds; ++round) {
    const uint64_t round_seed = options.seed + round;
    const Status outcome = RunRound(options, round_seed, &kills);
    if (!outcome.ok()) {
      std::cerr << "chaos_soak: round " << round << " (seed " << round_seed
                << ") FAILED: " << outcome.ToString() << "\n";
      return 1;
    }
    std::cerr << "chaos_soak: round " << round << " (seed " << round_seed
              << ") ok\n";
  }

  JsonValue out = JsonValue::Object();
  out.Set("bench", JsonValue::String("chaos_soak"));
  out.Set("seed", JsonValue::Number(static_cast<int64_t>(options.seed)));
  out.Set("rounds", JsonValue::Number(static_cast<int64_t>(options.rounds)));
  out.Set("sessions",
          JsonValue::Number(static_cast<int64_t>(options.sessions)));
  out.Set("kills", JsonValue::Number(static_cast<int64_t>(kills)));
  out.Set("fault_windows",
          JsonValue::Number(static_cast<int64_t>(g_windows.load())));
  out.Set("connection_resets",
          JsonValue::Number(static_cast<int64_t>(g_resets.load())));
  out.Set("reconciles",
          JsonValue::Number(static_cast<int64_t>(g_reconciles.load())));
  out.Set("retries",
          JsonValue::Number(static_cast<int64_t>(g_retries.load())));
  out.Set("ok", JsonValue::Bool(true));
  std::cout << out.Dump() << "\n";
  return 0;
}

}  // namespace
}  // namespace kbrepair

int main(int argc, char** argv) { return kbrepair::Main(argc, argv); }
