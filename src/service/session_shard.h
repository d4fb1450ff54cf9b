// SessionShard: one partition of the session registry behind the
// SessionManager front end (service/session_manager.h).
//
// A shard owns admission, a ready queue, a worker pool, a reaper, one
// WAL directory and the sessions whose ids hash to it, and it is the one
// owner of each session's durability and accounting: it opens, appends,
// compacts and removes the session's WAL, and makes every ServiceMetrics
// write a session command causes. Everything
// process-wide — parsing, `s-<n>` ids, the base registry, the memory
// governor, the span recorder and the aggregate observability — lives in
// the front end; a shard only borrows the registry and governor.
//
// Scheduling model (the classic "serial executor per key over a shared
// pool" used by actor runtimes and HTTP/2 servers):
//  * N workers pull from one ready queue (bounded by max_queue across
//    all pending commands; excess submissions are rejected, not
//    buffered — backpressure instead of unbounded memory);
//  * commands addressed to one session are executed strictly in arrival
//    order by at most one worker at a time (a `busy` bit plus a
//    per-session wait queue), so session state needs no locking of its
//    own while distinct sessions run fully in parallel;
//  * `create` and the shard-0 admin commands are session-less and run
//    as independent tasks;
//  * a reaper thread evicts sessions idle longer than the TTL;
//  * Shutdown() stops intake, drains every queued command, joins the
//    workers and flushes all remaining transcripts to transcript_dir.
//
// Completions run on worker threads; they must not call back into the
// manager (the daemon's completion just writes one line to stdout).

#ifndef KBREPAIR_SERVICE_SESSION_SHARD_H_
#define KBREPAIR_SERVICE_SESSION_SHARD_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "service/metrics.h"
#include "service/session.h"
#include "service/session_manager.h"
#include "service/wal.h"
#include "util/status.h"
#include "util/timer.h"

namespace kbrepair {

// One row per wire command: the service's single list of command names.
struct CommandSpec {
  enum class Home {
    kFrontEnd,    // answered inline by the SessionManager
    kShardZero,   // process-wide admin work, on a shard-0 worker
    kOwningShard  // the shard the session id hashes to
  };
  const char* name;
  // Root span of the command (a literal: ScopedSpan keeps the pointer).
  const char* span;
  // Addresses an existing session: queued behind that session's earlier
  // commands instead of running as an independent task.
  bool addresses_session;
  Home home;
  // The handler of a shard-0 command; null on every other row.
  StatusOr<JsonValue> (*run)(BaseRegistry& registry, const JsonValue& params);
};

// The row for `name`. Unknown names get a session-addressing row, so
// the owning shard answers them with the same missing-session,
// unknown-session or unknown-command error as any session command.
const CommandSpec& LookupCommand(const std::string& name);

class SessionShard {
 public:
  // `config.wal_dir` is this shard's own directory. The registry and
  // governor are the front end's and outlive the shard.
  SessionShard(ServiceConfig config, BaseRegistry& registry,
               ResourceGovernor& governor);
  ~SessionShard();

  SessionShard(const SessionShard&) = delete;
  SessionShard& operator=(const SessionShard&) = delete;

  // Admits or rejects `request` (a `create` carries its id in
  // assigned_session_id); `done` fires exactly once, on a worker thread
  // (or inline on rejection).
  void Submit(ServiceRequest request, const CommandSpec& command,
              SessionManager::Completion done);

  // Stops intake, drains all queued commands, joins threads, flushes
  // transcripts. Idempotent; also run by the destructor.
  void Shutdown();

  ServiceMetrics& metrics() { return metrics_; }

  // True while this shard's WAL directory is in disk-degraded
  // read-only mode: a WAL append hit ENOSPC/EDQUOT/EIO and the reaper's
  // write probe has not succeeded since. While degraded, `create` and
  // `answer` are rejected with ResourceExhausted (status/snapshot/close
  // keep working — closing sessions is how disk space comes back).
  // Thread-safe; lock-free.
  bool WalDegraded() const;

  // Point-in-time queue/registry sizes. Thread-safe.
  size_t CommandsInFlight();
  size_t SessionsRegistered();

  // This shard's readiness-failure causes: a worker currently past the
  // stall threshold, a WAL fsync failure within the last
  // kReadinessHoldDownSeconds, a disk-degraded WAL directory. The
  // process-wide causes are the front end's. Thread-safe.
  std::vector<std::string> ReadinessCauses();
  static constexpr double kReadinessHoldDownSeconds = 30.0;

  // This shard's row of /statusz: workers, queue depth, session ids,
  // degraded mode, causes. Safe to call from any thread at any time
  // (including after Shutdown()).
  JsonValue StatuszJson();

 private:
  struct Task {
    ServiceRequest request;
    const CommandSpec* command = nullptr;
    SessionManager::Completion done;
    WallTimer timer;  // request latency, submission to completion
  };
  struct SessionEntry {
    std::unique_ptr<RepairSession> session;
    // The session's write-ahead log; null without a WAL directory, or
    // when recovery could not reopen it.
    std::unique_ptr<SessionWal> wal;
    // The session's Totals already folded into metrics_.
    RepairSession::Totals metered;
    std::deque<Task> waiting;
    bool busy = false;  // a worker owns this session right now
    std::chrono::steady_clock::time_point last_activity;
    // Bytes currently charged to the memory governor for this session;
    // adjusted by delta after every command so the global estimate
    // tracks the session as it grows.
    int64_t charged_bytes = 0;
  };
  using SessionMap = std::unordered_map<std::string, SessionEntry>;
  // An independent task, or the key of a session with queued commands.
  using ReadyItem = std::variant<Task, std::string>;
  // The record a WAL append guards; it decides what a failed append
  // means (docs/SERVICE.md, "Write-ahead log").
  enum class WalRecord { kCreate, kAnswer, kClose };
  // Why a session leaves the registry.
  enum class Retirement { kClosed, kIdle, kPressure, kShutdown };

  void WorkerLoop(size_t worker_index);
  void ReaperLoop();
  void RunIndependent(Task task);
  void RunCreate(Task task);
  // Opens a session on create params — forked from the registered base
  // they name ("base"), else on a private KB — and counts the fork.
  // Shared by create (with the command deadline) and recovery.
  StatusOr<std::unique_ptr<RepairSession>> OpenSession(
      const std::string& id, const JsonValue& params, int64_t deadline_ms);
  // Makes an opened session addressable (create and recovery): counts
  // it opened and active and charges the governor.
  void RegisterSession(const std::string& id, SessionEntry entry);
  void RunSessionCommand(const std::string& key);
  // Runs one command on a session this worker owns, then meters it:
  // phase time, Totals deltas, WAL compaction and removal.
  StatusOr<JsonValue> DispatchToSession(SessionEntry& entry,
                                        const ServiceRequest& request);
  // The one WAL append of a session command, log-before-execute: `kind`
  // picks the failure policy, and every outcome is metered here. A
  // create opens entry.wal first. OK without a WAL, and for a close
  // skipped or proceeding on a full disk.
  Status AppendWalRecord(const std::string& id, SessionEntry& entry,
                         WalRecord kind, const JsonValue& record);
  // Deletes entry.wal (session closed, or create failed).
  void RemoveWal(SessionEntry& entry);
  // Folds the session's new Totals into metrics_.
  void MeterTotals(SessionEntry& entry);
  LabeledMetrics& Labeled(const RepairSession& session);
  // Finishes one task: records latency/error metrics, fires `done`.
  void Complete(Task& task, const Status& status, JsonValue result);
  void Complete(Task& task, StatusOr<JsonValue> outcome);
  void TaskDone();  // decrements tasks_in_flight_, wakes Shutdown
  // Startup crash recovery: opens a session from every WAL in
  // config_.wal_dir, replays its answers (RepairSession::Replay) and
  // re-registers it. Unreplayable WALs are renamed aside
  // (<file>.corrupt) and counted as failed; the daemon keeps serving.
  void RecoverSessions();
  // Watchdog sweep (runs on the reaper cadence): flags workers that
  // have owned one command longer than the stall threshold.
  void CheckWorkerStalls();
  // Re-estimates `entry`'s bytes and reports the delta to the governor
  // (call with mu_ held and the session not owned by another worker).
  void ChargeSessionLocked(SessionEntry& entry);
  // The one way out of the registry (close, idle TTL, memory pressure,
  // shutdown): returns the governor charge, counts the retirement and
  // moves the entry to `retired` for the caller to finish outside mu_
  // (FlushRetired). Returns the next iterator.
  SessionMap::iterator RetireLocked(SessionMap::iterator it, Retirement why,
                                    std::vector<SessionEntry>* retired);
  // Writes each retired session's transcript to transcript_dir (if
  // set), then drops the session, releasing its base and WAL. The
  // entries keep their queued commands for the caller.
  void FlushRetired(std::vector<SessionEntry>& retired);
  // Evicts idle sessions oldest-first until the estimate is back under
  // the governor's low watermark. Call with mu_ held.
  void EvictForPressureLocked(std::vector<SessionEntry>* retired);

  const ServiceConfig config_;
  ServiceMetrics metrics_;
  BaseRegistry* const registry_;
  ResourceGovernor* const governor_;
  // Monotonic ns of the last successful WAL-dir write probe. Degraded
  // mode is level-derived: metrics_.last_wal_disk_full_ns (stamped by
  // the failing append) newer than this means the disk is still bad.
  std::atomic<int64_t> disk_recovered_ns_{0};

  std::mutex mu_;
  std::condition_variable work_cv_;    // workers wait for ready items
  std::condition_variable drain_cv_;   // Shutdown waits for in-flight 0
  std::condition_variable reaper_cv_;  // reaper interval / exit
  std::deque<ReadyItem> ready_;
  SessionMap sessions_;
  size_t tasks_in_flight_ = 0;  // queued + executing
  bool stopping_ = false;  // intake closed
  bool exiting_ = false;   // drain finished; threads may return
  bool shut_down_ = false;
  // Set (with reaper_cv_ notified) to pull the reaper out of its timed
  // wait early — e.g. when a create is shed under memory pressure, so
  // eviction starts now instead of on the next tick.
  bool reaper_kick_ = false;

  // Watchdog state: per-worker steady-clock ns since the worker took its
  // current item (0 = idle). Written by the owning worker, read by the
  // reaper; `stall_flagged_` is reaper-private and remembers which
  // busy-since value was already counted, so one stall is one increment.
  std::unique_ptr<std::atomic<int64_t>[]> worker_busy_since_;
  std::vector<int64_t> stall_flagged_;

  std::vector<std::thread> workers_;
  std::thread reaper_;
};

}  // namespace kbrepair

#endif  // KBREPAIR_SERVICE_SESSION_SHARD_H_
