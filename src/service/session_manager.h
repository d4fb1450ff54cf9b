// SessionManager: the thread-safe registry and scheduler behind
// `kbrepaird`.
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
//  * `create`/`metrics`/`trace` are session-less and run as independent
//    tasks;
//  * a reaper thread evicts sessions idle longer than the TTL;
//  * Shutdown() stops intake, drains every queued command, joins the
//    workers and flushes all remaining transcripts to transcript_dir.
//
// Completions run on worker threads; they must not call back into the
// manager (the daemon's completion just writes one line to stdout).

#ifndef KBREPAIR_SERVICE_SESSION_MANAGER_H_
#define KBREPAIR_SERVICE_SESSION_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "service/base_registry.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/resource_governor.h"
#include "service/session.h"
#include "util/status.h"
#include "util/timer.h"

namespace kbrepair {

struct ServiceConfig {
  size_t num_workers = 4;
  // Cap on commands queued or executing across all sessions; beyond it
  // submissions fail fast with FailedPrecondition.
  size_t max_queue = 1024;
  // Sessions idle (no queued or executing command) longer than this are
  // evicted by the reaper. <= 0 disables eviction.
  double idle_ttl_seconds = 0.0;
  // When non-empty, transcripts are written here as <session-id>.json on
  // close, eviction and shutdown.
  std::string transcript_dir;
  // When non-empty, every accepted create/answer/close is write-ahead
  // logged to <wal_dir>/<session-id>.wal (fsync'd before execution).
  std::string wal_dir;
  // With wal_dir set: replay every WAL found there at startup and
  // re-register the sessions (the daemon's --recover-dir).
  bool recover = false;
  // Per-command deadline; <= 0 disables. Commands past it fail with
  // DeadlineExceeded instead of wedging a worker.
  int64_t deadline_ms = 0;
  // Compact a session's WAL into one snapshot record every N appends.
  size_t wal_compact_every = 64;
  // When non-empty, the process-wide span recorder is enabled with this
  // directory as its sink: every instrumented region records a span, the
  // `trace` command drains them to <trace_dir>/trace-NNNNN.jsonl, and
  // Shutdown() flushes whatever is still buffered. Empty = spans off
  // (phase accounting stays on either way).
  std::string trace_dir;
  // Shared-base registry. The sharded front-end installs one instance
  // here for every shard (bases are shared across shards). When null,
  // the manager creates its own — with bases.jsonl durability in
  // wal_dir, recovered before session recovery and with this manager's
  // metrics carrying the registry gauges.
  std::shared_ptr<BaseRegistry> base_registry;
  // Soft memory ceiling for --mem-budget; <= 0 = unlimited. Only
  // consulted when `governor` is null (a provided governor carries its
  // own budget).
  int64_t mem_budget_bytes = 0;
  // Shared memory governor. Like base_registry: the sharded front-end
  // installs one instance for every shard (the budget is process-wide);
  // when null the manager creates its own from mem_budget_bytes with
  // this manager's metrics carrying the gauges.
  std::shared_ptr<ResourceGovernor> governor;
};

class SessionManager {
 public:
  // Completion callbacks receive the handler outcome; the error/result
  // envelope is the wire layer's business (SubmitLine does it).
  using Completion = std::function<void(Status, JsonValue)>;

  explicit SessionManager(ServiceConfig config);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // Enqueues a command; `done` fires exactly once, on a worker thread
  // (or inline on rejection).
  void Submit(ServiceRequest request, Completion done);

  // Wire-level submit: parses `line`, runs it, and emits exactly one
  // JSON response line (envelope included) through `emit`.
  void SubmitLine(const std::string& line,
                  std::function<void(std::string)> emit);

  // Blocking convenience for tests and synchronous clients.
  StatusOr<JsonValue> Execute(ServiceRequest request);

  // Stops intake, drains all queued commands, joins threads, flushes
  // transcripts. Idempotent; also run by the destructor.
  void Shutdown();

  ServiceMetrics& metrics() { return metrics_; }
  size_t num_workers() const { return config_.num_workers; }
  const std::shared_ptr<BaseRegistry>& base_registry() const {
    return registry_;
  }
  const std::shared_ptr<ResourceGovernor>& governor() const {
    return governor_;
  }

  // True while this manager's WAL directory is in disk-degraded
  // read-only mode: a WAL append hit ENOSPC/EDQUOT/EIO and the reaper's
  // write probe has not succeeded since. While degraded, `create` and
  // `answer` are rejected with ResourceExhausted (status/snapshot/close
  // keep working — closing sessions is how disk space comes back).
  // Thread-safe; lock-free.
  bool WalDegraded() const;

  // Highest "s-N" session number this manager has seen (assigned,
  // recovered, or externally routed). The sharded front-end seeds its
  // global id counter past every shard's value after recovery.
  uint64_t LastSessionNumber();

  // Point-in-time queue/registry sizes (for the sharded front-end's
  // aggregate `metrics` response). Thread-safe.
  size_t CommandsInFlight();
  size_t SessionsRegistered();

  // Readiness-failure causes for the HTTP exporter's /readyz: empty
  // while the service is healthy. Degrading conditions: shutdown in
  // progress, a worker currently past the stall threshold, and a WAL
  // fsync failure within the last kReadinessHoldDownSeconds.
  // Thread-safe.
  std::vector<std::string> ReadinessCauses();
  static constexpr double kReadinessHoldDownSeconds = 30.0;

  // /statusz snapshot: sessions, queue depth, uptime, config. Safe to
  // call from any thread at any time (including after Shutdown()).
  JsonValue StatuszJson();

 private:
  struct Task {
    ServiceRequest request;
    Completion done;
    WallTimer timer;  // request latency, submission to completion
  };
  struct SessionEntry {
    std::unique_ptr<RepairSession> session;
    std::deque<Task> waiting;
    bool busy = false;  // a worker owns this session right now
    std::chrono::steady_clock::time_point last_activity;
    // Bytes currently charged to the memory governor for this session;
    // adjusted by delta after every command so the global estimate
    // tracks the session as it grows.
    int64_t charged_bytes = 0;
  };
  // An independent task, or the key of a session with queued commands.
  using ReadyItem = std::variant<Task, std::string>;

  void WorkerLoop(size_t worker_index);
  void ReaperLoop();
  void RunIndependent(Task task);
  void RunCreate(Task task);
  // Opens a session on create params — forked from the registered base
  // they name ("base"), else on a private KB — and counts the fork.
  // Shared by create (with the command deadline) and recovery.
  StatusOr<std::unique_ptr<RepairSession>> OpenSession(
      const std::string& id, const JsonValue& params, int64_t deadline_ms);
  void RunSessionCommand(const std::string& key);
  StatusOr<JsonValue> DispatchToSession(RepairSession* session,
                                        const ServiceRequest& request);
  JsonValue MetricsJson();
  // Handler for the `trace` command: drains the span recorder (to a
  // file when a sink directory is configured) and returns the spans.
  JsonValue TraceJson(const JsonValue& params);
  // Finishes one task: records latency/error metrics, fires `done`.
  void Complete(Task& task, const Status& status, JsonValue result);
  void TaskDone();  // decrements tasks_in_flight_, wakes Shutdown
  void WriteTranscriptFile(const std::string& session_id,
                           const std::string& dump);
  // Startup crash recovery: opens a session from every WAL in
  // config_.wal_dir, replays its answers (RepairSession::Replay) and
  // re-registers it. Unreplayable WALs are renamed aside
  // (<file>.corrupt) and counted as failed; the daemon keeps serving.
  void RecoverSessions();
  // Watchdog sweep (runs on the reaper cadence): flags workers that
  // have owned one command longer than the stall threshold.
  void CheckWorkerStalls(std::chrono::steady_clock::time_point now);
  // Re-estimates `entry`'s bytes and reports the delta to the governor
  // (call with mu_ held and the session not owned by another worker).
  void ChargeSessionLocked(SessionEntry& entry);
  // Returns the session's charge to the governor before the entry is
  // dropped (close, eviction, shutdown).
  void ReleaseChargeLocked(SessionEntry& entry);
  // Evicts idle sessions oldest-first until the estimate is back under
  // the governor's low watermark. Appends transcript flushes for the
  // caller to write outside the lock. Call with mu_ held.
  void EvictForPressureLocked(
      std::vector<std::pair<std::string, std::string>>* flushes);

  ServiceConfig config_;
  ServiceMetrics metrics_;
  // Destroyed after sessions_ is cleared by Shutdown(), so session
  // base handles always release into a live registry.
  std::shared_ptr<BaseRegistry> registry_;
  std::shared_ptr<ResourceGovernor> governor_;
  const int64_t start_ns_ = MonotonicNowNs();  // for /statusz uptime
  // Monotonic ns of the last successful WAL-dir write probe. Degraded
  // mode is level-derived: metrics_.last_wal_disk_full_ns (stamped by
  // the failing append) newer than this means the disk is still bad.
  std::atomic<int64_t> disk_recovered_ns_{0};

  std::mutex mu_;
  std::condition_variable work_cv_;    // workers wait for ready items
  std::condition_variable drain_cv_;   // Shutdown waits for in-flight 0
  std::condition_variable reaper_cv_;  // reaper interval / exit
  std::deque<ReadyItem> ready_;
  std::unordered_map<std::string, SessionEntry> sessions_;
  size_t tasks_in_flight_ = 0;  // queued + executing
  uint64_t next_session_ = 0;
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

#endif  // KBREPAIR_SERVICE_SESSION_MANAGER_H_
