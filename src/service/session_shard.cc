#include "service/session_shard.h"

#include <stdio.h>

#include <algorithm>
#include <utility>

#include "util/failpoint.h"
#include "util/fs.h"
#include "util/log.h"
#include "util/logging.h"
#include "util/trace.h"

namespace kbrepair {

namespace {

constexpr char kComponent[] = "session_manager";

// A worker owning one command for longer than this is considered
// stalled. With deadlines enabled a handler should finish within one
// deadline; 4x leaves room for the cancel-poll granularity.
int64_t StallThresholdMs(int64_t deadline_ms) {
  return deadline_ms > 0 ? std::max<int64_t>(4 * deadline_ms, 200) : 10000;
}

// The phase time (trace::Phase) the calling worker spends between
// construction and ObserveInto, folded into one strategy's labeled
// phase histograms; zero phases are skipped so untouched histograms stay
// empty. A session's commands run serially on one worker, so the
// thread-local accumulator's delta is exactly the measured work.
class PhaseMeter {
 public:
  PhaseMeter() : start_(Read()) {}

  void ObserveInto(LabeledMetrics& labeled) const {
    const trace::PhaseTotals spent = Read().Since(start_);
    for (size_t p = 0; p < trace::kNumPhases; ++p) {
      if (spent.seconds[p] > 0.0) labeled.phases[p].Observe(spent.seconds[p]);
    }
  }

 private:
  static trace::PhaseTotals Read() { return trace::ThreadPhaseTotals(); }

  trace::PhaseTotals start_;
};

// `trace`: drains the span recorder (to a file when a sink directory is
// configured) and returns the spans.
StatusOr<JsonValue> RunTrace(BaseRegistry&, const JsonValue& params) {
  trace::Recorder& recorder = trace::Recorder::Instance();
  JsonValue out = JsonValue::Object();
  const bool enabled = trace::Recorder::enabled();
  out.Set("enabled", JsonValue::Bool(enabled));
  if (!enabled) {
    out.Set("spans", JsonValue::Array());
    return out;
  }
  std::vector<trace::SpanRecord> spans;
  if (recorder.has_sink()) {
    StatusOr<std::string> file = recorder.DrainToFile(&spans);
    if (file.ok()) {
      out.Set("file", JsonValue::String(*file));
    } else {
      // The spans were still drained; surface the sink failure.
      out.Set("file_error", JsonValue::String(file.status().message()));
    }
  } else {
    spans = recorder.Drain();
  }
  // Responses are one wire line; cap the inline span list (the full
  // drain is in the file when a sink is configured).
  const int64_t limit = params.Get("limit").AsInt(4096);
  JsonValue array = JsonValue::Array();
  int64_t emitted = 0;
  for (const trace::SpanRecord& span : spans) {
    if (emitted >= limit) break;
    array.Append(trace::SpanToJson(span));
    ++emitted;
  }
  out.Set("spans", std::move(array));
  out.Set("total_spans",
          JsonValue::Number(static_cast<int64_t>(spans.size())));
  out.Set("dropped",
          JsonValue::Number(static_cast<int64_t>(recorder.dropped())));
  return out;
}

StatusOr<JsonValue> RunRegisterBase(BaseRegistry& registry,
                                    const JsonValue& params) {
  return registry.Register(params);
}

StatusOr<JsonValue> RunListBases(BaseRegistry& registry, const JsonValue&) {
  return registry.ListJson();
}

// `failpoint`: runtime fault-injection control for chaos harnesses
// driving a live daemon — arm specs, disarm one point, or reset
// everything.
StatusOr<JsonValue> RunFailpoint(BaseRegistry&, const JsonValue& params) {
  if (params.Get("reset").AsBool(false)) failpoint::Reset();
  if (params.Get("disarm").is_string()) {
    failpoint::Disarm(params.Get("disarm").AsString());
  }
  if (params.Get("spec").is_string()) {
    KBREPAIR_RETURN_IF_ERROR(
        failpoint::Configure(params.Get("spec").AsString()));
  }
  JsonValue out = JsonValue::Object();
  JsonValue armed = JsonValue::Array();
  for (const std::string& name : failpoint::ArmedNames()) {
    armed.Append(JsonValue::String(name));
  }
  out.Set("armed", std::move(armed));
  return out;
}

using Home = CommandSpec::Home;

constexpr CommandSpec kCommands[] = {
    {"create", "rpc.create", false, Home::kOwningShard, nullptr},
    {"metrics", "rpc.metrics", false, Home::kFrontEnd, nullptr},
    {"trace", "rpc.trace", false, Home::kShardZero, RunTrace},
    {"register-base", "rpc.register-base", false, Home::kShardZero,
     RunRegisterBase},
    {"list-bases", "rpc.list-bases", false, Home::kShardZero, RunListBases},
    {"failpoint", "rpc.failpoint", false, Home::kShardZero, RunFailpoint},
    {"ask", "rpc.ask", true, Home::kOwningShard, nullptr},
    {"answer", "rpc.answer", true, Home::kOwningShard, nullptr},
    {"status", "rpc.status", true, Home::kOwningShard, nullptr},
    {"snapshot", "rpc.snapshot", true, Home::kOwningShard, nullptr},
    {"close", "rpc.close", true, Home::kOwningShard, nullptr},
};
constexpr CommandSpec kUnknownCommand = {"", "rpc.other", true,
                                         Home::kOwningShard, nullptr};

}  // namespace

const CommandSpec& LookupCommand(const std::string& name) {
  for (const CommandSpec& command : kCommands) {
    if (name == command.name) return command;
  }
  return kUnknownCommand;
}

SessionShard::SessionShard(ServiceConfig config, BaseRegistry& registry,
                           ResourceGovernor& governor)
    : config_(std::move(config)), registry_(&registry), governor_(&governor) {
  worker_busy_since_.reset(new std::atomic<int64_t>[config_.num_workers]);
  for (size_t i = 0; i < config_.num_workers; ++i) {
    worker_busy_since_[i].store(0, std::memory_order_relaxed);
  }
  stall_flagged_.assign(config_.num_workers, 0);
  workers_.reserve(config_.num_workers);
  for (size_t i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  reaper_ = std::thread([this] { ReaperLoop(); });
  // Recovery runs on the constructing thread, before the caller can
  // submit anything; workers and reaper are already live but see each
  // session only once it is registered under mu_.
  if (config_.recover && !config_.wal_dir.empty()) RecoverSessions();
}

SessionShard::~SessionShard() { Shutdown(); }

void SessionShard::Submit(ServiceRequest request, const CommandSpec& command,
                          SessionManager::Completion done) {
  metrics_.requests_total.fetch_add(1, std::memory_order_relaxed);
  Task task;
  task.request = std::move(request);
  task.command = &command;
  task.done = std::move(done);

  Status rejection = Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Shutdown and overload rejections are Unavailable: the command was
    // never executed, so clients may retry it (with backoff) verbatim.
    if (stopping_) {
      metrics_.rejected_commands.fetch_add(1, std::memory_order_relaxed);
      rejection = Status::Unavailable("service is shutting down");
    } else if (tasks_in_flight_ >= config_.max_queue) {
      metrics_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
      metrics_.rejected_commands.fetch_add(1, std::memory_order_relaxed);
      rejection = Status::Unavailable(
          "service overloaded (" + std::to_string(tasks_in_flight_) +
          " commands in flight, max " + std::to_string(config_.max_queue) +
          ")");
    } else if ((task.request.command == "create" ||
                task.request.command == "answer") &&
               WalDegraded()) {
      // Disk-degraded read-only mode: the commands that must append to
      // the WAL are shed at admission. status/snapshot/close still run —
      // closing sessions (WAL unlink) is how disk space comes back.
      metrics_.rejected_degraded.fetch_add(1, std::memory_order_relaxed);
      metrics_.rejected_commands.fetch_add(1, std::memory_order_relaxed);
      metrics_.wal_degraded.store(1, std::memory_order_relaxed);
      rejection = Status::ResourceExhausted(
          "WAL disk degraded (read-only): '" + task.request.command +
          "' needs a durable log append; retry with backoff once the log "
          "directory is writable again");
    } else if (task.request.command == "create" &&
               governor_->UnderPressure()) {
      metrics_.rejected_pressure.fetch_add(1, std::memory_order_relaxed);
      metrics_.rejected_commands.fetch_add(1, std::memory_order_relaxed);
      rejection = Status::ResourceExhausted(governor_->ShedMessage());
      // Start evicting right away instead of on the next reaper tick.
      reaper_kick_ = true;
      reaper_cv_.notify_all();
    } else if (!command.addresses_session) {
      ++tasks_in_flight_;
      ready_.push_back(std::move(task));
      work_cv_.notify_one();
      return;
    } else if (task.request.session_id.empty()) {
      rejection = Status::InvalidArgument(
          "command '" + task.request.command + "' needs a 'session' id");
    } else {
      auto it = sessions_.find(task.request.session_id);
      if (it == sessions_.end()) {
        rejection = Status::NotFound("unknown session '" +
                                     task.request.session_id + "'");
      } else {
        ++tasks_in_flight_;
        SessionEntry& entry = it->second;
        entry.waiting.push_back(std::move(task));
        // A session key sits in ready_ at most once: it is enqueued only
        // on the idle -> busy transition, and the owning worker re-enqueues
        // it (or clears `busy`) when it finishes a command.
        if (!entry.busy) {
          entry.busy = true;
          ready_.push_back(it->first);
        }
        work_cv_.notify_one();
        return;
      }
    }
  }
  Complete(task, rejection, JsonValue::Null());
}

size_t SessionShard::CommandsInFlight() {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_in_flight_;
}

size_t SessionShard::SessionsRegistered() {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void SessionShard::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shut_down_) return;
    stopping_ = true;
    drain_cv_.wait(lock, [this] { return tasks_in_flight_ == 0; });
    exiting_ = true;
    shut_down_ = true;
  }
  work_cv_.notify_all();
  reaper_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  if (reaper_.joinable()) reaper_.join();
  // Workers and reaper are gone, but the HTTP exporter thread may still
  // call StatuszJson()/ReadinessCauses(); keep touching sessions_ under
  // the lock, and flush the transcripts of sessions that were never
  // closed outside it.
  std::vector<SessionEntry> retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      it = RetireLocked(it, Retirement::kShutdown, &retired);
    }
  }
  FlushRetired(retired);
  logging::Info(kComponent, "shutdown complete");
}

void SessionShard::WorkerLoop(size_t worker_index) {
  std::atomic<int64_t>& busy_since = worker_busy_since_[worker_index];
  for (;;) {
    ReadyItem item{std::string()};
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return exiting_ || !ready_.empty(); });
      if (ready_.empty()) return;  // exiting_ after drain
      item = std::move(ready_.front());
      ready_.pop_front();
    }
    busy_since.store(MonotonicNowNs(), std::memory_order_relaxed);
    if (std::holds_alternative<Task>(item)) {
      RunIndependent(std::move(std::get<Task>(item)));
    } else {
      RunSessionCommand(std::get<std::string>(item));
    }
    busy_since.store(0, std::memory_order_relaxed);
  }
}

void SessionShard::RunIndependent(Task task) {
  metrics_.queue_wait.Observe(task.timer.ElapsedSeconds());
  trace::ScopedSpan span(task.command->span);
  if (task.command->run == nullptr) {  // the one owning-shard task: create
    RunCreate(std::move(task));
    return;
  }
  Complete(task, task.command->run(*registry_, task.request.params));
  TaskDone();
}

void SessionShard::RunCreate(Task task) {
  // The front end minted the id (it is what routed the create here).
  const std::string id = task.request.assigned_session_id;
  // Correlate every log line below (WAL failures, engine rebuilds in
  // the census) with the session being created.
  logging::ScopedSessionId log_scope(id);
  // Log the create before building the session: a crash between the two
  // recovers an empty session instead of losing an acknowledged one. If
  // the log cannot be made durable the command is rejected outright.
  SessionEntry entry;
  Status status =
      AppendWalRecord(id, entry, WalRecord::kCreate,
                      SessionWal::CreateRecord(task.request.params));
  if (status.ok()) {
    const PhaseMeter phases;
    StatusOr<std::unique_ptr<RepairSession>> created =
        OpenSession(id, task.request.params, config_.deadline_ms);
    if (created.ok()) {
      entry.session = std::move(created).value();
      // The initial census (Begin) ran on this thread.
      phases.ObserveInto(Labeled(*entry.session));
    } else {
      metrics_.sessions_failed.fetch_add(1, std::memory_order_relaxed);
      status = created.status();
    }
  }
  if (!status.ok()) {
    // Never-registered sessions must not resurrect on recovery.
    RemoveWal(entry);
    Complete(task, status, JsonValue::Null());
    TaskDone();
    return;
  }
  // Compute the response before registering: once the entry is visible,
  // another worker could legally run a command against it.
  JsonValue info = entry.session->StatusInfo();
  RegisterSession(id, std::move(entry));
  Complete(task, Status::Ok(), std::move(info));
  TaskDone();
}

void SessionShard::RegisterSession(const std::string& id, SessionEntry entry) {
  Labeled(*entry.session).sessions.fetch_add(1, std::memory_order_relaxed);
  entry.last_activity = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  ChargeSessionLocked(sessions_.emplace(id, std::move(entry)).first->second);
  // Counted before it is active, and published with release: a
  // snapshot that sees the session active also sees it opened
  // (ServiceMetrics::MergeFrom).
  metrics_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  metrics_.sessions_active.fetch_add(1, std::memory_order_release);
}

void SessionShard::RunSessionCommand(const std::string& key) {
  Task task;
  SessionEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(key);
    KBREPAIR_DCHECK(it != sessions_.end()) << "scheduled session vanished";
    KBREPAIR_DCHECK(!it->second.waiting.empty());
    task = std::move(it->second.waiting.front());
    it->second.waiting.pop_front();
    entry = &it->second;
  }
  // Queue wait includes time parked behind earlier commands of the same
  // session — that is real scheduling delay, not execution time.
  metrics_.queue_wait.Observe(task.timer.ElapsedSeconds());
  // Every log line the handler emits (WAL append, engine rebuild,
  // deadline) carries this session id without explicit plumbing.
  logging::ScopedSessionId log_scope(key);

  // The busy flag keeps every other worker (and the reaper) away from
  // this session, so the handler runs without holding mu_.
  StatusOr<JsonValue> outcome = [&]() -> StatusOr<JsonValue> {
    trace::ScopedSpan span(task.command->span);
    if (span.recording()) span.Annotate("session=" + key);
    if (failpoint::ShouldFail("worker.stall")) {
      // Simulate a wedged handler: hold the worker past the watchdog
      // threshold, then fail the command the way an expired deadline
      // would (the command had no effect; retrying is safe).
      const int64_t stall_ms = std::min<int64_t>(
          std::max<int64_t>(2 * StallThresholdMs(config_.deadline_ms), 1200),
          3000);
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      return Status::DeadlineExceeded("worker stalled (failpoint)");
    }
    return DispatchToSession(*entry, task.request);
  }();
  const bool closing = task.request.command == "close" && outcome.ok();

  std::vector<SessionEntry> retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(key);
    KBREPAIR_DCHECK(it != sessions_.end());
    it->second.last_activity = std::chrono::steady_clock::now();
    if (closing) {
      RetireLocked(it, Retirement::kClosed, &retired);
    } else {
      if (!it->second.waiting.empty()) {
        ready_.push_back(key);
        work_cv_.notify_one();
      } else {
        it->second.busy = false;
      }
      ChargeSessionLocked(it->second);
    }
  }

  FlushRetired(retired);
  Complete(task, std::move(outcome));
  TaskDone();
  // Commands queued behind the close complete, not vanish.
  for (SessionEntry& closed : retired) {
    for (Task& orphan : closed.waiting) {
      Complete(orphan, Status::NotFound("session '" + key + "' was closed"),
               JsonValue::Null());
      TaskDone();
    }
  }
}

StatusOr<JsonValue> SessionShard::DispatchToSession(
    SessionEntry& entry, const ServiceRequest& request) {
  RepairSession& session = *entry.session;
  const std::string& command = request.command;
  // The session runs this between validation and execution.
  const auto log = [&](WalRecord kind) -> RepairSession::LogBeforeExecute {
    if (entry.wal == nullptr) return nullptr;
    return [this, &entry, kind](const JsonValue& record) {
      return AppendWalRecord(entry.session->id(), entry, kind, record);
    };
  };
  const PhaseMeter phases;
  session.ArmDeadline(config_.deadline_ms);
  StatusOr<JsonValue> outcome = [&]() -> StatusOr<JsonValue> {
    if (command == "ask") return session.Ask();
    if (command == "answer") {
      return session.Answer(request.params, log(WalRecord::kAnswer));
    }
    if (command == "status") return session.StatusInfo();
    if (command == "snapshot") return session.Snapshot();
    if (command == "close") {
      return session.Close(request.params, log(WalRecord::kClose));
    }
    return Status::InvalidArgument("unknown command '" + command + "'");
  }();
  session.DisarmDeadline();
  phases.ObserveInto(Labeled(session));
  MeterTotals(entry);
  if (!outcome.ok() || entry.wal == nullptr) return outcome;
  // The session ended cleanly; there is nothing left to recover.
  if (command == "close") RemoveWal(entry);
  return outcome;
}

Status SessionShard::AppendWalRecord(const std::string& id,
                                     SessionEntry& entry, WalRecord kind,
                                     const JsonValue& record) {
  Status logged = Status::Ok();
  if (kind == WalRecord::kCreate && !config_.wal_dir.empty()) {
    StatusOr<std::unique_ptr<SessionWal>> opened =
        SessionWal::Open(config_.wal_dir, id);
    if (opened.ok()) {
      entry.wal = std::move(opened).value();
    } else {
      logged = opened.status();
    }
  }
  bool fsync_failed = false;
  bool disk_full = false;
  if (logged.ok()) {
    // A degraded shard skips the close record outright: the append would
    // fail anyway, and the WAL unlink after the close frees space.
    if (entry.wal == nullptr ||
        (kind == WalRecord::kClose && WalDegraded())) {
      return Status::Ok();
    }
    logged = entry.wal->Append(record, &fsync_failed, &disk_full);
    if (logged.ok()) {
      metrics_.wal_appends.fetch_add(1, std::memory_order_relaxed);
      return logged;
    }
  }
  if (fsync_failed) {
    metrics_.wal_fsync_failures.fetch_add(1, std::memory_order_relaxed);
    metrics_.last_wal_fsync_failure_ns.store(MonotonicNowNs(),
                                             std::memory_order_relaxed);
  }
  if (disk_full) {
    // Flip the shard into disk-degraded mode: further create/answer
    // traffic is shed at admission until the reaper's write probe sees
    // the directory writable again.
    metrics_.wal_disk_full_failures.fetch_add(1, std::memory_order_relaxed);
    metrics_.last_wal_disk_full_ns.store(MonotonicNowNs(),
                                         std::memory_order_relaxed);
    metrics_.wal_degraded.store(1, std::memory_order_relaxed);
    if (kind == WalRecord::kClose) {
      // Rejecting would wedge the client: closing sessions is exactly how
      // disk space comes back. A crash before the WAL is removed can
      // resurrect a session whose close was never acked; the client's
      // close retry covers that.
      logging::Warn(kComponent,
                    "close record hit a full disk; closing without it")
          .With("session", id)
          .With("error", logged.message());
      return Status::Ok();
    }
    // A resource condition, not transient flakiness: hand the client
    // the code that tells it to back off harder.
    logged = Status::ResourceExhausted("WAL disk full: " + logged.message());
  }
  metrics_.rejected_commands.fetch_add(1, std::memory_order_relaxed);
  static constexpr const char* kCommandName[] = {"create", "answer", "close"};
  logging::Warn(kComponent, std::string(kCommandName[static_cast<int>(kind)]) +
                                " rejected: WAL append failed")
      .With("session", id)
      .With("error", logged.message());
  return logged;
}

void SessionShard::RemoveWal(SessionEntry& entry) {
  if (entry.wal == nullptr) return;
  const Status removed = entry.wal->Remove();
  if (!removed.ok()) {
    logging::Warn(kComponent, "WAL removal failed")
        .With("path", entry.wal->path())
        .With("error", removed.message());
  }
  entry.wal.reset();
}

void SessionShard::MeterTotals(SessionEntry& entry) {
  const RepairSession& session = *entry.session;
  const RepairSession::Totals now = session.totals();
  LabeledMetrics& labeled = Labeled(session);
  const size_t served =
      now.questions_served - entry.metered.questions_served;
  if (served > 0) {
    metrics_.questions_served.fetch_add(served, std::memory_order_relaxed);
    labeled.questions.fetch_add(served, std::memory_order_relaxed);
  }
  // One command applies at most one answer.
  if (now.answers_applied > entry.metered.answers_applied) {
    const double delay = session.last_turn_delay_seconds();
    metrics_.answers_applied.fetch_add(1, std::memory_order_relaxed);
    metrics_.turn_delay.Observe(delay);
    labeled.answers.fetch_add(1, std::memory_order_relaxed);
    labeled.turn_delay.Observe(delay);
  }
  const size_t rebuilds = now.engine_rebuilds - entry.metered.engine_rebuilds;
  if (rebuilds > 0) {
    metrics_.engine_rebuilds.fetch_add(rebuilds, std::memory_order_relaxed);
    logging::Warn("session", "conflict engine dropped for a cold rebuild")
        .With("session", session.id())
        .With("rebuilds", rebuilds);
  }
  entry.metered = now;
}

LabeledMetrics& SessionShard::Labeled(const RepairSession& session) {
  return metrics_.ForLabels(static_cast<size_t>(session.strategy()));
}

std::vector<std::string> SessionShard::ReadinessCauses() {
  std::vector<std::string> causes;
  // A worker currently past the stall threshold means new commands can
  // queue behind a wedged one — stop sending traffic here until it
  // clears.
  const int64_t threshold_ns =
      StallThresholdMs(config_.deadline_ms) * 1000000;
  const int64_t now_ns = MonotonicNowNs();
  for (size_t i = 0; i < config_.num_workers; ++i) {
    const int64_t since =
        worker_busy_since_[i].load(std::memory_order_relaxed);
    if (since != 0 && now_ns - since > threshold_ns) {
      causes.push_back("worker-stalled: worker " + std::to_string(i) +
                       " busy " + std::to_string((now_ns - since) / 1000000) +
                       " ms");
      break;  // one cause line is enough
    }
  }
  // A recent fsync failure keeps the instance out of rotation for a
  // hold-down window: a disk that failed one fsync is likely to fail
  // the next.
  const int64_t hold_ns =
      static_cast<int64_t>(kReadinessHoldDownSeconds * 1e9);
  const int64_t last_fsync =
      metrics_.last_wal_fsync_failure_ns.load(std::memory_order_relaxed);
  if (last_fsync != 0 && now_ns - last_fsync < hold_ns) {
    causes.push_back("recent-wal-fsync-failure");
  }
  // Level-based (no hold-down): clears the instant the reaper's write
  // probe succeeds.
  if (WalDegraded()) causes.push_back("wal-disk-degraded");
  return causes;
}

bool SessionShard::WalDegraded() const {
  const int64_t last_full =
      metrics_.last_wal_disk_full_ns.load(std::memory_order_relaxed);
  return last_full != 0 &&
         last_full > disk_recovered_ns_.load(std::memory_order_relaxed);
}

void SessionShard::ChargeSessionLocked(SessionEntry& entry) {
  const int64_t now = entry.session->EstimateMemoryBytes();
  governor_->AdjustSessionBytes(now - entry.charged_bytes);
  entry.charged_bytes = now;
}

SessionShard::SessionMap::iterator SessionShard::RetireLocked(
    SessionMap::iterator it, Retirement why,
    std::vector<SessionEntry>* retired) {
  SessionEntry& entry = it->second;
  // The governor is the front end's and outlives this shard; hand the
  // bytes back so the other shards see an accurate estimate.
  governor_->AdjustSessionBytes(-entry.charged_bytes);
  // Gone from `active` before the retirement is counted, and the count
  // is published with release: a snapshot that sees the retirement also
  // sees the session gone (ServiceMetrics::MergeFrom).
  if (why != Retirement::kShutdown) {
    metrics_.sessions_active.fetch_sub(1, std::memory_order_relaxed);
  }
  switch (why) {
    case Retirement::kClosed:
      metrics_.sessions_completed.fetch_add(1, std::memory_order_release);
      break;
    case Retirement::kIdle:
      metrics_.sessions_evicted.fetch_add(1, std::memory_order_release);
      logging::Info(kComponent, "evicted idle session")
          .With("session", it->first)
          .With("idle_s", std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              entry.last_activity)
                              .count());
      break;
    case Retirement::kPressure:
      metrics_.pressure_evictions.fetch_add(1, std::memory_order_relaxed);
      metrics_.sessions_evicted.fetch_add(1, std::memory_order_release);
      logging::Info(kComponent, "evicted session under memory pressure")
          .With("session", it->first)
          .With("freed_bytes", entry.charged_bytes);
      break;
    case Retirement::kShutdown:
      break;
  }
  retired->push_back(std::move(entry));
  return sessions_.erase(it);
}

void SessionShard::FlushRetired(std::vector<SessionEntry>& retired) {
  for (SessionEntry& entry : retired) {
    const std::string& id = entry.session->id();
    if (!config_.transcript_dir.empty()) {
      const std::string path = config_.transcript_dir + "/" + id + ".json";
      // Atomic (tmp + fsync + rename): readers never see a torn
      // transcript, and failures are visible instead of silently
      // dropping the file.
      const Status status = AtomicWriteFile(
          path, entry.session->TranscriptJson().Dump() + "\n");
      if (!status.ok()) {
        metrics_.transcript_write_failures.fetch_add(
            1, std::memory_order_relaxed);
        logging::Error(kComponent, "transcript flush failed")
            .With("session", id)
            .With("path", path)
            .With("error", status.message());
      }
    }
    entry.session.reset();
    entry.wal.reset();
  }
}

void SessionShard::EvictForPressureLocked(
    std::vector<SessionEntry>* retired) {
  if (governor_->BytesOverEvictTarget() <= 0) return;
  // Oldest first: the session idle the longest is the least likely to
  // come back, and recovery (its WAL survives the eviction) makes the
  // eviction loss-free for clients that do.
  std::vector<std::pair<std::chrono::steady_clock::time_point, std::string>>
      idle;
  for (const auto& [id, entry] : sessions_) {
    if (!entry.busy && entry.waiting.empty()) {
      idle.emplace_back(entry.last_activity, id);
    }
  }
  std::sort(idle.begin(), idle.end());
  for (const auto& [when, id] : idle) {
    if (governor_->BytesOverEvictTarget() <= 0) break;
    (void)when;
    auto it = sessions_.find(id);
    if (it != sessions_.end()) RetireLocked(it, Retirement::kPressure, retired);
  }
}

JsonValue SessionShard::StatuszJson() {
  JsonValue out = JsonValue::Object();
  out.Set("workers",
          JsonValue::Number(static_cast<int64_t>(config_.num_workers)));
  out.Set("wal_degraded", JsonValue::Bool(WalDegraded()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.Set("commands_in_flight",
            JsonValue::Number(static_cast<int64_t>(tasks_in_flight_)));
    out.Set("queue_depth",
            JsonValue::Number(static_cast<int64_t>(ready_.size())));
    JsonValue ids = JsonValue::Array();
    for (const auto& [id, entry] : sessions_) {
      (void)entry;
      ids.Append(JsonValue::String(id));
    }
    out.Set("sessions", std::move(ids));
  }
  out.Set("sessions_active",
          JsonValue::Number(
              metrics_.sessions_active.load(std::memory_order_relaxed)));
  JsonValue readiness = JsonValue::Array();
  for (const std::string& cause : ReadinessCauses()) {
    readiness.Append(JsonValue::String(cause));
  }
  out.Set("readiness_causes", std::move(readiness));
  return out;
}

void SessionShard::Complete(Task& task, const Status& status,
                            JsonValue result) {
  metrics_.request_latency.Observe(task.timer.ElapsedSeconds());
  if (!status.ok()) {
    metrics_.errors_total.fetch_add(1, std::memory_order_relaxed);
    if (status.code() == StatusCode::kDeadlineExceeded) {
      metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      logging::Warn(kComponent, "command deadline exceeded")
          .With("command", task.request.command)
          .With("elapsed_s", task.timer.ElapsedSeconds());
    }
  }
  if (task.done) task.done(status, std::move(result));
}

void SessionShard::Complete(Task& task, StatusOr<JsonValue> outcome) {
  if (outcome.ok()) {
    Complete(task, Status::Ok(), std::move(outcome).value());
  } else {
    Complete(task, outcome.status(), JsonValue::Null());
  }
}

void SessionShard::TaskDone() {
  std::lock_guard<std::mutex> lock(mu_);
  KBREPAIR_DCHECK(tasks_in_flight_ > 0);
  --tasks_in_flight_;
  if (tasks_in_flight_ == 0) drain_cv_.notify_all();
}

void SessionShard::ReaperLoop() {
  for (;;) {
    std::vector<SessionEntry> retired;
    bool probe_disk = false;
    bool pressure = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      auto interval = std::chrono::milliseconds(
          config_.idle_ttl_seconds > 0
              ? std::max<int64_t>(
                    10, static_cast<int64_t>(config_.idle_ttl_seconds * 250))
              : 500);
      // React fast while unhealthy: disk-recovery probes and pressure
      // eviction should land within tens of milliseconds, not half a
      // second — clients are being shed the whole time.
      if (WalDegraded() || governor_->BytesOverEvictTarget() > 0) {
        interval = std::min<std::chrono::milliseconds>(
            interval, std::chrono::milliseconds(50));
      }
      reaper_cv_.wait_for(lock, interval,
                          [this] { return exiting_ || reaper_kick_; });
      reaper_kick_ = false;
      if (exiting_) return;
      CheckWorkerStalls();
      metrics_.wal_degraded.store(WalDegraded() ? 1 : 0,
                                  std::memory_order_relaxed);
      probe_disk = WalDegraded() && !config_.wal_dir.empty();
      if (config_.idle_ttl_seconds > 0) {
        const auto now = std::chrono::steady_clock::now();
        for (auto it = sessions_.begin(); it != sessions_.end();) {
          const SessionEntry& entry = it->second;
          const double idle =
              std::chrono::duration<double>(now - entry.last_activity)
                  .count();
          it = !entry.busy && entry.waiting.empty() &&
                       idle > config_.idle_ttl_seconds
                   ? RetireLocked(it, Retirement::kIdle, &retired)
                   : std::next(it);
        }
      }
      EvictForPressureLocked(&retired);
      pressure = governor_->UnderPressure();
    }
    FlushRetired(retired);
    if (probe_disk) {
      // File I/O outside the lock. A successful probe timestamps past
      // every failure seen so far, so WalDegraded() flips healthy; a
      // failure that lands after the probe re-degrades, as it should.
      const Status probed = ProbeWalDirWritable(config_.wal_dir);
      if (probed.ok()) {
        disk_recovered_ns_.store(MonotonicNowNs(), std::memory_order_relaxed);
        metrics_.wal_degraded.store(0, std::memory_order_relaxed);
        logging::Info(kComponent,
                      "WAL directory writable again; leaving disk-degraded "
                      "mode");
      }
    }
    // Orphaned shared bases age out on the same cadence. Refcounts keep
    // any base with live sessions (on any shard) safe; the sweep is
    // mutex-serialized, so shards sharing one registry may all drive it.
    // Under memory pressure every orphaned base goes immediately — they
    // are pure cache and re-registerable.
    registry_->SweepExpired(pressure ? 1e-9 : config_.idle_ttl_seconds);
  }
}

StatusOr<std::unique_ptr<RepairSession>> SessionShard::OpenSession(
    const std::string& id, const JsonValue& params, int64_t deadline_ms) {
  // A session naming a registered base forks the shared snapshot in
  // O(delta); everything else builds a private KB.
  const std::string base_name = params.Get("base").AsString();
  BaseRegistry::Handle base;
  if (!base_name.empty()) {
    KBREPAIR_ASSIGN_OR_RETURN(base, registry_->Acquire(base_name));
  }
  const bool forked = static_cast<bool>(base);
  WallTimer fork_timer;
  KBREPAIR_ASSIGN_OR_RETURN(
      std::unique_ptr<RepairSession> session,
      RepairSession::Open(id, params, std::move(base), deadline_ms));
  if (forked) {
    metrics_.base_forks.fetch_add(1, std::memory_order_relaxed);
    metrics_.base_fork_latency.Observe(fork_timer.ElapsedSeconds());
  }
  return session;
}

void SessionShard::RecoverSessions() {
  for (const std::string& id : ListWalSessionIds(config_.wal_dir)) {
    const std::string path = config_.wal_dir + "/" + id + ".wal";
    StatusOr<WalRecovery> read = ReadWalFile(path, id);
    Status failure = read.status();
    std::unique_ptr<RepairSession> session;
    if (read.ok()) {
      if (read->closed) {
        // The close was logged before it ran, so the session is done as
        // far as any acknowledged command goes; drop its log.
        StatusOr<std::unique_ptr<SessionWal>> wal =
            SessionWal::Open(config_.wal_dir, id);
        if (wal.ok()) (void)(*wal)->Remove();
        continue;
      }
      if (read->dropped_torn_tail) {
        logging::Warn(kComponent,
                      "WAL: dropped torn tail record (crash mid-append)")
            .With("session", id)
            .With("path", path)
            .With("record", static_cast<uint64_t>(read->torn_record_index))
            .With("offset", read->torn_byte_offset);
      }
      // Recovery is "open, then replay": a create record carrying "base"
      // re-forks from the registry (recovered before sessions — see the
      // constructor), and the replayed dialogue is identical either way.
      StatusOr<std::unique_ptr<RepairSession>> opened =
          OpenSession(id, read->create_params, /*deadline_ms=*/0);
      failure = opened.ok() ? (*opened)->Replay(*read) : opened.status();
      if (failure.ok()) session = std::move(opened).value();
    }
    if (session == nullptr) {
      // Keep the daemon up: set the broken log aside for inspection and
      // carry on recovering the rest.
      logging::Error(kComponent, "could not recover session; quarantining WAL")
          .With("session", id)
          .With("error", failure.message())
          .With("quarantine", path + ".corrupt");
      if (::rename(path.c_str(), (path + ".corrupt").c_str()) != 0) {
        logging::Error(kComponent, "quarantine rename failed")
            .With("session", id)
            .With("path", path);
      }
      metrics_.sessions_failed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    SessionEntry entry;
    entry.session = std::move(session);
    StatusOr<std::unique_ptr<SessionWal>> wal = SessionWal::Open(
        config_.wal_dir, id,
        read->dropped_torn_tail ? static_cast<off_t>(read->torn_byte_offset)
                                : -1);
    if (wal.ok()) {
      entry.wal = std::move(wal).value();
    } else {
      logging::Warn(kComponent,
                    "session recovered but its WAL could not be reopened")
          .With("session", id)
          .With("error", wal.status().message());
    }
    RegisterSession(id, std::move(entry));
    metrics_.sessions_recovered.fetch_add(1, std::memory_order_relaxed);
    logging::Info(kComponent, "recovered session")
        .With("session", id)
        .With("answers_replayed", read->entries.size());
  }
}

void SessionShard::CheckWorkerStalls() {
  const int64_t threshold_ns =
      StallThresholdMs(config_.deadline_ms) * 1000000;
  const int64_t now_ns = MonotonicNowNs();
  for (size_t i = 0; i < config_.num_workers; ++i) {
    const int64_t since =
        worker_busy_since_[i].load(std::memory_order_relaxed);
    if (since != 0 && now_ns - since > threshold_ns &&
        stall_flagged_[i] != since) {
      stall_flagged_[i] = since;  // one increment per stuck command
      metrics_.worker_stalls.fetch_add(1, std::memory_order_relaxed);
      logging::Warn(kComponent, "worker has owned one command past the "
                                "stall threshold")
          .With("worker", i)
          .With("busy_ms", (now_ns - since) / 1000000)
          .With("threshold_ms", threshold_ns / 1000000);
    }
  }
}

}  // namespace kbrepair
