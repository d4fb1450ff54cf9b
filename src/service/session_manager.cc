#include "service/session_manager.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "service/session_shard.h"
#include "service/wal.h"
#include "util/log.h"
#include "util/trace.h"

namespace kbrepair {

namespace {

constexpr char kComponent[] = "shard";

}  // namespace

size_t SessionManager::ShardForSession(const std::string& session_id,
                                       size_t num_shards) {
  if (num_shards <= 1) return 0;
  // FNV-1a 64: stable across restarts and standard libraries, which
  // std::hash is not — recovery re-routes WALs by this value.
  uint64_t hash = 14695981039346656037ull;
  for (const char c : session_id) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<size_t>(hash % num_shards);
}

std::string SessionManager::ShardWalDir(const std::string& root,
                                        size_t shard_index,
                                        size_t num_shards) {
  if (num_shards <= 1) return root;  // the pre-shard layout
  return root + "/shard-" + std::to_string(shard_index);
}

uint64_t SessionManager::RebalanceWalFiles(const std::string& root,
                                           size_t num_shards) {
  // Collect every WAL anywhere in the layout: the root itself (the
  // 1-shard layout) and any shard-*/ subdirectory a previous run with a
  // different shard count left behind.
  std::vector<std::pair<std::string, std::string>> found;  // {dir, id}
  for (const std::string& id : ListWalSessionIds(root)) {
    found.emplace_back(root, id);
  }
  if (DIR* dir = ::opendir(root.c_str())) {
    while (dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name.compare(0, 6, "shard-") != 0) continue;
      const std::string sub = root + "/" + name;
      struct stat st{};
      if (::stat(sub.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) continue;
      for (const std::string& id : ListWalSessionIds(sub)) {
        found.emplace_back(sub, id);
      }
    }
    ::closedir(dir);
  }
  uint64_t last_session = 0;
  size_t moved = 0;
  for (const auto& [dir, id] : found) {
    // Fresh "s-<n>" ids stay ahead of every WAL ever seen — even ones
    // recovery quarantines — so a new session never shadows an old log.
    if (id.size() > 2 && id.compare(0, 2, "s-") == 0) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(id.c_str() + 2, &end, 10);
      if (*end == '\0') last_session = std::max<uint64_t>(last_session, n);
    }
    const std::string target_dir =
        ShardWalDir(root, ShardForSession(id, num_shards), num_shards);
    if (dir == target_dir) continue;
    const std::string from = dir + "/" + id + ".wal";
    const std::string to = target_dir + "/" + id + ".wal";
    if (::rename(from.c_str(), to.c_str()) != 0) {
      logging::Error(kComponent, "WAL rebalance rename failed")
          .With("from", from)
          .With("to", to);
      continue;
    }
    ++moved;
  }
  if (moved != 0) {
    logging::Info(kComponent, "rebalanced WALs across shards")
        .With("moved", static_cast<int64_t>(moved))
        .With("shards", static_cast<int64_t>(num_shards));
  }
  return last_session;
}

SessionManager::SessionManager(ServiceConfig config)
    : config_(std::move(config)) {
  config_.num_shards = std::max<size_t>(1, config_.num_shards);
  config_.num_workers = std::max<size_t>(1, config_.num_workers);
  config_.max_queue = std::max<size_t>(1, config_.max_queue);
  const size_t num_shards = config_.num_shards;
  const std::string& wal_root = config_.wal_dir;
  const bool recover = config_.recover && !wal_root.empty();
  if (!wal_root.empty() && num_shards > 1) {
    for (size_t i = 0; i < num_shards; ++i) {
      // Best-effort; SessionWal::Open reports a usable error if the
      // directory is truly unavailable.
      ::mkdir(ShardWalDir(wal_root, i, num_shards).c_str(), 0755);
    }
  }
  if (recover) {
    next_session_.store(RebalanceWalFiles(wal_root, num_shards),
                        std::memory_order_relaxed);
  }
  // One memory governor: --mem-budget bounds the whole process, so
  // per-shard budgets would mis-account shared bases and let N shards
  // each grow to the full limit.
  governor_ = std::make_shared<ResourceGovernor>(config_.mem_budget_bytes);
  // One base registry: a base registered through any connection is
  // forkable by sessions on all shards, and its refcount sees them all.
  // Its bases.jsonl lives at the WAL root and is replayed before any
  // shard recovers sessions — a recovered session whose create params
  // carry "base" re-forks from it. Its bytes count against the budget
  // (shared bases are real memory).
  registry_ = std::make_shared<BaseRegistry>(wal_root);
  if (recover) (void)registry_->RecoverFromLog();
  registry_->AttachGovernor(governor_);
  // The span recorder is process-global and Enable() resets its epoch:
  // enable it once, before shard recovery runs.
  if (!config_.trace_dir.empty()) {
    trace::Recorder::Instance().Enable(config_.trace_dir);
  }
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    ServiceConfig shard_config = config_;
    if (!wal_root.empty()) {
      shard_config.wal_dir = ShardWalDir(wal_root, i, num_shards);
    }
    shards_.push_back(std::make_unique<SessionShard>(
        std::move(shard_config), *registry_, *governor_));
  }
  // Process-wide counters and gauges (registry, governor, unparseable
  // lines, `metrics` requests) live on shard 0's metrics only, so the
  // aggregate counts them once.
  registry_->AttachMetrics(&shards_[0]->metrics());
  governor_->AttachMetrics(&shards_[0]->metrics());
  if (num_shards > 1) {
    logging::Info(kComponent, "sharded session manager up")
        .With("shards", static_cast<int64_t>(num_shards))
        .With("workers_per_shard",
              static_cast<int64_t>(config_.num_workers));
  }
}

SessionManager::~SessionManager() { Shutdown(); }

void SessionManager::Shutdown() {
  if (stopping_.exchange(true)) return;
  for (const auto& shard : shards_) shard->Shutdown();
  // Final span flush: anything still buffered goes to one last trace
  // file so post-mortem tooling sees the tail of the run.
  if (!config_.trace_dir.empty() && trace::Recorder::enabled()) {
    (void)trace::Recorder::Instance().DrainToFile();
  }
}

void SessionManager::Submit(ServiceRequest request, Completion done) {
  const CommandSpec& command = LookupCommand(request.command);
  size_t shard = 0;
  switch (command.home) {
    case CommandSpec::Home::kFrontEnd: {
      // `metrics`, answered inline and never refused. Counted before the
      // snapshot, so the reply includes itself.
      trace::ScopedSpan span(command.span);
      shards_[0]->metrics().requests_total.fetch_add(
          1, std::memory_order_relaxed);
      done(Status::Ok(), MetricsJson());
      return;
    }
    case CommandSpec::Home::kShardZero:
      break;
    case CommandSpec::Home::kOwningShard:
      if (!command.addresses_session) {  // create
        request.assigned_session_id =
            "s-" + std::to_string(next_session_.fetch_add(
                                      1, std::memory_order_relaxed) +
                                  1);
        shard = ShardForSession(request.assigned_session_id, shards_.size());
      } else if (!request.session_id.empty()) {
        // A missing id stays on shard 0, which produces the error.
        shard = ShardForSession(request.session_id, shards_.size());
      }
      break;
  }
  shards_[shard]->Submit(std::move(request), command, std::move(done));
}

void SessionManager::SubmitLine(const std::string& line,
                                std::function<void(std::string)> emit) {
  StatusOr<ServiceRequest> parsed = ParseRequestLine(line);
  if (!parsed.ok()) {
    ServiceMetrics& front = shards_[0]->metrics();
    front.requests_total.fetch_add(1, std::memory_order_relaxed);
    front.errors_total.fetch_add(1, std::memory_order_relaxed);
    emit(ErrorResponseForLine(line, parsed.status()));
    return;
  }
  ServiceRequest request = std::move(parsed).value();
  std::string id = request.id;
  Submit(std::move(request),
         [id = std::move(id), emit = std::move(emit)](Status status,
                                                      JsonValue result) {
           ServiceRequest echo;
           echo.id = id;
           emit(status.ok() ? OkResponseLine(echo, std::move(result))
                            : ErrorResponseLine(echo, status));
         });
}

StatusOr<JsonValue> SessionManager::Execute(ServiceRequest request) {
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  Status status = Status::Ok();
  JsonValue result;
  Submit(std::move(request), [&](Status s, JsonValue r) {
    std::lock_guard<std::mutex> lock(mu);
    status = std::move(s);
    result = std::move(r);
    ready = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ready; });
  if (!status.ok()) return status;
  return result;
}

JsonValue SessionManager::MetricsJson() {
  ServiceMetrics aggregate;
  for (const auto& shard : shards_) aggregate.MergeFrom(shard->metrics());
  JsonValue out = aggregate.ToJson();

  size_t commands_in_flight = 0;
  size_t sessions_registered = 0;
  for (const auto& shard : shards_) {
    commands_in_flight += shard->CommandsInFlight();
    sessions_registered += shard->SessionsRegistered();
  }
  JsonValue service = JsonValue::Object();
  service.Set("workers", JsonValue::Number(static_cast<int64_t>(
                             shards_.size() * config_.num_workers)));
  service.Set("commands_in_flight",
              JsonValue::Number(static_cast<int64_t>(commands_in_flight)));
  service.Set("sessions_registered",
              JsonValue::Number(static_cast<int64_t>(sessions_registered)));
  service.Set("shards",
              JsonValue::Number(static_cast<int64_t>(shards_.size())));
  out.Set("service", std::move(service));

  JsonValue per_shard = JsonValue::Array();
  for (size_t i = 0; i < shards_.size(); ++i) {
    ServiceMetrics& m = shards_[i]->metrics();
    JsonValue row = JsonValue::Object();
    row.Set("shard", JsonValue::Number(static_cast<int64_t>(i)));
    row.Set("sessions_active",
            JsonValue::Number(
                m.sessions_active.load(std::memory_order_relaxed)));
    row.Set("sessions_opened",
            JsonValue::Number(
                m.sessions_opened.load(std::memory_order_relaxed)));
    row.Set("requests_total",
            JsonValue::Number(
                m.requests_total.load(std::memory_order_relaxed)));
    row.Set("turn_delay_count",
            JsonValue::Number(m.turn_delay.count()));
    per_shard.Append(std::move(row));
  }
  out.Set("per_shard", std::move(per_shard));
  return out;
}

void SessionManager::AppendMetricsText(std::string* out) {
  ServiceMetrics aggregate;
  for (const auto& shard : shards_) aggregate.MergeFrom(shard->metrics());
  AppendPrometheusText(aggregate, out);
  if (shards_.size() > 1) {
    std::vector<const ServiceMetrics*> views;
    views.reserve(shards_.size());
    for (const auto& shard : shards_) views.push_back(&shard->metrics());
    AppendShardPrometheusText(views, out);
  }
}

std::vector<std::string> SessionManager::ReadinessCauses() {
  std::vector<std::string> causes;
  if (stopping_.load(std::memory_order_relaxed)) {
    causes.push_back("shutdown-in-progress");
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix =
        shards_.size() > 1 ? "shard " + std::to_string(i) + ": " : "";
    for (const std::string& cause : shards_[i]->ReadinessCauses()) {
      causes.push_back(prefix + cause);
    }
  }
  // Level-based (no hold-down): clears the instant evictions bring the
  // estimate back under the low watermark.
  if (governor_->UnderPressure()) causes.push_back("memory-pressure");
  return causes;
}

JsonValue SessionManager::StatuszJson() {
  JsonValue out = JsonValue::Object();
  out.Set("uptime_s", JsonValue::Number(
                          static_cast<double>(MonotonicNowNs() - start_ns_) /
                          1e9));
  out.Set("shards", JsonValue::Number(static_cast<int64_t>(shards_.size())));
  out.Set("workers_per_shard",
          JsonValue::Number(static_cast<int64_t>(config_.num_workers)));
  out.Set("max_queue",
          JsonValue::Number(static_cast<int64_t>(config_.max_queue)));
  out.Set("deadline_ms", JsonValue::Number(config_.deadline_ms));
  out.Set("idle_ttl_s", JsonValue::Number(config_.idle_ttl_seconds));
  out.Set("wal", JsonValue::Bool(!config_.wal_dir.empty()));
  out.Set("tracing", JsonValue::Bool(!config_.trace_dir.empty()));
  out.Set("mem_budget_bytes", JsonValue::Number(governor_->budget_bytes()));
  out.Set("mem_estimated_bytes",
          JsonValue::Number(governor_->estimated_bytes()));
  out.Set("mem_pressure", JsonValue::Bool(governor_->UnderPressure()));
  out.Set("stopping", JsonValue::Bool(stopping_.load()));
  int64_t sessions_active = 0;
  size_t commands_in_flight = 0;
  JsonValue per_shard = JsonValue::Array();
  for (size_t i = 0; i < shards_.size(); ++i) {
    sessions_active += shards_[i]->metrics().sessions_active.load(
        std::memory_order_relaxed);
    commands_in_flight += shards_[i]->CommandsInFlight();
    JsonValue row = shards_[i]->StatuszJson();
    row.Set("shard", JsonValue::Number(static_cast<int64_t>(i)));
    per_shard.Append(std::move(row));
  }
  out.Set("sessions_active", JsonValue::Number(sessions_active));
  out.Set("commands_in_flight",
          JsonValue::Number(static_cast<int64_t>(commands_in_flight)));
  JsonValue readiness = JsonValue::Array();
  for (const std::string& cause : ReadinessCauses()) {
    readiness.Append(JsonValue::String(cause));
  }
  out.Set("readiness_causes", std::move(readiness));
  out.Set("shard", std::move(per_shard));
  return out;
}

}  // namespace kbrepair
