// SessionManager: the service front end behind `kbrepaird`, at every
// shard count.
//
// The front end owns every process-wide duty: it parses wire lines and
// builds the response envelopes, mints the globally unique "s-<n>"
// session ids, owns the one BaseRegistry and the one ResourceGovernor,
// enables the span recorder (and flushes it at shutdown), routes each
// command, and answers `metrics`, /metrics, /statusz and /readyz.
//
// Behind it sit N SessionShards (service/session_shard.h), each with its
// own admission bound, ready queue, workers, reaper, WAL directory and
// sessions. Scaling past one shard means scaling past one mutex:
// admission, per-session queues, eviction and recovery all serialize on
// a shard's lock, so N shards share nothing on the hot path. Routing
// follows the one command table (LookupCommand):
//
//  * `create` — the front end assigns the next "s-<n>" id, hashes it,
//    and hands the create (with the id in
//    ServiceRequest::assigned_session_id) to the owning shard;
//  * session commands (`ask`/`answer`/...) — routed by hashing the
//    client-supplied session id, so a session's commands always land on
//    the shard that owns its state;
//  * `metrics` — answered inline by merging every shard's
//    ServiceMetrics into one aggregate, plus a per-shard summary;
//  * `trace`, `register-base`, `list-bases`, `failpoint` — run on a
//    shard-0 worker (process-wide state, never on the caller's thread).
//
// The hash is FNV-1a, not std::hash: shard ownership must be stable
// across restarts (recovery re-routes each WAL to the shard its id
// hashes to) and across standard libraries.
//
// WAL layout: with 1 shard the root wal_dir is used as-is; with N > 1
// shard i logs under <wal_dir>/shard-<i>/. Recovery first sweeps every
// WAL found anywhere in the layout into the directory its session id
// now hashes to, so scaling the daemon up or down never strands a
// session; the same sweep seeds the id counter past every logged id.

#ifndef KBREPAIR_SERVICE_SESSION_MANAGER_H_
#define KBREPAIR_SERVICE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service/base_registry.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/resource_governor.h"
#include "util/json.h"
#include "util/status.h"

namespace kbrepair {

class SessionShard;

struct ServiceConfig {
  // Independent session shards (see above).
  size_t num_shards = 1;
  // Worker threads per shard.
  size_t num_workers = 4;
  // Per shard: cap on commands queued or executing across its sessions;
  // beyond it submissions fail fast with Unavailable.
  size_t max_queue = 1024;
  // Sessions idle (no queued or executing command) longer than this are
  // evicted by the reaper. <= 0 disables eviction.
  double idle_ttl_seconds = 0.0;
  // When non-empty, transcripts are written here as <session-id>.json on
  // close, eviction and shutdown.
  std::string transcript_dir;
  // When non-empty, every accepted create/answer/close is write-ahead
  // logged under this root (layout above; fsync'd before execution), and
  // registered bases to <wal_dir>/bases.jsonl.
  std::string wal_dir;
  // With wal_dir set: replay bases.jsonl and every WAL found there at
  // startup and re-register the sessions (the daemon's --recover-dir).
  bool recover = false;
  // Per-command deadline; <= 0 disables. Commands past it fail with
  // DeadlineExceeded instead of wedging a worker.
  int64_t deadline_ms = 0;
  // When non-empty, the process-wide span recorder is enabled with this
  // directory as its sink: every instrumented region records a span, the
  // `trace` command drains them to <trace_dir>/trace-NNNNN.jsonl, and
  // Shutdown() flushes whatever is still buffered. Empty = spans off
  // (phase accounting stays on either way).
  std::string trace_dir;
  // Soft process-wide memory ceiling (--mem-budget); <= 0 = unlimited.
  int64_t mem_budget_bytes = 0;
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

  // Wire-level submit: parses `line`, runs it, and emits exactly one
  // JSON response line (envelope included) through `emit`.
  void SubmitLine(const std::string& line,
                  std::function<void(std::string)> emit);

  // Routes a command; `done` fires exactly once, on a worker thread (or
  // inline for `metrics` and rejections).
  void Submit(ServiceRequest request, Completion done);

  // Blocking convenience for tests and synchronous clients.
  StatusOr<JsonValue> Execute(ServiceRequest request);

  // Shuts every shard down (drains all of them), then flushes the span
  // recorder. Idempotent; also run by the destructor.
  void Shutdown();

  size_t num_shards() const { return shards_.size(); }
  SessionShard& shard(size_t i) { return *shards_[i]; }
  const std::shared_ptr<BaseRegistry>& base_registry() const {
    return registry_;
  }
  const std::shared_ptr<ResourceGovernor>& governor() const {
    return governor_;
  }

  // The HTTP exporter's hooks. The exposition aggregates every shard
  // (with N > 1 it also carries kbrepair_shard_*{shard="i"} series).
  // /readyz causes: shutdown-in-progress and memory-pressure once for
  // the process, then each shard's own causes ("shard i: "-prefixed
  // with N > 1); empty while healthy. All thread-safe, also after
  // Shutdown().
  void AppendMetricsText(std::string* out);
  std::vector<std::string> ReadinessCauses();
  JsonValue StatuszJson();

  // Stable shard routing (FNV-1a 64 over the session id).
  static size_t ShardForSession(const std::string& session_id,
                                size_t num_shards);
  // <root>/shard-<i> for N > 1; the root itself for N == 1.
  static std::string ShardWalDir(const std::string& root, size_t shard_index,
                                 size_t num_shards);

 private:
  // Moves every WAL under `root` into the directory of the shard its id
  // hashes to; returns the highest "s-<n>" number among them.
  uint64_t RebalanceWalFiles(const std::string& root, size_t num_shards);
  // The `metrics` reply: the aggregate over every shard, plus `service`
  // and `per_shard`.
  JsonValue MetricsJson();

  ServiceConfig config_;
  const int64_t start_ns_ = MonotonicNowNs();  // for /statusz uptime
  // Declared before shards_, so they outlive every session's base
  // handle and memory charge.
  std::shared_ptr<ResourceGovernor> governor_;
  std::shared_ptr<BaseRegistry> registry_;
  std::vector<std::unique_ptr<SessionShard>> shards_;
  std::atomic<uint64_t> next_session_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace kbrepair

#endif  // KBREPAIR_SERVICE_SESSION_MANAGER_H_
