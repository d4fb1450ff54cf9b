// Service-wide counters and latency histograms, surfaced through the
// wire protocol's `metrics` command.
//
// Everything here is updated from worker threads on the hot path, so the
// implementation is lock-free: plain atomic counters plus a fixed-bucket
// logarithmic histogram (the standard approach of server metric
// libraries — increments are one relaxed fetch_add, quantiles are
// estimated from bucket upper bounds at read time).

#ifndef KBREPAIR_SERVICE_METRICS_H_
#define KBREPAIR_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/trace.h"

namespace kbrepair {

// Log2-bucketed latency histogram: bucket i counts samples in
// [2^i, 2^(i+1)) microseconds; the last bucket absorbs the tail.
// QuantileSeconds() returns the upper bound of the bucket holding the
// q-th sample — an overestimate by at most 2x, which is the usual trade
// for lock-free recording — clamped into [MinSeconds(), MaxSeconds()]
// so reported quantiles always satisfy min ≤ p50 ≤ p95 ≤ max.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 40;  // up to ~2^40 us ≈ 12.7 days

  // Bucket index for a (rounded) microsecond value; exposed for the
  // metric-invariant tests.
  static size_t BucketForMicros(uint64_t micros);

  // Inclusive upper bound of bucket i in microseconds (2^(i+1)). The
  // last bucket absorbs the tail and is unbounded: UINT64_MAX.
  static uint64_t BucketUpperBoundMicros(size_t bucket);

  void Observe(double seconds);

  uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double MeanSeconds() const;
  double SumSeconds() const;
  double QuantileSeconds(double q) const;
  double MinSeconds() const;
  double MaxSeconds() const;

  // Snapshot of the raw bucket counters (invariant: their sum equals
  // count()).
  std::array<uint64_t, kNumBuckets> BucketCounts() const;

  // One cumulative (Prometheus-style) bucket: how many observations
  // were <= le_seconds. The final entry is always the unbounded +Inf
  // bucket (`infinite` set) whose count equals the snapshot total.
  struct CumulativeBucket {
    double le_seconds = 0.0;
    bool infinite = false;
    uint64_t cumulative_count = 0;
  };

  // Cumulative rendering over ONE atomic-ish snapshot of the buckets.
  // This is the single code path behind both the JSON `metrics` command
  // ("buckets" array) and the Prometheus `/metrics` exposition
  // (`_bucket{le=...}`), so the two surfaces cannot drift. Buckets past
  // the last non-empty one are trimmed; +Inf is always present.
  std::vector<CumulativeBucket> CumulativeBuckets() const;

  // {"count":n,"mean_ms":..,"p50_ms":..,"p95_ms":..,"min_ms":..,
  //  "max_ms":..,"buckets":[{"le_ms":..,"count":..},...,
  //  {"le_ms":"+Inf","count":n}]}
  JsonValue ToJson() const;

  // Adds `other`'s observations into this histogram (bucket-wise adds,
  // min/max folds). Used to aggregate per-shard histograms into one
  // service-wide view. The added count is the sum of the buckets read,
  // so the merged buckets always sum to the merged count; sum, min and
  // max are read on their own and may miss an observation in flight.
  void MergeFrom(const LatencyHistogram& other);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_micros_{0};
  std::atomic<uint64_t> min_micros_{UINT64_MAX};
  std::atomic<uint64_t> max_micros_{0};
};

// Label axis for the per-strategy breakdown: index i is the Strategy
// enum value i, named by StrategyName.
inline constexpr size_t kNumStrategyLabels = 5;
const char* StrategyLabelName(size_t index);  // "random", "opti-join", ...

// Counters and phase-latency histograms for one strategy label. Phase histograms are indexed by trace::Phase and record
// the per-command time attributed to that phase; turn_delay records the
// engine-compute delay of each question (Prop. 4.10's measured bound).
struct LabeledMetrics {
  std::atomic<uint64_t> sessions{0};
  std::atomic<uint64_t> questions{0};
  std::atomic<uint64_t> answers{0};
  LatencyHistogram turn_delay;
  std::array<LatencyHistogram, trace::kNumPhases> phases;

  bool Touched() const;

  void MergeFrom(const LabeledMetrics& other);

  // {"sessions":..,"questions":..,"answers":..,"turn_delay":{..},
  //  "phase_chase":{..}, ...} — only phases with observations appear.
  JsonValue ToJson() const;
};

// The service's aggregate state. One instance per SessionManager.
struct ServiceMetrics {
  // Session lifecycle.
  std::atomic<uint64_t> sessions_opened{0};
  std::atomic<uint64_t> sessions_completed{0};  // closed via `close`
  std::atomic<uint64_t> sessions_evicted{0};    // reaped by the idle TTL
  std::atomic<uint64_t> sessions_failed{0};     // create/step errors
  std::atomic<int64_t> sessions_active{0};

  // Dialogue traffic.
  std::atomic<uint64_t> questions_served{0};
  std::atomic<uint64_t> answers_applied{0};

  // Wire traffic.
  std::atomic<uint64_t> requests_total{0};
  std::atomic<uint64_t> errors_total{0};
  std::atomic<uint64_t> rejected_overload{0};
  // Commands refused at admission (overload, shutdown, WAL append
  // failure) — superset of rejected_overload. None of them executed.
  std::atomic<uint64_t> rejected_commands{0};
  // Commands cut off by the per-command deadline (--deadline-ms).
  std::atomic<uint64_t> deadline_exceeded{0};

  // Durability and degradation.
  std::atomic<uint64_t> wal_appends{0};
  std::atomic<uint64_t> wal_fsync_failures{0};
  std::atomic<uint64_t> transcript_write_failures{0};
  std::atomic<uint64_t> sessions_recovered{0};   // rebuilt from WALs
  std::atomic<uint64_t> engine_rebuilds{0};      // dropped conflict engines
  std::atomic<uint64_t> worker_stalls{0};        // watchdog flags

  // Shared-base registry (service/base_registry.h). The gauges are kept
  // current by the one registry attached to this metrics instance
  // (shard 0 in a sharded daemon — MergeFrom sums, so only one shard
  // may carry them); base_forks counts the sessions each manager forked
  // from a shared base and merges like any counter.
  std::atomic<int64_t> bases_registered{0};   // gauge: live bases
  std::atomic<int64_t> base_rss_bytes{0};     // gauge: shared-segment bytes
  std::atomic<uint64_t> base_forks{0};        // counter: forked creates

  // Disk-degraded mode (service/wal.h): appends that hit ENOSPC/EIO,
  // commands rejected ResourceExhausted while the owning shard was
  // degraded, and a 0/1 gauge raised while the shard is degraded (the
  // sharded aggregate therefore counts degraded shards).
  std::atomic<uint64_t> wal_disk_full_failures{0};
  std::atomic<uint64_t> rejected_degraded{0};
  std::atomic<int64_t> wal_degraded{0};

  // Memory governance (service/resource_governor.h). The gauges are
  // kept current by the one governor attached to this metrics instance
  // (shard 0 in a sharded daemon, like the registry gauges); the
  // counters are per-shard and merge by summing.
  std::atomic<int64_t> mem_estimated_bytes{0};  // gauge: sessions + bases
  std::atomic<int64_t> mem_budget_bytes{0};     // gauge: --mem-budget
  std::atomic<int64_t> mem_pressure{0};         // gauge: 1 while shedding
  std::atomic<uint64_t> rejected_pressure{0};   // creates shed under pressure
  std::atomic<uint64_t> pressure_evictions{0};  // idle sessions evicted early

  // Readiness signals: monotonic-clock nanoseconds of the most recent
  // event (0 = never happened). The HTTP exporter's /readyz degrades
  // for a hold-down window after each (see SessionManager's readiness).
  std::atomic<int64_t> last_wal_fsync_failure_ns{0};
  std::atomic<int64_t> last_wal_disk_full_ns{0};

  // Per-turn question-production delay (Prop. 4.10's service-latency
  // bound, measured as engine compute time — parked wall time between
  // wire commands is excluded) and end-to-end per-command service time.
  LatencyHistogram turn_delay;
  LatencyHistogram request_latency;
  // Time a command waited in the ready queue before a worker picked it
  // up (request_latency minus queue_wait ≈ execution time).
  LatencyHistogram queue_wait;
  // Time to fork a session from a shared base (KB fork + BeginShared +
  // registration) — the latency the copy-on-write split keeps O(delta).
  LatencyHistogram base_fork_latency;

  // The per-strategy breakdown, indexed by StrategyLabelName's axis.
  // Untouched strategies are skipped in ToJson().
  std::array<LabeledMetrics, kNumStrategyLabels> by_label;

  LabeledMetrics& ForLabels(size_t strategy_index) {
    return by_label[strategy_index % kNumStrategyLabels];
  }

  JsonValue ToJson() const;

  // Folds `other` (one shard's metrics) into this aggregate: counters
  // and gauges add, readiness timestamps take the most recent, and
  // every histogram merges bucket-wise. The sharded daemon uses this to
  // answer the `metrics` command with the same shape a single-shard
  // daemon produces. Every merged snapshot keeps the session ledger
  // balanced: active + completed + evicted <= opened.
  void MergeFrom(const ServiceMetrics& other);
};

// Steady-clock nanoseconds since an arbitrary epoch; the readiness
// timestamps above are recorded against this clock.
int64_t MonotonicNowNs();

// Renders `metrics` in the Prometheus text exposition format (0.0.4):
// HELP/TYPE comments, `kbrepair_*` counters and gauges, and every
// latency histogram as cumulative `_bucket{le=...}` / `_sum` / `_count`
// series (per-strategy histograms carry a `strategy` label, phase
// histograms additionally `phase`). Appended to *out.
void AppendPrometheusText(const ServiceMetrics& metrics, std::string* out);

// Per-shard breakdown for a sharded daemon: a compact set of
// `kbrepair_shard_*{shard="<i>"}` series (active sessions, lifecycle
// counters, wire traffic, WAL appends, and a per-shard turn-delay
// histogram), one labeled line per shard with each metric's HELP/TYPE
// emitted exactly once. `shards[i]` is shard i's metrics. Intended to
// be appended AFTER the unlabeled aggregate from
// AppendPrometheusText(); a single-shard daemon skips it entirely so
// its exposition stays byte-stable.
void AppendShardPrometheusText(
    const std::vector<const ServiceMetrics*>& shards, std::string* out);

}  // namespace kbrepair

#endif  // KBREPAIR_SERVICE_METRICS_H_
