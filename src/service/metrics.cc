#include "service/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "repair/inquiry.h"

namespace kbrepair {

size_t LatencyHistogram::BucketForMicros(uint64_t micros) {
  size_t bucket = 0;
  while ((uint64_t{1} << (bucket + 1)) <= micros &&
         bucket + 1 < kNumBuckets) {
    ++bucket;
  }
  return bucket;
}

uint64_t LatencyHistogram::BucketUpperBoundMicros(size_t bucket) {
  if (bucket + 1 >= kNumBuckets) return UINT64_MAX;  // tail bucket
  return uint64_t{1} << (bucket + 1);
}

void LatencyHistogram::Observe(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  // Round to the nearest microsecond: truncation biased sum_micros_
  // (and so the mean) low by half a microsecond per observation, which
  // is material for the sub-microsecond deltas the phase histograms see.
  const uint64_t micros = static_cast<uint64_t>(std::llround(seconds * 1e6));
  buckets_[BucketForMicros(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  uint64_t seen = max_micros_.load(std::memory_order_relaxed);
  while (micros > seen &&
         !max_micros_.compare_exchange_weak(seen, micros,
                                            std::memory_order_relaxed)) {
  }
  seen = min_micros_.load(std::memory_order_relaxed);
  while (micros < seen &&
         !min_micros_.compare_exchange_weak(seen, micros,
                                            std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::MeanSeconds() const {
  const uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  return static_cast<double>(sum_micros_.load(std::memory_order_relaxed)) /
         static_cast<double>(n) / 1e6;
}

double LatencyHistogram::QuantileSeconds(double q) const {
  const uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  if (q <= 0.0) return MinSeconds();
  if (q >= 1.0) return MaxSeconds();
  // Rank of the q-th sample, at least 1: with target 0 the very first
  // (possibly empty) bucket would satisfy `seen >= target` and q→0
  // would report ~2 µs regardless of the data.
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))));
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target) {
      // The bucket only brackets the sample: its upper bound can exceed
      // the largest observation (the old p95 > max bug) and its lower
      // bound can undershoot the smallest. Clamp into the observed
      // range so quantiles are monotone and never contradict min/max.
      const double upper = static_cast<double>(uint64_t{1} << (i + 1)) / 1e6;
      return std::min(std::max(upper, MinSeconds()), MaxSeconds());
    }
  }
  return MaxSeconds();
}

double LatencyHistogram::SumSeconds() const {
  return static_cast<double>(sum_micros_.load(std::memory_order_relaxed)) /
         1e6;
}

double LatencyHistogram::MinSeconds() const {
  const uint64_t micros = min_micros_.load(std::memory_order_relaxed);
  if (micros == UINT64_MAX) return 0.0;  // no observations yet
  return static_cast<double>(micros) / 1e6;
}

double LatencyHistogram::MaxSeconds() const {
  return static_cast<double>(max_micros_.load(std::memory_order_relaxed)) /
         1e6;
}

std::array<uint64_t, LatencyHistogram::kNumBuckets>
LatencyHistogram::BucketCounts() const {
  std::array<uint64_t, kNumBuckets> counts{};
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::vector<LatencyHistogram::CumulativeBucket>
LatencyHistogram::CumulativeBuckets() const {
  const std::array<uint64_t, kNumBuckets> counts = BucketCounts();
  size_t last_nonzero = 0;
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    total += counts[i];
    if (counts[i] != 0) last_nonzero = i;
  }
  std::vector<CumulativeBucket> out;
  if (total == 0) {
    out.push_back(CumulativeBucket{0.0, true, 0});
    return out;
  }
  // Emit bounded buckets through the last non-empty one (trailing empty
  // buckets carry no information), then the +Inf bucket. The +Inf count
  // is the sum of THIS snapshot, not count_, so the cumulative series
  // is internally consistent even while observations race the read.
  uint64_t running = 0;
  for (size_t i = 0; i <= last_nonzero && i + 1 < kNumBuckets; ++i) {
    running += counts[i];
    out.push_back(CumulativeBucket{
        static_cast<double>(BucketUpperBoundMicros(i)) / 1e6, false,
        running});
  }
  out.push_back(CumulativeBucket{0.0, true, total});
  return out;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  // The merged count is the sum of the buckets merged, not a separate
  // read of other.count_ that an Observe() could slip between: the
  // merged histogram's buckets always sum to its count.
  uint64_t merged = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
    merged += n;
  }
  count_.fetch_add(merged, std::memory_order_relaxed);
  sum_micros_.fetch_add(other.sum_micros_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  const uint64_t other_max = other.max_micros_.load(std::memory_order_relaxed);
  uint64_t seen = max_micros_.load(std::memory_order_relaxed);
  while (other_max > seen &&
         !max_micros_.compare_exchange_weak(seen, other_max,
                                            std::memory_order_relaxed)) {
  }
  const uint64_t other_min = other.min_micros_.load(std::memory_order_relaxed);
  seen = min_micros_.load(std::memory_order_relaxed);
  while (other_min < seen &&
         !min_micros_.compare_exchange_weak(seen, other_min,
                                            std::memory_order_relaxed)) {
  }
}

JsonValue LatencyHistogram::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("count", JsonValue::Number(count()));
  out.Set("mean_ms", JsonValue::Number(MeanSeconds() * 1e3));
  out.Set("p50_ms", JsonValue::Number(QuantileSeconds(0.5) * 1e3));
  out.Set("p95_ms", JsonValue::Number(QuantileSeconds(0.95) * 1e3));
  out.Set("min_ms", JsonValue::Number(MinSeconds() * 1e3));
  out.Set("max_ms", JsonValue::Number(MaxSeconds() * 1e3));
  JsonValue buckets = JsonValue::Array();
  for (const CumulativeBucket& bucket : CumulativeBuckets()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("le_ms", bucket.infinite
                           ? JsonValue::String("+Inf")
                           : JsonValue::Number(bucket.le_seconds * 1e3));
    entry.Set("count", JsonValue::Number(bucket.cumulative_count));
    buckets.Append(std::move(entry));
  }
  out.Set("buckets", std::move(buckets));
  return out;
}

const char* StrategyLabelName(size_t index) {
  if (index >= kNumStrategyLabels) return "unknown";
  return StrategyName(static_cast<Strategy>(index));
}

bool LabeledMetrics::Touched() const {
  if (sessions.load(std::memory_order_relaxed) != 0) return true;
  if (questions.load(std::memory_order_relaxed) != 0) return true;
  if (answers.load(std::memory_order_relaxed) != 0) return true;
  return turn_delay.count() != 0;
}

void LabeledMetrics::MergeFrom(const LabeledMetrics& other) {
  sessions.fetch_add(other.sessions.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  questions.fetch_add(other.questions.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  answers.fetch_add(other.answers.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  turn_delay.MergeFrom(other.turn_delay);
  for (size_t p = 0; p < trace::kNumPhases; ++p) {
    phases[p].MergeFrom(other.phases[p]);
  }
}

JsonValue LabeledMetrics::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("sessions",
          JsonValue::Number(sessions.load(std::memory_order_relaxed)));
  out.Set("questions",
          JsonValue::Number(questions.load(std::memory_order_relaxed)));
  out.Set("answers",
          JsonValue::Number(answers.load(std::memory_order_relaxed)));
  out.Set("turn_delay", turn_delay.ToJson());
  for (size_t p = 0; p < trace::kNumPhases; ++p) {
    if (phases[p].count() == 0) continue;
    out.Set(std::string("phase_") +
                trace::PhaseName(static_cast<trace::Phase>(p)),
            phases[p].ToJson());
  }
  return out;
}

namespace {

// --- The metrics table ---------------------------------------------------
//
// Every ServiceMetrics counter, gauge and histogram is one row, in
// rendering order. The row drives all three surfaces: the JSON `metrics`
// payload (group object + key; a null group puts the key at top level),
// the Prometheus exposition (name, HELP and TYPE), and MergeFrom (how a
// shard's value folds into the aggregate). Rows without a JSON key or a
// Prometheus name are not rendered there. Adding a metric is adding a
// row.

enum class MetricType { kCounter, kGauge, kHistogram };

enum class MergeRule {
  kSum,     // counters, gauges, histograms (bucket-wise)
  kLatest,  // readiness timestamps: the most recent event wins
};

struct MetricRow {
  const char* group;      // JSON group object; nullptr = top level
  const char* key;        // JSON key; nullptr = not in JSON
  const char* prom_name;  // Prometheus name; nullptr = not exported
  const char* help;
  MetricType type;
  MergeRule merge;
  // Exactly the member matching `type` is set.
  std::atomic<uint64_t> ServiceMetrics::* counter;
  std::atomic<int64_t> ServiceMetrics::* gauge;
  LatencyHistogram ServiceMetrics::* histogram;
};

constexpr MetricRow Counter(const char* group, const char* key,
                            const char* prom_name, const char* help,
                            std::atomic<uint64_t> ServiceMetrics::* field) {
  return {group, key, prom_name, help, MetricType::kCounter,
          MergeRule::kSum, field, nullptr, nullptr};
}

constexpr MetricRow Gauge(const char* group, const char* key,
                          const char* prom_name, const char* help,
                          std::atomic<int64_t> ServiceMetrics::* field,
                          MergeRule merge = MergeRule::kSum) {
  return {group, key, prom_name, help, MetricType::kGauge,
          merge, nullptr, field, nullptr};
}

constexpr MetricRow Histogram(const char* group, const char* key,
                              const char* prom_name, const char* help,
                              LatencyHistogram ServiceMetrics::* field) {
  return {group, key, prom_name, help, MetricType::kHistogram,
          MergeRule::kSum, nullptr, nullptr, field};
}

using M = ServiceMetrics;

// Gauges that only shard 0 keeps current (registry and governor) merge
// by summing too: the other shards contribute zero. wal_degraded is a
// per-shard 0/1 flag, so its sum counts degraded shards.
constexpr MetricRow kMetricRows[] = {
    Counter("sessions", "opened", "kbrepair_sessions_opened_total",
            "Sessions created (including recovered ones).",
            &M::sessions_opened),
    Counter("sessions", "completed", "kbrepair_sessions_completed_total",
            "Sessions closed via the close command.",
            &M::sessions_completed),
    Counter("sessions", "evicted", "kbrepair_sessions_evicted_total",
            "Sessions reaped by the idle TTL.", &M::sessions_evicted),
    Counter("sessions", "failed", "kbrepair_sessions_failed_total",
            "Session create/step/recovery failures.", &M::sessions_failed),
    Gauge("sessions", "active", "kbrepair_sessions_active",
          "Sessions currently registered and not closed.",
          &M::sessions_active),
    Counter("traffic", "questions_served", "kbrepair_questions_served_total",
            "Questions handed to clients.", &M::questions_served),
    Counter("traffic", "answers_applied", "kbrepair_answers_applied_total",
            "Answers applied to a session's dialogue.",
            &M::answers_applied),
    Counter("traffic", "requests_total", "kbrepair_requests_total",
            "Wire commands received (including rejected ones).",
            &M::requests_total),
    Counter("traffic", "errors_total", "kbrepair_errors_total",
            "Wire commands answered with an error envelope.",
            &M::errors_total),
    Counter("traffic", "rejected_overload",
            "kbrepair_rejected_overload_total",
            "Commands rejected because the ready queue was full.",
            &M::rejected_overload),
    Counter("traffic", "rejected_commands",
            "kbrepair_rejected_commands_total",
            "Commands refused at admission (overload, shutdown, WAL append "
            "failure).",
            &M::rejected_commands),
    Counter("traffic", "deadline_exceeded",
            "kbrepair_deadline_exceeded_total",
            "Commands cut off by the per-command deadline.",
            &M::deadline_exceeded),
    Counter("durability", "wal_appends", "kbrepair_wal_appends_total",
            "Durable WAL appends (fsync'd before execution).",
            &M::wal_appends),
    Counter("durability", "wal_fsync_failures",
            "kbrepair_wal_fsync_failures_total",
            "WAL appends whose fsync failed (command rejected).",
            &M::wal_fsync_failures),
    Counter("durability", "transcript_write_failures",
            "kbrepair_transcript_write_failures_total",
            "Transcript flushes that failed.",
            &M::transcript_write_failures),
    Counter("durability", "sessions_recovered",
            "kbrepair_sessions_recovered_total",
            "Sessions rebuilt from their WAL at startup.",
            &M::sessions_recovered),
    Counter("durability", "engine_rebuilds", "kbrepair_engine_rebuilds_total",
            "Conflict engines dropped after a failed maintenance step and "
            "rebuilt cold.",
            &M::engine_rebuilds),
    Counter("durability", "worker_stalls", "kbrepair_worker_stalls_total",
            "Commands the watchdog flagged as stalling a worker.",
            &M::worker_stalls),
    Counter("durability", "wal_disk_full_failures",
            "kbrepair_wal_disk_full_failures_total",
            "WAL appends that hit ENOSPC/EIO (shard entered degraded mode).",
            &M::wal_disk_full_failures),
    Counter("durability", "rejected_degraded",
            "kbrepair_rejected_degraded_total",
            "Commands rejected ResourceExhausted while the owning shard was "
            "disk-degraded.",
            &M::rejected_degraded),
    Gauge("durability", "wal_degraded", "kbrepair_wal_degraded",
          "Shards currently in disk-degraded read-only mode.",
          &M::wal_degraded),
    Gauge("resources", "mem_estimated_bytes", "kbrepair_mem_estimated_bytes",
          "Governor estimate of session + base memory in use.",
          &M::mem_estimated_bytes),
    Gauge("resources", "mem_budget_bytes", "kbrepair_mem_budget_bytes",
          "Configured memory budget (--mem-budget; 0 = unlimited).",
          &M::mem_budget_bytes),
    Gauge("resources", "mem_pressure", "kbrepair_mem_pressure",
          "1 while the governor is shedding new sessions.",
          &M::mem_pressure),
    Counter("resources", "rejected_pressure",
            "kbrepair_rejected_pressure_total",
            "Creates shed by the memory governor.", &M::rejected_pressure),
    Counter("resources", "pressure_evictions",
            "kbrepair_pressure_evictions_total",
            "Idle sessions evicted early to relieve memory pressure.",
            &M::pressure_evictions),
    Gauge("bases", "registered", "kbrepair_bases_registered",
          "Shared base KBs currently registered.", &M::bases_registered),
    Gauge("bases", "rss_bytes", "kbrepair_base_rss_bytes",
          "Approximate resident bytes of the shared base segments.",
          &M::base_rss_bytes),
    Counter("bases", "forks", "kbrepair_base_forks_total",
            "Sessions forked from a shared base.", &M::base_forks),
    Gauge(nullptr, nullptr, nullptr, nullptr, &M::last_wal_fsync_failure_ns,
          MergeRule::kLatest),
    Gauge(nullptr, nullptr, nullptr, nullptr, &M::last_wal_disk_full_ns,
          MergeRule::kLatest),
    Histogram(nullptr, "turn_delay", "kbrepair_turn_delay_seconds",
              "Engine compute delay producing each question (Prop. 4.10's "
              "measured bound).",
              &M::turn_delay),
    Histogram(nullptr, "request_latency", "kbrepair_request_latency_seconds",
              "End-to-end per-command service time (submission to "
              "completion).",
              &M::request_latency),
    Histogram(nullptr, "queue_wait", "kbrepair_queue_wait_seconds",
              "Time a command waited in the ready queue before a worker "
              "picked it up.",
              &M::queue_wait),
    Histogram("bases", "fork_latency", "kbrepair_base_fork_latency_seconds",
              "Time to fork a session from a shared base (KB fork + census "
              "adoption).",
              &M::base_fork_latency),
};

}  // namespace

JsonValue ServiceMetrics::ToJson() const {
  // Top-level members in first-appearance order; a group is one member
  // holding its rows' keys.
  std::vector<std::pair<std::string, JsonValue>> members;
  for (const MetricRow& row : kMetricRows) {
    if (row.key == nullptr) continue;
    JsonValue value;
    switch (row.type) {
      case MetricType::kCounter:
        value = JsonValue::Number(
            (this->*row.counter).load(std::memory_order_relaxed));
        break;
      case MetricType::kGauge:
        value = JsonValue::Number(
            (this->*row.gauge).load(std::memory_order_relaxed));
        break;
      case MetricType::kHistogram:
        value = (this->*row.histogram).ToJson();
        break;
    }
    if (row.group == nullptr) {
      members.emplace_back(row.key, std::move(value));
      continue;
    }
    auto group = std::find_if(
        members.begin(), members.end(),
        [&](const auto& member) { return member.first == row.group; });
    if (group == members.end()) {
      members.emplace_back(row.group, JsonValue::Object());
      group = members.end() - 1;
    }
    group->second.Set(row.key, std::move(value));
  }

  JsonValue by_strategy = JsonValue::Object();
  for (size_t s = 0; s < kNumStrategyLabels; ++s) {
    if (!by_label[s].Touched()) continue;
    by_strategy.Set(StrategyLabelName(s), by_label[s].ToJson());
  }

  JsonValue out = JsonValue::Object();
  for (auto& [key, value] : members) out.Set(key, std::move(value));
  out.Set("by_strategy", std::move(by_strategy));
  return out;
}

void ServiceMetrics::MergeFrom(const ServiceMetrics& other) {
  const auto merge = [&](const MetricRow& row) {
    switch (row.type) {
      case MetricType::kCounter:
        (this->*row.counter)
            .fetch_add((other.*row.counter).load(std::memory_order_acquire),
                       std::memory_order_relaxed);
        break;
      case MetricType::kGauge: {
        std::atomic<int64_t>& into = this->*row.gauge;
        const int64_t from =
            (other.*row.gauge).load(std::memory_order_acquire);
        if (row.merge == MergeRule::kSum) {
          into.fetch_add(from, std::memory_order_relaxed);
          break;
        }
        int64_t seen = into.load(std::memory_order_relaxed);
        while (from > seen &&
               !into.compare_exchange_weak(seen, from,
                                           std::memory_order_relaxed)) {
        }
        break;
      }
      case MetricType::kHistogram:
        (this->*row.histogram).MergeFrom(other.*row.histogram);
        break;
    }
  };
  // The session ledger is read in the reverse of the order its writers
  // publish it: the table puts completed and evicted before active, and
  // opened is merged last. A retirement leaves `active` before it is
  // counted, and an open is counted before it joins `active`, so every
  // merged snapshot keeps active + completed + evicted <= opened.
  for (const MetricRow& row : kMetricRows) {
    if (row.counter != &M::sessions_opened) merge(row);
  }
  for (const MetricRow& row : kMetricRows) {
    if (row.counter == &M::sessions_opened) merge(row);
  }
  for (size_t s = 0; s < kNumStrategyLabels; ++s) {
    by_label[s].MergeFrom(other.by_label[s]);
  }
}

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// --- Prometheus text exposition (format 0.0.4) -------------------------

std::string FormatDoubleCompact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// {strategy="opti-mcd",phase="chase"} — empty for no labels.
std::string LabelSet(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) +
           "\"";
  }
  out += "}";
  return out;
}

// Same, with an extra `le` label appended (histogram bucket lines).
std::string LabelSetWithLe(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string& le) {
  std::string out = "{";
  for (const auto& [key, value] : labels) {
    out += key + "=\"" + EscapeLabelValue(value) + "\",";
  }
  out += "le=\"" + le + "\"}";
  return out;
}

void AppendHelpType(std::string* out, const std::string& name,
                    const std::string& help, const char* type) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " " + std::string(type) + "\n";
}

// One histogram's cumulative series under an optional label set. The
// bucket lines come from LatencyHistogram::CumulativeBuckets() — the
// same snapshot path the JSON `metrics` command renders — so the two
// surfaces agree by construction.
void AppendHistogramSeries(
    std::string* out, const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels,
    const LatencyHistogram& histogram) {
  uint64_t total = 0;
  for (const LatencyHistogram::CumulativeBucket& bucket :
       histogram.CumulativeBuckets()) {
    const std::string le = bucket.infinite
                               ? std::string("+Inf")
                               : FormatDoubleCompact(bucket.le_seconds);
    *out += name + "_bucket" + LabelSetWithLe(labels, le) + " " +
            std::to_string(bucket.cumulative_count) + "\n";
    total = bucket.cumulative_count;
  }
  *out += name + "_sum" + LabelSet(labels) + " " +
          FormatDoubleCompact(histogram.SumSeconds()) + "\n";
  // _count must equal the +Inf bucket; derive it from the same snapshot
  // rather than re-reading the (racing) count_ counter.
  *out += name + "_count" + LabelSet(labels) + " " + std::to_string(total) +
          "\n";
}

}  // namespace

void AppendPrometheusText(const ServiceMetrics& metrics, std::string* out) {
  const auto load = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };

  for (const MetricRow& row : kMetricRows) {
    if (row.prom_name == nullptr) continue;
    switch (row.type) {
      case MetricType::kCounter:
        AppendHelpType(out, row.prom_name, row.help, "counter");
        *out += std::string(row.prom_name) + " " +
                std::to_string(load(metrics.*row.counter)) + "\n";
        break;
      case MetricType::kGauge:
        AppendHelpType(out, row.prom_name, row.help, "gauge");
        *out += std::string(row.prom_name) + " " +
                std::to_string((metrics.*row.gauge)
                                   .load(std::memory_order_relaxed)) +
                "\n";
        break;
      case MetricType::kHistogram:
        AppendHelpType(out, row.prom_name, row.help, "histogram");
        AppendHistogramSeries(out, row.prom_name, {}, metrics.*row.histogram);
        break;
    }
  }

  // Per-strategy breakdown. HELP/TYPE once per metric name, then one
  // labeled series per touched strategy.
  AppendHelpType(out, "kbrepair_strategy_sessions_total",
                 "Sessions opened, by strategy.", "counter");
  AppendHelpType(out, "kbrepair_strategy_questions_total",
                 "Questions served, by strategy.", "counter");
  AppendHelpType(out, "kbrepair_strategy_answers_total",
                 "Answers applied, by strategy.", "counter");
  std::string labeled_histograms;
  AppendHelpType(&labeled_histograms, "kbrepair_strategy_turn_delay_seconds",
                 "Per-question engine delay, by strategy.", "histogram");
  std::string phase_histograms;
  AppendHelpType(&phase_histograms, "kbrepair_phase_seconds",
                 "Per-command time attributed to each pipeline phase, by "
                 "strategy.",
                 "histogram");
  bool any_phase = false;
  for (size_t s = 0; s < kNumStrategyLabels; ++s) {
    const LabeledMetrics& labeled = metrics.by_label[s];
    if (!labeled.Touched()) continue;
    const std::vector<std::pair<std::string, std::string>> labels = {
        {"strategy", StrategyLabelName(s)}};
    *out += "kbrepair_strategy_sessions_total" + LabelSet(labels) + " " +
            std::to_string(load(labeled.sessions)) + "\n";
    *out += "kbrepair_strategy_questions_total" + LabelSet(labels) + " " +
            std::to_string(load(labeled.questions)) + "\n";
    *out += "kbrepair_strategy_answers_total" + LabelSet(labels) + " " +
            std::to_string(load(labeled.answers)) + "\n";
    AppendHistogramSeries(&labeled_histograms,
                          "kbrepair_strategy_turn_delay_seconds", labels,
                          labeled.turn_delay);
    for (size_t p = 0; p < trace::kNumPhases; ++p) {
      if (labeled.phases[p].count() == 0) continue;
      any_phase = true;
      auto phase_labels = labels;
      phase_labels.emplace_back(
          "phase", trace::PhaseName(static_cast<trace::Phase>(p)));
      AppendHistogramSeries(&phase_histograms, "kbrepair_phase_seconds",
                            phase_labels, labeled.phases[p]);
    }
  }
  *out += labeled_histograms;
  if (any_phase) *out += phase_histograms;
}

void AppendShardPrometheusText(
    const std::vector<const ServiceMetrics*>& shards, std::string* out) {
  const auto load = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  struct CounterRow {
    const char* name;
    const char* help;
    std::atomic<uint64_t> ServiceMetrics::* field;
  };
  static constexpr CounterRow kRows[] = {
      {"kbrepair_shard_sessions_opened_total",
       "Sessions created on this shard.", &ServiceMetrics::sessions_opened},
      {"kbrepair_shard_sessions_completed_total",
       "Sessions closed via the close command on this shard.",
       &ServiceMetrics::sessions_completed},
      {"kbrepair_shard_sessions_evicted_total",
       "Sessions reaped by the idle TTL on this shard.",
       &ServiceMetrics::sessions_evicted},
      {"kbrepair_shard_sessions_failed_total",
       "Session failures on this shard.", &ServiceMetrics::sessions_failed},
      {"kbrepair_shard_requests_total",
       "Wire commands routed to this shard.", &ServiceMetrics::requests_total},
      {"kbrepair_shard_errors_total",
       "Commands this shard answered with an error envelope.",
       &ServiceMetrics::errors_total},
      {"kbrepair_shard_rejected_commands_total",
       "Commands this shard refused at admission.",
       &ServiceMetrics::rejected_commands},
      {"kbrepair_shard_wal_appends_total",
       "Durable WAL appends on this shard.", &ServiceMetrics::wal_appends},
  };
  // HELP/TYPE once per metric name, then one `shard="i"` line per shard
  // — interleaving the comments per shard would be an invalid
  // exposition.
  for (const CounterRow& row : kRows) {
    AppendHelpType(out, row.name, row.help, "counter");
    for (size_t i = 0; i < shards.size(); ++i) {
      *out += std::string(row.name) +
              LabelSet({{"shard", std::to_string(i)}}) + " " +
              std::to_string(load(shards[i]->*(row.field))) + "\n";
    }
  }
  AppendHelpType(out, "kbrepair_shard_sessions_active",
                 "Sessions currently registered on this shard.", "gauge");
  for (size_t i = 0; i < shards.size(); ++i) {
    *out += "kbrepair_shard_sessions_active" +
            LabelSet({{"shard", std::to_string(i)}}) + " " +
            std::to_string(
                shards[i]->sessions_active.load(std::memory_order_relaxed)) +
            "\n";
  }
  AppendHelpType(out, "kbrepair_shard_wal_degraded",
                 "1 while this shard is in disk-degraded read-only mode.",
                 "gauge");
  for (size_t i = 0; i < shards.size(); ++i) {
    *out += "kbrepair_shard_wal_degraded" +
            LabelSet({{"shard", std::to_string(i)}}) + " " +
            std::to_string(
                shards[i]->wal_degraded.load(std::memory_order_relaxed)) +
            "\n";
  }
  AppendHelpType(out, "kbrepair_shard_turn_delay_seconds",
                 "Per-question engine delay on this shard.", "histogram");
  for (size_t i = 0; i < shards.size(); ++i) {
    AppendHistogramSeries(out, "kbrepair_shard_turn_delay_seconds",
                          {{"shard", std::to_string(i)}},
                          shards[i]->turn_delay);
  }
}

}  // namespace kbrepair
