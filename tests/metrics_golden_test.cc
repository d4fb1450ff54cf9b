// Golden renderings of the service metrics: the JSON `metrics` payload
// and the Prometheus exposition of a fully populated single-shard
// ServiceMetrics, and of a three-shard aggregate (MergeFrom) plus its
// per-shard exposition, byte for byte against
// tests/data/metrics_golden.txt. Every counter, gauge and histogram
// carries a distinct value, so a renamed key, a reordered row, a wrong
// merge rule or a changed HELP text all show up as a diff.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "service/metrics.h"

#ifndef KBREPAIR_METRICS_GOLDEN_FILE
#error "KBREPAIR_METRICS_GOLDEN_FILE must be defined by the build"
#endif

namespace kbrepair {
namespace {

// Fills every field of `m` with values derived from `base`, so each
// shard of a merge contributes distinguishable amounts.
void Populate(ServiceMetrics& m, uint64_t base) {
  uint64_t next = base;
  const auto counter = [&next](std::atomic<uint64_t>& field) {
    field.store(next++);
  };
  const auto gauge = [&next](std::atomic<int64_t>& field) {
    field.store(static_cast<int64_t>(next++));
  };
  counter(m.sessions_opened);
  counter(m.sessions_completed);
  counter(m.sessions_evicted);
  counter(m.sessions_failed);
  gauge(m.sessions_active);
  counter(m.questions_served);
  counter(m.answers_applied);
  counter(m.requests_total);
  counter(m.errors_total);
  counter(m.rejected_overload);
  counter(m.rejected_commands);
  counter(m.deadline_exceeded);
  counter(m.wal_appends);
  counter(m.wal_fsync_failures);
  ++next;  // a retired counter's slot: later fields keep their values
  counter(m.transcript_write_failures);
  counter(m.sessions_recovered);
  counter(m.engine_rebuilds);
  counter(m.worker_stalls);
  gauge(m.bases_registered);
  gauge(m.base_rss_bytes);
  counter(m.base_forks);
  counter(m.wal_disk_full_failures);
  counter(m.rejected_degraded);
  gauge(m.wal_degraded);
  gauge(m.mem_estimated_bytes);
  gauge(m.mem_budget_bytes);
  gauge(m.mem_pressure);
  counter(m.rejected_pressure);
  counter(m.pressure_evictions);
  gauge(m.last_wal_fsync_failure_ns);
  gauge(m.last_wal_disk_full_ns);

  const double scale = static_cast<double>(base);
  LatencyHistogram* histograms[] = {&m.turn_delay, &m.request_latency,
                                    &m.queue_wait, &m.base_fork_latency};
  for (size_t h = 0; h < 4; ++h) {
    for (int k = 1; k <= 3 + static_cast<int>(h); ++k) {
      histograms[h]->Observe(scale * 1e-6 * k * (h + 2));
    }
  }
  // Two touched strategies, one with phase histograms.
  for (const size_t s : {size_t{1}, size_t{3}}) {
    LabeledMetrics& labeled = m.ForLabels(s);
    labeled.sessions.store(base + s);
    labeled.questions.store(base + 10 * s);
    labeled.answers.store(base + 20 * s);
    labeled.turn_delay.Observe(scale * 2e-5 * static_cast<double>(s));
    if (s == 3) {
      labeled.phases[static_cast<size_t>(trace::Phase::kChase)].Observe(
          scale * 3e-6);
      labeled.phases[static_cast<size_t>(trace::Phase::kWalAppend)].Observe(
          scale * 7e-5);
    }
  }
}

std::string Render() {
  std::string out;
  ServiceMetrics single;
  Populate(single, 100);
  out += "## single json\n" + single.ToJson().Dump() + "\n";
  out += "## single prometheus\n";
  AppendPrometheusText(single, &out);

  ServiceMetrics shards[3];
  std::vector<const ServiceMetrics*> views;
  ServiceMetrics aggregate;
  for (size_t i = 0; i < 3; ++i) {
    Populate(shards[i], 1000 * (i + 1) + 7 * i);
    views.push_back(&shards[i]);
    aggregate.MergeFrom(shards[i]);
  }
  out += "## merged json\n" + aggregate.ToJson().Dump() + "\n";
  out += "## merged prometheus\n";
  AppendPrometheusText(aggregate, &out);
  out += "## shard prometheus\n";
  AppendShardPrometheusText(views, &out);
  return out;
}

TEST(MetricsGoldenTest, RenderingsMatchGolden) {
  std::ifstream in(KBREPAIR_METRICS_GOLDEN_FILE);
  ASSERT_TRUE(in.good()) << "cannot open " << KBREPAIR_METRICS_GOLDEN_FILE;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), Render());
}

}  // namespace
}  // namespace kbrepair
