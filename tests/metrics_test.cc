// Invariant and regression tests for the service metric primitives.
//
// The regression cases reproduce the pre-fix LatencyHistogram bugs:
// quantiles reported the raw bucket upper bound (so p95 could exceed
// the largest observation, and q=0 reported ~2 µs regardless of the
// data), the bucket scan hard-coded 40 instead of kNumBuckets, and
// Observe truncated seconds*1e6 instead of rounding.

#include "service/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace kbrepair {
namespace {

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.MeanSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.QuantileSeconds(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.MinSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.MaxSeconds(), 0.0);
}

TEST(LatencyHistogramTest, RegressionQuantileNeverExceedsMax) {
  // 3 µs samples land in the [2, 4) µs bucket; the old QuantileSeconds
  // returned the bucket's 4 µs upper bound for every quantile, so the
  // reported p95 exceeded the largest observation ever made.
  LatencyHistogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Observe(3e-6);
  EXPECT_DOUBLE_EQ(histogram.MaxSeconds(), 3e-6);
  EXPECT_LE(histogram.QuantileSeconds(0.95), histogram.MaxSeconds());
  EXPECT_GE(histogram.QuantileSeconds(0.95), histogram.MinSeconds());
  EXPECT_DOUBLE_EQ(histogram.QuantileSeconds(0.95), 3e-6);
}

TEST(LatencyHistogramTest, RegressionZeroQuantileReportsMinNotBucketBound) {
  LatencyHistogram histogram;
  histogram.Observe(1e-3);  // 1000 µs
  // The old implementation computed a target rank of 0 for q=0, which
  // the very first (empty) bucket satisfied — reporting ~2 µs no matter
  // what was observed.
  EXPECT_DOUBLE_EQ(histogram.QuantileSeconds(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(histogram.QuantileSeconds(1.0), 1e-3);
}

TEST(LatencyHistogramTest, QuantileClampsToMinForSmallSamples) {
  // A 1 µs sample sits in bucket [1, 2); the raw upper bound (2 µs)
  // must be reported, but never below the observed minimum and never
  // above the observed maximum.
  LatencyHistogram histogram;
  histogram.Observe(1e-6);
  histogram.Observe(10e-6);
  const double p25 = histogram.QuantileSeconds(0.25);
  EXPECT_GE(p25, histogram.MinSeconds());
  EXPECT_LE(p25, histogram.MaxSeconds());
}

TEST(LatencyHistogramTest, BucketForMicrosCoversFullRange) {
  EXPECT_EQ(LatencyHistogram::BucketForMicros(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketForMicros(1), 0u);
  EXPECT_EQ(LatencyHistogram::BucketForMicros(2), 1u);
  EXPECT_EQ(LatencyHistogram::BucketForMicros(3), 1u);
  EXPECT_EQ(LatencyHistogram::BucketForMicros(4), 2u);
  EXPECT_EQ(LatencyHistogram::BucketForMicros(7), 2u);
  EXPECT_EQ(LatencyHistogram::BucketForMicros(8), 3u);
  // The tail bucket absorbs everything beyond the bucketed range; the
  // scan is bounded by kNumBuckets (previously a hard-coded 40 that
  // silently depended on the array size).
  EXPECT_EQ(LatencyHistogram::BucketForMicros(UINT64_MAX),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(LatencyHistogramTest, ObserveRoundsToNearestMicrosecond) {
  // 2.6 µs must round to 3 µs; the old truncation biased the mean (and
  // min/max) low by up to a microsecond, which is material for the
  // sub-microsecond deltas the phase histograms record.
  LatencyHistogram histogram;
  histogram.Observe(2.6e-6);
  EXPECT_DOUBLE_EQ(histogram.MaxSeconds(), 3e-6);
  EXPECT_DOUBLE_EQ(histogram.MeanSeconds(), 3e-6);
}

TEST(LatencyHistogramTest, NegativeObservationsClampToZero) {
  LatencyHistogram histogram;
  histogram.Observe(-1.0);
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_DOUBLE_EQ(histogram.MaxSeconds(), 0.0);
}

// Property: under arbitrary observation streams the reported order
// statistics are coherent — min ≤ p10 ≤ p50 ≤ p95 ≤ max — and the
// bucket counters account for every observation.
TEST(LatencyHistogramTest, PropertyQuantilesMonotoneUnderRandomStreams) {
  Rng rng(20180326);
  for (int trial = 0; trial < 200; ++trial) {
    LatencyHistogram histogram;
    const size_t n = 1 + rng.UniformIndex(300);
    for (size_t i = 0; i < n; ++i) {
      // Log-uniform over ~9 decades: sub-microsecond to kiloseconds.
      const double exponent = -7.0 + 10.0 * rng.UniformDouble();
      histogram.Observe(std::pow(10.0, exponent));
    }
    const double min = histogram.MinSeconds();
    const double p10 = histogram.QuantileSeconds(0.10);
    const double p50 = histogram.QuantileSeconds(0.50);
    const double p95 = histogram.QuantileSeconds(0.95);
    const double max = histogram.MaxSeconds();
    EXPECT_LE(min, p10) << "trial " << trial << " n=" << n;
    EXPECT_LE(p10, p50) << "trial " << trial << " n=" << n;
    EXPECT_LE(p50, p95) << "trial " << trial << " n=" << n;
    EXPECT_LE(p95, max) << "trial " << trial << " n=" << n;

    uint64_t bucket_sum = 0;
    for (const uint64_t c : histogram.BucketCounts()) bucket_sum += c;
    EXPECT_EQ(bucket_sum, histogram.count());
    EXPECT_EQ(histogram.count(), n);
  }
}

TEST(LabeledMetricsTest, UntouchedPairsAreSkippedInServiceJson) {
  ServiceMetrics metrics;
  JsonValue empty = metrics.ToJson();
  EXPECT_TRUE(empty.Get("by_strategy").is_object());
  EXPECT_EQ(empty.Get("by_strategy").size(), 0u);

  LabeledMetrics& labeled = metrics.ForLabels(3);  // opti-mcd
  labeled.sessions.fetch_add(1);
  labeled.answers.fetch_add(2);
  labeled.turn_delay.Observe(0.25);
  labeled.phases[static_cast<size_t>(trace::Phase::kChase)].Observe(0.1);

  JsonValue out = metrics.ToJson();
  const JsonValue& slot =
      out.Get("by_strategy").Get("opti-mcd");
  ASSERT_TRUE(slot.is_object());
  EXPECT_EQ(slot.Get("sessions").AsInt(-1), 1);
  EXPECT_EQ(slot.Get("answers").AsInt(-1), 2);
  EXPECT_EQ(slot.Get("turn_delay").Get("count").AsInt(-1), 1);
  EXPECT_EQ(slot.Get("phase_chase").Get("count").AsInt(-1), 1);
  // Phases without observations stay out of the output.
  EXPECT_TRUE(slot.Get("phase_wal_append").is_null());
}

TEST(LabeledMetricsTest, ForLabelsGuardsOutOfRangeIndices) {
  ServiceMetrics metrics;
  // Out-of-range indices wrap instead of indexing out of bounds; the
  // session layer only hands in enum values, this is belt-and-braces.
  metrics.ForLabels(kNumStrategyLabels + 1).sessions.fetch_add(1);
  EXPECT_EQ(metrics.by_label[1].sessions.load(), 1u);
}

TEST(LabeledMetricsTest, LabelNamesAreStable) {
  EXPECT_STREQ(StrategyLabelName(0), "random");
  EXPECT_STREQ(StrategyLabelName(1), "opti-join");
  EXPECT_STREQ(StrategyLabelName(2), "opti-prop");
  EXPECT_STREQ(StrategyLabelName(3), "opti-mcd");
  EXPECT_STREQ(StrategyLabelName(4), "opti-learn");
  EXPECT_STREQ(StrategyLabelName(99), "unknown");
}

TEST(CumulativeBucketsTest, UpperBoundsArePowersOfTwoWithUnboundedTail) {
  EXPECT_EQ(LatencyHistogram::BucketUpperBoundMicros(0), 2u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBoundMicros(1), 4u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBoundMicros(10), 2048u);
  for (size_t i = 0; i + 1 < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::BucketUpperBoundMicros(i),
              uint64_t{1} << (i + 1));
  }
  // The tail bucket is unbounded — it must never advertise a finite le.
  EXPECT_EQ(
      LatencyHistogram::BucketUpperBoundMicros(LatencyHistogram::kNumBuckets -
                                               1),
      UINT64_MAX);
}

TEST(CumulativeBucketsTest, EmptyHistogramIsOneZeroInfBucket) {
  LatencyHistogram histogram;
  const auto buckets = histogram.CumulativeBuckets();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_TRUE(buckets[0].infinite);
  EXPECT_EQ(buckets[0].cumulative_count, 0u);
}

// Property: for arbitrary streams the cumulative rendering is monotone
// non-decreasing, ends in a +Inf bucket equal to count(), uses the
// published power-of-two upper bounds, and trims trailing-empty finite
// buckets (so the exposition never pads dozens of identical lines).
TEST(CumulativeBucketsTest, PropertyMonotoneAndConsistentWithCount) {
  Rng rng(424242);
  for (int trial = 0; trial < 100; ++trial) {
    LatencyHistogram histogram;
    const size_t n = 1 + rng.UniformIndex(200);
    for (size_t i = 0; i < n; ++i) {
      const double exponent = -7.0 + 9.0 * rng.UniformDouble();
      histogram.Observe(std::pow(10.0, exponent));
    }
    const auto buckets = histogram.CumulativeBuckets();
    ASSERT_GE(buckets.size(), 1u);
    uint64_t prev = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      EXPECT_GE(buckets[i].cumulative_count, prev) << "trial " << trial;
      prev = buckets[i].cumulative_count;
      if (i + 1 < buckets.size()) {
        EXPECT_FALSE(buckets[i].infinite);
        EXPECT_DOUBLE_EQ(
            buckets[i].le_seconds,
            static_cast<double>(LatencyHistogram::BucketUpperBoundMicros(i)) /
                1e6);
      }
    }
    EXPECT_TRUE(buckets.back().infinite);
    EXPECT_EQ(buckets.back().cumulative_count, histogram.count());
    // Trimming: the last finite bucket (if any) is non-empty, i.e. it
    // added something over its predecessor.
    if (buckets.size() >= 2) {
      const uint64_t last_finite = buckets[buckets.size() - 2].cumulative_count;
      const uint64_t before = buckets.size() >= 3
                                  ? buckets[buckets.size() - 3].cumulative_count
                                  : 0;
      EXPECT_GT(last_finite, before) << "trial " << trial;
    }
  }
}

TEST(CumulativeBucketsTest, ToJsonBucketsRenderTheSameSnapshotPath) {
  LatencyHistogram histogram;
  histogram.Observe(3e-6);
  histogram.Observe(50e-6);
  histogram.Observe(2e-3);
  const auto buckets = histogram.CumulativeBuckets();
  const JsonValue json = histogram.ToJson();
  const JsonValue& rendered = json.Get("buckets");
  ASSERT_TRUE(rendered.is_array());
  ASSERT_EQ(rendered.size(), buckets.size());
  for (size_t i = 0; i < buckets.size(); ++i) {
    const JsonValue& entry = rendered.at(i);
    EXPECT_EQ(entry.Get("count").AsInt(-1),
              static_cast<int64_t>(buckets[i].cumulative_count));
    if (buckets[i].infinite) {
      EXPECT_EQ(entry.Get("le_ms").AsString(), "+Inf");
    } else {
      EXPECT_NEAR(entry.Get("le_ms").AsDouble(-1),
                  buckets[i].le_seconds * 1e3, 1e-9);
    }
  }
  EXPECT_EQ(rendered.at(rendered.size() - 1).Get("count").AsInt(-1),
            static_cast<int64_t>(histogram.count()));
}

TEST(PrometheusTextTest, ExpositionCountEqualsInfBucketAndJsonCount) {
  ServiceMetrics metrics;
  for (int i = 0; i < 7; ++i) metrics.turn_delay.Observe(1e-3 * (i + 1));
  metrics.questions_served.fetch_add(7);
  std::string body;
  AppendPrometheusText(metrics, &body);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.back(), '\n');
  EXPECT_NE(body.find("# TYPE kbrepair_turn_delay_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      body.find("kbrepair_turn_delay_seconds_bucket{le=\"+Inf\"} 7\n"),
      std::string::npos);
  EXPECT_NE(body.find("kbrepair_turn_delay_seconds_count 7\n"),
            std::string::npos);
  EXPECT_NE(body.find("kbrepair_questions_served_total 7\n"),
            std::string::npos);
  EXPECT_EQ(metrics.turn_delay.ToJson().Get("count").AsInt(-1), 7);
}

}  // namespace
}  // namespace kbrepair
