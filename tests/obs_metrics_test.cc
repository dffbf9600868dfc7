#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"

namespace dagperf {
namespace {

/// Enables metrics for the test body and restores the previous state —
/// the flag is process-wide and other tests rely on the default (off).
class ScopedMetrics {
 public:
  ScopedMetrics() : was_enabled_(obs::MetricsEnabled()) {
    obs::SetMetricsEnabled(true);
  }
  ~ScopedMetrics() { obs::SetMetricsEnabled(was_enabled_); }

 private:
  bool was_enabled_;
};

TEST(ObsMetricsTest, DisabledRecordingIsANoOp) {
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram histogram;
  ASSERT_FALSE(obs::MetricsEnabled());
  counter.Add(7);
  gauge.Set(3.5);
  histogram.Record(1.0);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.Snap().count, 0u);
}

TEST(ObsMetricsTest, HandlesRegisteredWhileDisabledGoLiveOnEnable) {
  obs::Counter& counter =
      obs::MetricsRegistry::Default().GetCounter("test.pre_registered");
  counter.Add(1);  // Dropped: disabled.
  EXPECT_EQ(counter.value(), 0u);
  {
    ScopedMetrics on;
    counter.Add(2);
  }
  EXPECT_EQ(counter.value(), 2u);
  counter.Reset();
}

TEST(ObsMetricsTest, HistogramBucketBoundaries) {
  EXPECT_EQ(obs::Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(-5.0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(1.0), obs::Histogram::kZeroBucket);
  EXPECT_EQ(obs::Histogram::BucketIndex(2.0), obs::Histogram::kZeroBucket + 1);
  EXPECT_EQ(obs::Histogram::BucketIndex(0.5), obs::Histogram::kZeroBucket - 1);
  EXPECT_EQ(obs::Histogram::BucketIndex(1e300), obs::Histogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketLowerBound(obs::Histogram::kZeroBucket),
                   1.0);
  // Every finite positive value lands in the bucket covering it.
  for (double v : {1e-6, 0.02, 0.9, 1.0, 3.7, 1000.0, 1e9}) {
    const int i = obs::Histogram::BucketIndex(v);
    EXPECT_GE(v, obs::Histogram::BucketLowerBound(i)) << v;
    if (i + 1 < obs::Histogram::kBuckets) {
      EXPECT_LT(v, obs::Histogram::BucketLowerBound(i + 1)) << v;
    }
  }
}

TEST(ObsMetricsTest, HistogramQuantileIsWithinBucketCoveringTheMass) {
  ScopedMetrics on;
  obs::Histogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Record(10.0);
  const obs::Histogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.sum, 1000.0);
  const double p50 = snap.Quantile(0.5);
  // The geometric-midpoint estimate stays within the covering bucket.
  EXPECT_GE(p50, 8.0);
  EXPECT_LE(p50, 16.0);
}

// The TSan-targeted hammer: many pool threads pounding one counter and one
// histogram. Counters must be exact and histogram totals conserved (count ==
// records, sum == sum of recorded values, bucket counts sum to count).
TEST(ObsMetricsTest, ConcurrentRecordingConservesTotals) {
  ScopedMetrics on;
  obs::Counter& counter =
      obs::MetricsRegistry::Default().GetCounter("test.hammer_counter");
  obs::Histogram& histogram =
      obs::MetricsRegistry::Default().GetHistogram("test.hammer_histogram");
  counter.Reset();
  histogram.Reset();

  constexpr std::int64_t kIterations = 20000;
  ThreadPool pool(8);
  ParallelFor(
      0, kIterations,
      [&](std::int64_t i) {
        counter.Add(1);
        // Values 1, 2 and 4 are exactly representable, so the atomic
        // double sum must come out exact whatever the interleaving.
        histogram.Record(static_cast<double>(1 << (i % 3)));
      },
      &pool);

  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kIterations));
  const obs::Histogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kIterations));
  double expected_sum = 0.0;
  for (std::int64_t i = 0; i < kIterations; ++i) expected_sum += 1 << (i % 3);
  EXPECT_DOUBLE_EQ(snap.sum, expected_sum);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

// Concurrent first-time registration of the same name must yield one metric.
TEST(ObsMetricsTest, ConcurrentRegistrationYieldsOneHandle) {
  ScopedMetrics on;
  std::vector<obs::Counter*> handles(64, nullptr);
  ThreadPool pool(8);
  ParallelFor(
      0, static_cast<std::int64_t>(handles.size()),
      [&](std::int64_t i) {
        obs::Counter& c =
            obs::MetricsRegistry::Default().GetCounter("test.race_registration");
        c.Add(1);
        handles[static_cast<size_t>(i)] = &c;
      },
      &pool);
  for (const obs::Counter* h : handles) EXPECT_EQ(h, handles[0]);
  EXPECT_EQ(handles[0]->value(), handles.size());
  handles[0]->Reset();
}

TEST(ObsMetricsTest, ThreadPoolInstrumentationCountsTasks) {
  ScopedMetrics on;
  obs::Counter& executed =
      obs::MetricsRegistry::Default().GetCounter("pool.tasks_executed");
  const std::uint64_t before = executed.value();
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { ran.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(executed.value() - before, 100u);
}

TEST(ObsMetricsTest, RegistryJsonParsesAndCarriesValues) {
  ScopedMetrics on;
  obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter("test.json");
  counter.Reset();
  counter.Add(5);
  obs::MetricsRegistry::Default().GetGauge("test.json_gauge").Set(2.25);
  obs::MetricsRegistry::Default().GetHistogram("test.json_hist").Record(3.0);

  const Result<Json> doc = Json::Parse(obs::MetricsRegistry::Default().ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc->GetBool("metrics_enabled", false));
  const Json* counters = doc->Get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetNumber("test.json", -1), 5);
  const Json* gauges = doc->Get("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->GetNumber("test.json_gauge", -1), 2.25);
  const Json* histograms = doc->Get("histograms");
  ASSERT_NE(histograms, nullptr);
  const Json* hist = histograms->Get("test.json_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->GetNumber("count", 0), 1);
  counter.Reset();
}

TEST(ObsMetricsTest, ResetAllZeroesEverythingButKeepsHandles) {
  ScopedMetrics on;
  obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter("test.reset");
  counter.Add(3);
  obs::MetricsRegistry::Default().ResetAll();
  EXPECT_EQ(counter.value(), 0u);
  counter.Add(1);
  EXPECT_EQ(counter.value(), 1u);
  counter.Reset();
}

}  // namespace
}  // namespace dagperf
