#include "obs/window.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/slo.h"
#include "obs/writer_slot.h"

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

TEST(WindowedHistogramTest, DisabledRecordingIsANoOp) {
  obs::WindowedHistogram histogram;
  ASSERT_FALSE(obs::MetricsEnabled());
  histogram.Record(5.0, /*now_us=*/1e6);
  EXPECT_EQ(histogram.Snap(60.0, 1e6).count, 0u);
}

TEST(WindowedHistogramTest, EmptyWindowQuantileIsZero) {
  ScopedMetrics on;
  obs::WindowedHistogram histogram;
  const obs::Histogram::Snapshot snap = histogram.Snap(10.0, /*now_us=*/1e6);
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.Quantile(0.99), 0.0);
  EXPECT_EQ(snap.mean(), 0.0);
}

TEST(WindowedHistogramTest, OverflowAndUnderflowLandInEdgeBuckets) {
  ScopedMetrics on;
  obs::WindowedHistogram histogram;
  const double now = 1e6;
  histogram.Record(1e300, now);   // Beyond the top bucket's range.
  histogram.Record(-3.0, now);    // Non-positive: bucket 0.
  histogram.Record(0.0, now);     // Non-positive: bucket 0.
  const obs::Histogram::Snapshot snap = histogram.Snap(10.0, now);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.buckets[obs::Histogram::kBuckets - 1], 1u);
  EXPECT_EQ(snap.buckets[0], 2u);
  // The quantile of an overflow-heavy window still answers with the top
  // bucket's midpoint instead of infinity or a crash.
  EXPECT_GT(snap.Quantile(0.99), 0.0);
}

TEST(WindowedHistogramTest, SamplesExpireWithTheirEpochs) {
  ScopedMetrics on;
  obs::WindowedHistogram histogram;  // 5 s epochs.
  double now = 100e6;
  histogram.Record(4.0, now);
  EXPECT_EQ(histogram.Snap(10.0, now).count, 1u);
  // 8 s later the sample's epoch is outside a 5 s lookback but inside 15 s.
  now += 8e6;
  EXPECT_EQ(histogram.Snap(5.0, now).count, 0u);
  EXPECT_EQ(histogram.Snap(15.0, now).count, 1u);
  // Far enough ahead, every window is empty again.
  now += 400e6;
  EXPECT_EQ(histogram.Snap(300.0, now).count, 0u);
}

TEST(WindowedHistogramTest, RingRecyclesSlotsAfterFullRotation) {
  ScopedMetrics on;
  obs::WindowedHistogram histogram;  // 64 slots x 5 s = 320 s of ring.
  const double start = 10e6;
  histogram.Record(1.0, start);
  // One epoch beyond a full rotation reuses the first sample's slot.
  const double wrapped = start + (obs::kWindowEpochs + 1) * 5e6;
  histogram.Record(2.0, wrapped);
  const obs::Histogram::Snapshot snap = histogram.Snap(1000.0, wrapped);
  // The old sample was recycled away even though the window asked for
  // everything: only live epochs inside the ring are summed.
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 2.0);
}

TEST(WindowedCounterTest, SumsOnlyTheRequestedWindow) {
  ScopedMetrics on;
  obs::WindowedCounter counter;
  double now = 50e6;
  counter.Add(3, now);
  now += 6e6;  // Next epoch.
  counter.Add(5, now);
  EXPECT_EQ(counter.Sum(5.0, now), 5u);
  EXPECT_EQ(counter.Sum(60.0, now), 8u);
}

// Concurrent writers racing an epoch rotation: total counts must be
// conserved (no sample lost, none double counted). Run under TSan by the
// sanitizer CI job.
TEST(WindowedHistogramTest, ConcurrentWritersAcrossRotationConserveSamples) {
  ScopedMetrics on;
  obs::WindowedHistogram histogram;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  const double base = 1e6;
  std::atomic<int> barrier{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, &barrier, base, t] {
      barrier.fetch_add(1);
      while (barrier.load() < kThreads) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        // Timestamps sweep across ~8 epoch boundaries while all threads
        // hammer, forcing rotations to race recordings.
        const double now =
            base + (static_cast<double>(i) / kPerThread) * 40e6 + t * 1e3;
        histogram.Record(1.0, now);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const obs::Histogram::Snapshot snap =
      histogram.Snap(300.0, base + 40e6);
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.sum, static_cast<double>(kThreads) * kPerThread);
}

// Three times as many writers as there are writer slots, all alive at
// once: those beyond the slots share one lane under a mutex, and every
// sample still counts once.
TEST(WindowedHistogramTest, MoreThreadsThanWriterSlotsConserveSamples) {
  ScopedMetrics on;
  obs::WindowedHistogram histogram;
  obs::WindowedCounter counter;
  constexpr int kThreads = 3 * obs::kWriterSlots;
  constexpr int kPerThread = 2000;
  const double base = 1e6;
  std::atomic<int> arrived{0};
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        const double now =
            base + (static_cast<double>(i) / kPerThread) * 20e6 + t * 1e3;
        histogram.Record(2.0, now);
        counter.Add(1, now);
      }
      done.fetch_add(1);
      while (done.load() < kThreads) std::this_thread::yield();
    });
  }
  for (std::thread& thread : threads) thread.join();
  const obs::Histogram::Snapshot snap = histogram.Snap(300.0, base + 20e6);
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.sum, 2.0 * kThreads * kPerThread);
  EXPECT_EQ(counter.Sum(300.0, base + 20e6),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(SloTrackerTest, ReportsWindowedLatencyAndBurnRates) {
  ScopedMetrics on;
  obs::SloObjectives objectives;
  objectives.p99_ms = 10.0;
  objectives.availability = 0.99;
  obs::SloTracker tracker(objectives);
  double now = 1e6;
  // 8 fast successes, 1 slow success (over the p99 objective), 1 error.
  for (int i = 0; i < 8; ++i) {
    tracker.RecordOutcome(obs::OpClass::kEstimate, 2.0, true, true, true, now);
  }
  tracker.RecordOutcome(obs::OpClass::kEstimate, 50.0, true, true, true, now);
  tracker.RecordOutcome(obs::OpClass::kEstimate, 3.0, false, true, false, now);

  const obs::SloTracker::Report report = tracker.Snapshot(now);
  const obs::SloTracker::WindowReport& w10 = report.total[0];
  EXPECT_EQ(w10.window_seconds, 10.0);
  EXPECT_EQ(w10.count, 10u);
  EXPECT_EQ(w10.errors, 1u);
  EXPECT_DOUBLE_EQ(w10.error_rate, 0.1);
  EXPECT_DOUBLE_EQ(w10.rps, 1.0);
  EXPECT_DOUBLE_EQ(w10.deadline_hit_rate, 0.9);
  // 1 of 10 over the 10 ms objective (bucket resolution keeps it exact here:
  // 50 ms and 10 ms land in different pow-2 buckets).
  EXPECT_NEAR(w10.frac_over_objective, 0.1, 1e-9);
  // availability burn: 0.1 error rate against a 1% budget = 10x.
  EXPECT_NEAR(w10.availability_burn, 10.0, 1e-9);
  // latency burn: 10% over-objective against the 1% a p99 target budgets.
  EXPECT_NEAR(w10.latency_burn, 10.0, 1e-6);
  // Per-class attribution: all traffic was kEstimate.
  EXPECT_EQ(report.by_class[0].windows[0].count, 10u);
  EXPECT_EQ(report.by_class[1].windows[0].count, 0u);

  // Outside the 10 s window the evidence expires; the 5 m window keeps it.
  now += 30e6;
  const obs::SloTracker::Report later = tracker.Snapshot(now);
  EXPECT_EQ(later.total[0].count, 0u);
  EXPECT_EQ(later.total[0].deadline_hit_rate, 1.0);  // Vacuous when empty.
  EXPECT_EQ(later.total[2].count, 10u);
}

TEST(SloTrackerTest, PublishGaugesExportsAggregates) {
  ScopedMetrics on;
  obs::SloTracker tracker;
  const double now = 1e6;
  tracker.RecordOutcome(obs::OpClass::kSweep, 5.0, true, false, true, now);
  tracker.PublishGauges(tracker.Snapshot(now));
  obs::Gauge& rps = obs::MetricsRegistry::Default().GetGauge("slo.rps_1m");
  EXPECT_GT(rps.value(), 0.0);
  obs::Gauge& hit =
      obs::MetricsRegistry::Default().GetGauge("slo.deadline_hit_rate_1m");
  EXPECT_EQ(hit.value(), 1.0);
}

TEST(SloTrackerTest, OpClassMapping) {
  EXPECT_EQ(obs::OpClassFor("estimate"), obs::OpClass::kEstimate);
  EXPECT_EQ(obs::OpClassFor("explain"), obs::OpClass::kExplain);
  EXPECT_EQ(obs::OpClassFor("sweep"), obs::OpClass::kSweep);
  EXPECT_EQ(obs::OpClassFor("stats"), obs::OpClass::kOther);
  EXPECT_STREQ(obs::OpClassName(obs::OpClass::kEstimate), "estimate");
}

}  // namespace
}  // namespace dagperf
