#ifndef DAGPERF_OBS_METRICS_H_
#define DAGPERF_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dagperf {
namespace obs {

/// Process-wide metrics switch. Metrics are OFF by default: every recording
/// primitive first does one relaxed atomic-bool load and returns, so the
/// disabled cost of an instrumented hot path is a branch — no clocks, no
/// contended writes, no allocation (guarded by bench_overhead's BENCH_obs
/// "off ~= free" measurement). Handles can be looked up and held while
/// disabled; enabling later makes them live without re-registration.
void SetMetricsEnabled(bool enabled);
bool MetricsEnabled();

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
inline bool Enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}
}  // namespace internal

/// Monotonically increasing event count. Lock-free; exact under concurrency.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    if (!internal::Enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, hit rate, ...).
class Gauge {
 public:
  void Set(double v) {
    if (!internal::Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution of positive samples over fixed logarithmic buckets.
///
/// Bucket i covers [2^(i - kZeroBucket), 2^(i + 1 - kZeroBucket)), so the
/// domain spans ~1e-10 .. ~4e9 in whatever unit the caller records
/// (microseconds for all library latency histograms). Samples at or below 0
/// land in bucket 0; samples beyond the top land in the last bucket. The
/// fast path is one exponent extraction plus two relaxed atomic adds —
/// lock-free, and totals are conserved exactly under contention (count and
/// per-bucket sums are integer atomics; `sum` uses atomic double fetch_add).
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr int kZeroBucket = 32;

  void Record(double value);

  /// Lower bound of bucket i in recorded units.
  static double BucketLowerBound(int i);
  /// Bucket a value would land in (exposed for tests).
  static int BucketIndex(double value) {
    if (!(value > 0.0)) return 0;
    // The biased exponent field: floor(log2 v) for normal v (what ilogb
    // returns, without the libm call); subnormals read -1023 and infinity
    // 1024, which the clamps below map to the first and last bucket.
    const int exp =
        static_cast<int>((std::bit_cast<std::uint64_t>(value) >> 52) & 0x7ff) -
        1023;
    const int bucket = exp + kZeroBucket;
    if (bucket < 0) return 0;
    if (bucket >= kBuckets) return kBuckets - 1;
    return bucket;
  }

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
    /// Approximate quantile (geometric midpoint of the covering bucket).
    double Quantile(double q) const;
  };
  Snapshot Snap() const;
  void Reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Named metric directory. Registration (Get*) takes a mutex and returns a
/// reference that stays valid for the registry's lifetime — call sites look
/// a handle up once (static local or member) and record through it
/// lock-free. One name space per metric kind.
class MetricsRegistry {
 public:
  /// The process-wide registry used by all library instrumentation. Never
  /// destroyed (leaked singleton) so handles outlive static teardown.
  static MetricsRegistry& Default();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };
  Snapshot Snap() const;

  /// Zeroes every registered metric (handles stay valid).
  void ResetAll();

  /// Serialises a snapshot as a JSON object:
  ///   {"metrics_enabled": bool, "counters": {...}, "gauges": {...},
  ///    "histograms": {name: {count, sum, mean, p50, p95, p99,
  ///                          buckets: [[lower_bound, count], ...]}}}
  /// Self-contained (obs does not depend on common/json); output parses
  /// with any JSON parser.
  std::string ToJson() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Microseconds on the monotonic clock since process start — the timebase
/// shared by metrics call sites and trace spans so latency histograms and
/// exported traces line up.
double MonotonicUs();

}  // namespace obs
}  // namespace dagperf

#endif  // DAGPERF_OBS_METRICS_H_
