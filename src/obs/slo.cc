#include "obs/slo.h"

#include <algorithm>

namespace dagperf {
namespace obs {

namespace {

/// Fraction of samples strictly above the bucket holding `threshold`.
/// Resolution is the log2 bucket width — good enough for burn alerts,
/// documented in docs/observability.md.
double FractionOver(const Histogram::Snapshot& snap, double threshold) {
  if (snap.count == 0) return 0.0;
  const int limit = Histogram::BucketIndex(threshold);
  std::uint64_t over = 0;
  for (int b = limit + 1; b < Histogram::kBuckets; ++b) {
    over += snap.buckets[static_cast<std::size_t>(b)];
  }
  return static_cast<double>(over) / static_cast<double>(snap.count);
}

struct RawWindow {
  Histogram::Snapshot latency;
  std::uint64_t total = 0;
  std::uint64_t errors = 0;
  std::uint64_t deadline_total = 0;
  std::uint64_t deadline_met = 0;

  void Accumulate(const RawWindow& other) {
    latency.count += other.latency.count;
    latency.sum += other.latency.sum;
    for (std::size_t b = 0; b < other.latency.buckets.size(); ++b) {
      latency.buckets[b] += other.latency.buckets[b];
    }
    total += other.total;
    errors += other.errors;
    deadline_total += other.deadline_total;
    deadline_met += other.deadline_met;
  }
};

}  // namespace

const char* OpClassName(OpClass op) {
  switch (op) {
    case OpClass::kEstimate: return "estimate";
    case OpClass::kExplain: return "explain";
    case OpClass::kSweep: return "sweep";
    case OpClass::kOther: break;
  }
  return "other";
}

OpClass OpClassFor(const std::string& op_name) {
  if (op_name == "estimate") return OpClass::kEstimate;
  if (op_name == "explain") return OpClass::kExplain;
  if (op_name == "sweep") return OpClass::kSweep;
  return OpClass::kOther;
}

SloTracker::SloTracker(SloObjectives objectives, WindowOptions window)
    : objectives_(objectives),
      window_(window),
      classes_{PerClass(window), PerClass(window), PerClass(window),
               PerClass(window)} {
  static_assert(kOpClassCount == 4, "keep the initializer list in sync");
}

void SloTracker::RecordOutcome(OpClass op, double latency_ms, bool ok,
                               bool had_deadline, bool deadline_met,
                               double now_us) {
  if (!internal::Enabled()) return;
  PerClass& c = classes_[static_cast<std::size_t>(op)];
  if (!ok) c.errors.Add(1, now_us);
  if (had_deadline) {
    c.deadline_total.Add(1, now_us);
    if (deadline_met) c.deadline_met.Add(1, now_us);
  }
  // The latency histogram's windowed count doubles as the request count —
  // one fewer windowed counter on the per-request hot path.
  c.latency_ms.Record(latency_ms, now_us);
}

namespace {

SloTracker::WindowReport FinishReport(const RawWindow& raw,
                                      double window_seconds,
                                      const SloObjectives& objectives) {
  SloTracker::WindowReport report;
  report.window_seconds = window_seconds;
  report.count = raw.total;
  report.errors = raw.errors;
  report.deadline_total = raw.deadline_total;
  report.deadline_met = raw.deadline_met;
  report.rps =
      window_seconds > 0.0 ? static_cast<double>(raw.total) / window_seconds
                           : 0.0;
  report.p50_ms = raw.latency.Quantile(0.5);
  report.p99_ms = raw.latency.Quantile(0.99);
  report.mean_ms = raw.latency.mean();
  if (raw.total > 0) {
    report.error_rate =
        static_cast<double>(raw.errors) / static_cast<double>(raw.total);
  }
  if (raw.deadline_total > 0) {
    report.deadline_hit_rate = static_cast<double>(raw.deadline_met) /
                               static_cast<double>(raw.deadline_total);
  }
  if (objectives.latency_enabled()) {
    report.frac_over_objective = FractionOver(raw.latency, objectives.p99_ms);
    report.latency_burn = report.frac_over_objective / 0.01;
  }
  if (objectives.availability_enabled() && raw.total > 0) {
    report.availability_burn =
        report.error_rate / (1.0 - objectives.availability);
  }
  return report;
}

}  // namespace

SloTracker::Report SloTracker::Snapshot(double now_us) const {
  Report report;
  report.objectives = objectives_;
  for (std::size_t w = 0; w < kSloWindowsSeconds.size(); ++w) {
    const double window_seconds = kSloWindowsSeconds[w];
    RawWindow total_raw;
    for (int c = 0; c < kOpClassCount; ++c) {
      const PerClass& pc = classes_[static_cast<std::size_t>(c)];
      RawWindow raw;
      raw.latency = pc.latency_ms.Snap(window_seconds, now_us);
      raw.total = raw.latency.count;
      raw.errors = pc.errors.Sum(window_seconds, now_us);
      raw.deadline_total = pc.deadline_total.Sum(window_seconds, now_us);
      raw.deadline_met = pc.deadline_met.Sum(window_seconds, now_us);
      report.by_class[static_cast<std::size_t>(c)].op = static_cast<OpClass>(c);
      report.by_class[static_cast<std::size_t>(c)].windows[w] =
          FinishReport(raw, window_seconds, objectives_);
      total_raw.Accumulate(raw);
    }
    report.total[w] = FinishReport(total_raw, window_seconds, objectives_);
  }
  return report;
}

void SloTracker::PublishGauges(const Report& report) const {
  if (!internal::Enabled()) return;
  auto& registry = MetricsRegistry::Default();
  // Index 1 == the 60 s window.
  const WindowReport& minute = report.total[1];
  registry.GetGauge("slo.p50_ms_1m").Set(minute.p50_ms);
  registry.GetGauge("slo.p99_ms_1m").Set(minute.p99_ms);
  registry.GetGauge("slo.rps_1m").Set(minute.rps);
  registry.GetGauge("slo.error_rate_1m").Set(minute.error_rate);
  registry.GetGauge("slo.deadline_hit_rate_1m").Set(minute.deadline_hit_rate);
  registry.GetGauge("slo.availability_burn_1m").Set(minute.availability_burn);
  registry.GetGauge("slo.latency_burn_1m").Set(minute.latency_burn);
}

}  // namespace obs
}  // namespace dagperf
