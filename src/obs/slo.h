#ifndef DAGPERF_OBS_SLO_H_
#define DAGPERF_OBS_SLO_H_

#include <array>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/window.h"

namespace dagperf {
namespace obs {

/// Sliding-window SLO tracking for the serving path.
///
/// Objectives are declarative ("p99 under 250 ms", "99.9% of requests
/// succeed"); the tracker turns the request stream into windowed evidence
/// for or against them: per-op-class latency histograms and outcome
/// counters over 10s / 1m / 5m windows, plus burn rates — how fast the
/// error budget is being consumed relative to the objective (1.0 = burning
/// exactly at budget; >1 = the objective will be missed if this keeps up).
///
/// Recording shares the WindowedHistogram discipline: writer-slot lanes
/// (obs/writer_slot.h), gated on the process-wide metrics flag, one relaxed
/// load when disarmed.

/// Operation classes tracked separately — the protocol ops with distinct
/// latency profiles. kOther absorbs everything else.
enum class OpClass : std::uint8_t {
  kEstimate = 0,
  kExplain = 1,
  kSweep = 2,
  kOther = 3,
};
inline constexpr int kOpClassCount = 4;

const char* OpClassName(OpClass op);
OpClass OpClassFor(const std::string& op_name);

/// The windows every SLO quantity is reported over.
inline constexpr std::array<double, 3> kSloWindowsSeconds = {10.0, 60.0,
                                                             300.0};

struct SloObjectives {
  /// Target p99 latency in milliseconds; <= 0 disables the latency SLO.
  double p99_ms = 0.0;
  /// Target success fraction in (0, 1), e.g. 0.999; <= 0 disables.
  double availability = 0.0;

  bool latency_enabled() const { return p99_ms > 0.0; }
  bool availability_enabled() const {
    return availability > 0.0 && availability < 1.0;
  }
};

class SloTracker {
 public:
  explicit SloTracker(SloObjectives objectives = {},
                      WindowOptions window = {});

  /// Records one finished request. `latency_ms` is end-to-end (queue wait
  /// included — that is what the caller experienced). Disarmed cost: one
  /// relaxed load per windowed primitive touched.
  void RecordOutcome(OpClass op, double latency_ms, bool ok, bool had_deadline,
                     bool deadline_met) {
    RecordOutcome(op, latency_ms, ok, had_deadline, deadline_met,
                  MonotonicUs());
  }
  void RecordOutcome(OpClass op, double latency_ms, bool ok, bool had_deadline,
                     bool deadline_met, double now_us);

  struct WindowReport {
    double window_seconds = 0.0;
    std::uint64_t count = 0;
    std::uint64_t errors = 0;
    std::uint64_t deadline_total = 0;  // Requests that carried a deadline.
    std::uint64_t deadline_met = 0;
    double rps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double mean_ms = 0.0;
    double error_rate = 0.0;         // errors / count (0 when empty).
    double deadline_hit_rate = 1.0;  // met / carried (1 when none carried).
    /// Fraction of requests over the p99 objective (bucket resolution).
    double frac_over_objective = 0.0;
    /// Error-budget burn rates; 0 when the objective is disabled or the
    /// window is empty. availability: error_rate / (1 - objective).
    /// latency: frac_over_objective / 0.01 (a p99 objective budgets 1%).
    double availability_burn = 0.0;
    double latency_burn = 0.0;
  };

  struct ClassReport {
    OpClass op = OpClass::kOther;
    std::array<WindowReport, kSloWindowsSeconds.size()> windows{};
  };

  struct Report {
    SloObjectives objectives;
    /// Aggregate across all op classes, then one entry per class.
    std::array<WindowReport, kSloWindowsSeconds.size()> total{};
    std::array<ClassReport, kOpClassCount> by_class{};
  };

  Report Snapshot() const { return Snapshot(MonotonicUs()); }
  Report Snapshot(double now_us) const;

  /// Pushes the aggregate 1m-window figures into MetricsRegistry as
  /// `slo.*` gauges (p99_ms_1m, error_rate_1m, deadline_hit_rate_1m,
  /// availability_burn_1m, latency_burn_1m) so generic metric sinks —
  /// Prometheus export included — see SLO state without knowing this type.
  void PublishGauges(const Report& report) const;

  const SloObjectives& objectives() const { return objectives_; }

 private:
  struct PerClass {
    WindowedHistogram latency_ms;
    WindowedCounter errors;
    WindowedCounter deadline_total;
    WindowedCounter deadline_met;

    explicit PerClass(WindowOptions window)
        : latency_ms(window),
          errors(window),
          deadline_total(window),
          deadline_met(window) {}
  };

  WindowReport MakeWindowReport(const PerClass& c, double window_seconds,
                                double now_us) const;

  SloObjectives objectives_;
  WindowOptions window_;
  std::array<PerClass, kOpClassCount> classes_;
};

}  // namespace obs
}  // namespace dagperf

#endif  // DAGPERF_OBS_SLO_H_
