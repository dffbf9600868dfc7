#ifndef DAGPERF_RESILIENCE_OVERLOAD_H_
#define DAGPERF_RESILIENCE_OVERLOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>

namespace dagperf {
namespace resilience {

/// CoDel-style overload control with a brownout degradation ladder.
///
/// The controller watches queue sojourn time (submit -> execute-start) the
/// way CoDel watches packet delay: within each observation interval it keeps
/// the *minimum* sojourn seen — the minimum, not the mean, because a queue
/// that fully drains at least once per interval is merely bursty, while a
/// queue whose best case still exceeds the target is genuinely standing.
/// Consecutive bad intervals step a degradation level up (0..max_level);
/// consecutive good intervals step it back down. The levels gate what the
/// serving layer sheds and how much work it still does per answer:
///
///   level 0  healthy    full-fidelity answers, admit everything
///   level 1  pressure   shed expensive (cold, large) work; disable
///                       bottleneck attribution on served answers
///   level 2  overload   additionally cap the estimator's max_states
///   level 3  brownout   serve warm / incremental answers only;
///                       everything cold is shed
///
/// Answers served at level >= 1 are tagged degraded (wire field
/// `degraded: true`); shed responses carry RESOURCE_EXHAUSTED with a
/// `retry_after_ms` hint from RetryAfterMs(). The ladder (not a binary
/// on/off switch) is what makes recovery stable: each step down restores a
/// little work per request, so the service ramps back to full fidelity
/// instead of oscillating between "healthy" and "drowning".
///
/// All time flows in through explicit `now_us` parameters (the service
/// passes obs::MonotonicUs()), which keeps tests deterministic.
struct OverloadOptions {
  /// Sojourn target: intervals whose *minimum* sojourn exceeds this are
  /// counted against the service (CoDel's target). Must be > 0 for the
  /// controller to act; the service leaves the controller out entirely when
  /// its own overload knob is unset.
  double target_sojourn_ms = 50.0;

  /// Observation interval (CoDel's initial interval). Longer intervals react
  /// slower but see through burstier arrival patterns.
  double interval_ms = 100.0;

  /// Consecutive above-target intervals per step *up* the ladder.
  int escalate_after = 3;

  /// Consecutive below-target intervals per step *down*. Larger than
  /// escalate_after by default: entering brownout fast and leaving it slowly
  /// damps oscillation under saw-toothed load.
  int recover_after = 5;

  /// Deepest ladder level (1..3). 3 enables the full ladder above.
  int max_level = 3;

  /// Floor of the retry hint attached to shed responses; the hint doubles
  /// per ladder level so retries thin out as pressure deepens.
  double retry_after_floor_ms = 25.0;
};

class OverloadController {
 public:
  explicit OverloadController(OverloadOptions options = {});

  /// Feeds one request's queue sojourn, observed at `now_us`. Closes the
  /// current observation interval (and possibly transitions the level) when
  /// `now_us` has passed its end. Thread-safe.
  void ObserveSojourn(double sojourn_ms, double now_us);

  /// Current ladder level, 0 (healthy) .. max_level. Lock-free.
  int level() const { return level_.load(std::memory_order_acquire); }

  /// Admission decision for an arriving request. `warm` = the serving layer
  /// expects to answer from warm state (prefix checkpoints);
  /// `expensive` = a cold request whose pre-estimate crosses the cost
  /// threshold. Levels 1-2 shed expensive work; level 3 sheds everything
  /// cold. Never sheds warm work — warm answers are what brownout exists to
  /// keep serving.
  bool ShouldShed(bool warm, bool expensive) const;

  /// Suggested earliest-retry hint for a shed response:
  /// retry_after_floor_ms * 2^level, so backed-off clients thin out as the
  /// ladder deepens.
  double RetryAfterMs() const;

  /// Called by the serving layer when it sheds a request on this
  /// controller's advice (feeds Stats and the overload.shed counter).
  void RecordShed();

  /// Observes level transitions (from, to) — the service pins them into the
  /// flight recorder. Invoked under the controller's mutex; the callback
  /// must only take leaf locks. Set before serving traffic.
  void SetTransitionCallback(std::function<void(int, int)> callback);

  /// Pins the ladder to a level and suspends interval-driven transitions —
  /// tests exercise the shedding/degradation policy without replaying a
  /// realistic load pattern. Passing -1 returns control to the sojourn
  /// signal.
  void ForceLevelForTest(int level);

  struct Stats {
    int level = 0;
    std::uint64_t shed = 0;
    std::uint64_t escalations = 0;
    std::uint64_t recoveries = 0;
    /// Minimum sojourn of the last *closed* interval, ms (-1 before any
    /// interval closed).
    double last_interval_min_ms = -1.0;
  };
  Stats stats() const;

  const OverloadOptions& options() const { return options_; }

 private:
  void CloseInterval(double now_us);  // mutex_ held
  void SetLevel(int next);            // mutex_ held

  OverloadOptions options_;
  mutable std::mutex mutex_;
  std::atomic<int> level_{0};
  bool forced_ = false;
  double window_end_us_ = 0.0;
  double window_min_ms_ = -1.0;
  double last_interval_min_ms_ = -1.0;
  int bad_intervals_ = 0;
  int good_intervals_ = 0;
  std::uint64_t escalations_ = 0;
  std::uint64_t recoveries_ = 0;
  std::atomic<std::uint64_t> shed_{0};
  std::function<void(int, int)> on_transition_;
};

}  // namespace resilience
}  // namespace dagperf

#endif  // DAGPERF_RESILIENCE_OVERLOAD_H_
