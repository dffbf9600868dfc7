#ifndef DAGPERF_ROUTER_HEALTH_H_
#define DAGPERF_ROUTER_HEALTH_H_

#include "resilience/circuit_breaker.h"

namespace dagperf {
namespace router {

/// Shard lifecycle as the router sees it.
///
///            probe quorum                    drain verb / SIGTERM
///   kDown ────────────────▶ kUp ────────────────────────▶ kDraining
///     ▲                      │                                │
///     │   process exit /     │                                │ child
///     └── breaker open ──────┘◀── (no path back: a draining ──┘ exits
///                                  shard leaves the fleet)
///
/// kUp shards are in the ring and serve traffic. kDraining shards are out
/// of the ring but still finishing in-flight work (and saving their final
/// snapshot). kDown shards are out of the ring; the supervisor restarts
/// them and the health loop readmits only after `readmit_quorum`
/// *consecutive* successful probes — one lucky probe against a process
/// that is still restoring its snapshot must not pull traffic early.
enum class ShardState { kUp = 0, kDraining = 1, kDown = 2 };

const char* ShardStateName(ShardState state);

struct ShardHealthOptions {
  /// Consecutive successful `stats` probes required to readmit a kDown
  /// shard to the ring.
  int readmit_quorum = 2;
  /// Passive scoring: transport failures (error/timeout/closed) before the
  /// breaker opens and the shard is marked down. <= 0 disables passive
  /// demotion (probes and process exits still drive the state machine).
  int breaker_failure_threshold = 3;
  /// Cooldown before the breaker lets a probe through again.
  double breaker_open_seconds = 0.25;
};

/// Per-shard health: a passive error-scoring circuit breaker fused with the
/// active-probe state machine above. Not thread-safe; the router guards all
/// shard state with one mutex.
class ShardHealth {
 public:
  explicit ShardHealth(const ShardHealthOptions& options = {});

  ShardState state() const { return state_; }

  /// Process exit, SIGKILL observed by the supervisor, or passive breaker
  /// trip. Resets the probe quorum counter.
  void MarkDown();

  /// Graceful drain has been requested; the shard will not come back.
  void MarkDraining();

  /// Feeds one active health-check outcome. While kDown, `readmit_quorum`
  /// consecutive successes flip the shard to kUp and return true (exactly
  /// once per readmission). A failed probe in any state resets the streak;
  /// while kUp it also counts against the passive breaker and can demote
  /// the shard.
  bool RecordProbe(bool ok);

  /// Passive scoring for data-path outcomes: Ok responses close the
  /// breaker, transport failures (any non-Ok status) count toward the
  /// demotion threshold. Returns true when this failure tripped the breaker
  /// and demoted the shard to kDown.
  bool RecordDataPath(const Status& status);

  int consecutive_probe_successes() const { return probe_streak_; }
  const resilience::CircuitBreaker& breaker() const { return breaker_; }

 private:
  /// The breaker expects Allow/Record pairs; health scoring only needs its
  /// failure-counting and cooldown bookkeeping, so every Record is preceded
  /// by an Allow whose verdict is folded into "is the shard down".
  bool FeedBreaker(bool success);

  ShardHealthOptions options_;
  resilience::CircuitBreaker breaker_;
  ShardState state_ = ShardState::kDown;  // starts down until first quorum
  int probe_streak_ = 0;
};

}  // namespace router
}  // namespace dagperf

#endif  // DAGPERF_ROUTER_HEALTH_H_
