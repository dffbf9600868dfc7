#ifndef DAGPERF_RESILIENCE_CIRCUIT_BREAKER_H_
#define DAGPERF_RESILIENCE_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <mutex>

#include "common/cancel.h"
#include "common/status.h"

namespace dagperf {
namespace resilience {

/// Circuit breaker guarding a failure-prone path. Its one user is the
/// router's passive shard scoring (router::ShardHealth): transport failures
/// talking to a shard process are what open it.
///
/// States:
///   kClosed   — traffic flows; `failure_threshold` *consecutive* failures
///               trip the breaker.
///   kOpen     — Allow() fails fast with UNAVAILABLE{retryable} for
///               `open_seconds`, shedding work from a path that is only
///               producing failures.
///   kHalfOpen — after the cooldown, one call is admitted as a probe; its
///               success closes the breaker, its failure re-opens it.
enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

struct CircuitBreakerOptions {
  /// Consecutive failures that open the breaker. <= 0 disables it entirely
  /// (Allow always Ok, Record* are no-ops) so call sites need no branch.
  int failure_threshold = 5;
  /// How long an open breaker rejects before probing.
  double open_seconds = 1.0;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerOptions options = {});

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Gate before the guarded call: Ok to proceed (and, half-open, claims the
  /// probe slot), or Unavailable{retryable} naming the remaining cooldown.
  /// Every Ok *must* be matched by exactly one RecordSuccess/RecordFailure.
  Status Allow();

  void RecordSuccess();
  void RecordFailure();

  BreakerState state() const;

  struct Stats {
    std::uint64_t allowed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t failures = 0;
    std::uint64_t successes = 0;
    std::uint64_t opens = 0;
    /// Every state change (open + half-open + close), not just opens.
    std::uint64_t transitions = 0;
  };
  Stats stats() const;

 private:
  void TransitionLocked(BreakerState next);

  CircuitBreakerOptions options_;
  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  bool probe_inflight_ = false;
  Deadline reopen_;
  Stats stats_;
};

}  // namespace resilience
}  // namespace dagperf

#endif  // DAGPERF_RESILIENCE_CIRCUIT_BREAKER_H_
