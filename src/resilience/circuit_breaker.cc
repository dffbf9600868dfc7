#include "resilience/circuit_breaker.h"

#include <algorithm>

#include "obs/metrics.h"

namespace dagperf {
namespace resilience {

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(options) {
  options_.open_seconds = std::max(0.0, options_.open_seconds);
}

void CircuitBreaker::TransitionLocked(BreakerState next) {
  if (state_ == next) return;
  state_ = next;
  ++stats_.transitions;
  if (next == BreakerState::kOpen) {
    ++stats_.opens;
    reopen_ = Deadline::AfterSeconds(options_.open_seconds);
  }
  probe_inflight_ = false;
  if (next == BreakerState::kClosed) consecutive_failures_ = 0;
  static obs::Counter* transitions =
      &obs::MetricsRegistry::Default().GetCounter(
          "resilience.breaker_transitions");
  transitions->Add(1);
}

Status CircuitBreaker::Allow() {
  if (options_.failure_threshold <= 0) return Status::Ok();
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == BreakerState::kOpen) {
    if (!reopen_.expired()) {
      ++stats_.rejected;
      return Status::Unavailable("circuit breaker open");
    }
    TransitionLocked(BreakerState::kHalfOpen);
  }
  if (state_ == BreakerState::kHalfOpen) {
    if (probe_inflight_) {
      ++stats_.rejected;
      return Status::Unavailable("circuit breaker half-open, probe in flight");
    }
    probe_inflight_ = true;
  }
  ++stats_.allowed;
  return Status::Ok();
}

void CircuitBreaker::RecordSuccess() {
  if (options_.failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.successes;
  consecutive_failures_ = 0;
  // A successful probe proves the path healthy again.
  if (state_ == BreakerState::kHalfOpen) TransitionLocked(BreakerState::kClosed);
}

void CircuitBreaker::RecordFailure() {
  if (options_.failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.failures;
  if (state_ == BreakerState::kHalfOpen) {
    // A failed probe proves the path is still unhealthy: straight back to
    // open, fresh cooldown.
    TransitionLocked(BreakerState::kOpen);
    return;
  }
  if (state_ == BreakerState::kClosed &&
      ++consecutive_failures_ >= options_.failure_threshold) {
    TransitionLocked(BreakerState::kOpen);
  }
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

CircuitBreaker::Stats CircuitBreaker::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace resilience
}  // namespace dagperf
