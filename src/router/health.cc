#include "router/health.h"

namespace dagperf {
namespace router {

const char* ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kUp:
      return "up";
    case ShardState::kDraining:
      return "draining";
    case ShardState::kDown:
      return "down";
  }
  return "unknown";
}

ShardHealth::ShardHealth(const ShardHealthOptions& options)
    : options_(options),
      breaker_({.failure_threshold = options.breaker_failure_threshold,
                .open_seconds = options.breaker_open_seconds}) {
  if (options_.readmit_quorum < 1) options_.readmit_quorum = 1;
}

void ShardHealth::MarkDown() {
  state_ = ShardState::kDown;
  probe_streak_ = 0;
}

void ShardHealth::MarkDraining() {
  state_ = ShardState::kDraining;
  probe_streak_ = 0;
}

bool ShardHealth::FeedBreaker(bool success) {
  // Allow() is the breaker's bookkeeping entry point; a rejection while the
  // cooldown runs means "still considered failing" and records nothing (the
  // contract pairs every Ok Allow with exactly one Record).
  if (!breaker_.Allow().ok()) return false;
  if (success) {
    breaker_.RecordSuccess();
  } else {
    breaker_.RecordFailure();
  }
  return true;
}

bool ShardHealth::RecordProbe(bool ok) {
  FeedBreaker(ok);
  if (!ok) {
    probe_streak_ = 0;
    if (state_ == ShardState::kUp &&
        breaker_.state() == resilience::BreakerState::kOpen) {
      MarkDown();
    }
    return false;
  }
  ++probe_streak_;
  if (state_ == ShardState::kDown &&
      probe_streak_ >= options_.readmit_quorum) {
    state_ = ShardState::kUp;
    return true;
  }
  return false;
}

bool ShardHealth::RecordDataPath(const Status& status) {
  FeedBreaker(status.ok());
  if (!status.ok() && state_ == ShardState::kUp &&
      breaker_.state() == resilience::BreakerState::kOpen) {
    MarkDown();
    return true;
  }
  return false;
}

}  // namespace router
}  // namespace dagperf
