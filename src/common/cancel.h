#ifndef DAGPERF_COMMON_CANCEL_H_
#define DAGPERF_COMMON_CANCEL_H_

#include <atomic>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace dagperf {

/// Cooperative cancellation signal. A token is a cheap, copyable handle to a
/// shared flag: every copy observes the same Cancel() call, so one token can
/// be embedded in the options of an estimator, a sweep, and a ParallelFor
/// while the caller keeps a copy to fire from another thread.
///
/// Cancellation is *cooperative*: long-running loops poll cancelled() at
/// their natural step boundaries (estimator states, sweep candidates,
/// ParallelFor iterations) and unwind with Status::Cancelled. Nothing is
/// interrupted mid-step, so partial results stay consistent.
///
/// A default-constructed token is inert — cancelled() is always false and
/// costs one pointer test — so APIs can take a CancelToken by value without
/// forcing every caller to allocate one.
class CancelToken {
 public:
  /// Inert token: never cancellable, Cancel() is a no-op.
  CancelToken() = default;

  /// A live token whose copies all share one flag.
  static CancelToken Cancellable() {
    CancelToken token;
    token.state_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  /// A live token that additionally observes every parent: cancelled() is
  /// true once Cancel() was called on this token *or* on any parent.
  /// Cancelling the linked token does not propagate upward — parents stay
  /// untouched — which is how the caller's token and a service-wide
  /// shutdown token stay independent signals feeding one request-scoped
  /// token: firing shutdown never cancels the caller's token. Inert parents
  /// are skipped, so linking against a default-constructed token costs
  /// nothing.
  static CancelToken LinkedTo(std::initializer_list<CancelToken> parents) {
    CancelToken token = Cancellable();
    auto observed = std::make_shared<
        std::vector<std::shared_ptr<std::atomic<bool>>>>();
    for (const CancelToken& parent : parents) {
      if (parent.state_ != nullptr) observed->push_back(parent.state_);
      if (parent.parents_ != nullptr) {
        observed->insert(observed->end(), parent.parents_->begin(),
                         parent.parents_->end());
      }
    }
    if (!observed->empty()) token.parents_ = std::move(observed);
    return token;
  }

  /// Signals cancellation to every copy of this token. Safe to call from any
  /// thread, any number of times. No-op on an inert token. Parents of a
  /// linked token are not signalled.
  void Cancel() const {
    if (state_ != nullptr) state_->store(true, std::memory_order_release);
  }

  bool cancelled() const {
    if (state_ != nullptr && state_->load(std::memory_order_acquire)) return true;
    if (parents_ != nullptr) {
      for (const auto& parent : *parents_) {
        if (parent->load(std::memory_order_acquire)) return true;
      }
    }
    return false;
  }

  /// Whether this token can ever fire (i.e. was created via Cancellable()
  /// or LinkedTo() with at least one live parent).
  bool can_cancel() const { return state_ != nullptr || parents_ != nullptr; }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
  /// Parent flags observed by cancelled(); shared so copying a linked token
  /// copies two pointers, never the vector.
  std::shared_ptr<const std::vector<std::shared_ptr<std::atomic<bool>>>> parents_;
};

/// An absolute wall-clock budget on the monotonic clock. Default-constructed
/// deadlines never expire (expired() is a constant-false test, no clock
/// read), so embedding one in options is free for callers that do not set
/// it.
class Deadline {
 public:
  /// Never expires.
  Deadline() = default;

  static Deadline Never() { return Deadline(); }

  /// Expires `seconds` from now (0 = already expired: useful for "fail fast
  /// if any budget is needed" probes and deterministic tests).
  static Deadline AfterSeconds(double seconds);

  bool never() const {
    return deadline_us_ == std::numeric_limits<double>::infinity();
  }

  /// One clock read; always false for a never-deadline.
  bool expired() const;

  /// Seconds until expiry (negative once expired, +inf for never).
  double remaining_seconds() const;

 private:
  explicit Deadline(double deadline_us) : deadline_us_(deadline_us) {}

  /// Absolute expiry in microseconds on the monotonic clock, +inf = never.
  double deadline_us_ = std::numeric_limits<double>::infinity();
};

/// The per-step budget poll shared by the estimator, sweep, and parallel
/// loops: Ok while neither signal fired, otherwise Cancelled or
/// DeadlineExceeded naming `what` (cancellation wins ties — it is the more
/// deliberate signal). Checks the token first: that is one atomic load,
/// cheaper than the deadline's clock read.
Status CheckBudget(const CancelToken& cancel, const Deadline& deadline,
                   const std::string& what);

/// The pair every cancellable operation carries: a cooperative cancel signal
/// plus a wall-clock bound. Factored so EstimatorOptions, SweepOptions, and
/// the estimation service's request type share one vocabulary (and so a
/// budget can be handed through layers as a single value). Default = inert
/// token + never-deadline: embedding a Budget costs callers nothing.
struct Budget {
  CancelToken cancel;
  Deadline deadline;

  /// A budget that only expires (the common "serve this within D seconds"
  /// case; seconds <= 0 means no bound).
  static Budget Within(double seconds) {
    Budget budget;
    if (seconds > 0) budget.deadline = Deadline::AfterSeconds(seconds);
    return budget;
  }

  /// Cheap poll: has either signal fired? One atomic load when the deadline
  /// is never, plus one clock read otherwise.
  bool exhausted() const { return cancel.cancelled() || deadline.expired(); }

  /// Whether either signal can ever fire — used to decide if a caller's
  /// budget should override a default one.
  bool limited() const { return cancel.can_cancel() || !deadline.never(); }

  /// CheckBudget over this pair.
  Status Check(const std::string& what) const {
    return CheckBudget(cancel, deadline, what);
  }

  /// This budget, with unset signals (inert token / never-deadline) filled
  /// from `fallback` — how a batch-level budget propagates into each
  /// candidate without clobbering caller-set per-candidate signals.
  Budget MergedWith(const Budget& fallback) const {
    Budget merged = *this;
    if (!merged.cancel.can_cancel()) merged.cancel = fallback.cancel;
    if (merged.deadline.never()) merged.deadline = fallback.deadline;
    return merged;
  }
};

}  // namespace dagperf

#endif  // DAGPERF_COMMON_CANCEL_H_
