// Tests of the resilience layer (src/resilience/): deterministic fault
// injection (same seed => same fire pattern), retry with jittered backoff,
// circuit-breaker state transitions, the request watchdog, and their
// integration into the estimation service (watchdog cancellation mapped to
// DEADLINE_EXCEEDED, bounded shutdown mapped to UNAVAILABLE, per-cluster
// breakers fast-failing while open).

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "resilience/circuit_breaker.h"
#include "resilience/fault.h"
#include "resilience/retry.h"
#include "service/service.h"
#include "workloads/suite.h"

namespace dagperf {
namespace {

using resilience::BreakerState;
using resilience::CircuitBreaker;
using resilience::CircuitBreakerOptions;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultPoint;
using resilience::RetryOptions;
using resilience::RetryPolicy;

/// Every test that touches the (process-global) injector goes through this
/// guard so a failing assertion cannot leak an armed schedule into the next
/// test.
struct InjectorReset {
  InjectorReset() { FaultInjector::Default().ResetAll(); }
  ~InjectorReset() { FaultInjector::Default().ResetAll(); }
};

std::vector<int> FiredIndices(FaultPoint& point, int evaluations) {
  std::vector<int> fired;
  for (int i = 0; i < evaluations; ++i) {
    if (point.Evaluate().fired) fired.push_back(i);
  }
  return fired;
}

TEST(FaultInjector, DisarmedPointIsFreeAndNeverFires) {
  InjectorReset guard;
  FaultPoint& point = FaultInjector::Default().GetPoint("test.disarmed");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(point.Evaluate().fired);
  }
  // Disarmed evaluations do not even count (the armed path owns counters).
  EXPECT_EQ(point.evaluations(), 0u);
}

TEST(FaultInjector, SameSeedSameFirePattern) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(
      injector.Configure("test.pattern", {.probability = 0.3}).ok());
  FaultPoint& point = injector.GetPoint("test.pattern");

  injector.Arm(1234);
  const std::vector<int> first = FiredIndices(point, 200);
  injector.Arm(1234);  // Re-arming restarts the schedule.
  const std::vector<int> second = FiredIndices(point, 200);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.size(), 30u);  // ~60 expected at p=0.3.
  EXPECT_LT(first.size(), 120u);

  injector.Arm(99);
  const std::vector<int> other_seed = FiredIndices(point, 200);
  EXPECT_NE(first, other_seed);
}

TEST(FaultInjector, SkipFirstAndMaxFiresBoundTheSchedule) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(injector
                  .Configure("test.bounded", {.probability = 1.0,
                                              .max_fires = 3,
                                              .skip_first = 5})
                  .ok());
  FaultPoint& point = injector.GetPoint("test.bounded");
  injector.Arm(1);
  const std::vector<int> fired = FiredIndices(point, 20);
  EXPECT_EQ(fired, (std::vector<int>{5, 6, 7}));
  EXPECT_EQ(point.fires(), 3u);
}

TEST(FaultInjector, InjectedStatusCarriesThePlannedCode) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(injector
                  .Configure("test.error", {.probability = 1.0,
                                            .error = ErrorCode::kUnavailable})
                  .ok());
  injector.Arm(7);
  const Status injected =
      resilience::InjectAt(injector.GetPoint("test.error"));
  EXPECT_EQ(injected.code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(injected.code()));

  injector.Disarm();
  EXPECT_TRUE(resilience::InjectAt(injector.GetPoint("test.error")).ok());
}

TEST(FaultInjector, ConfigureRejectsMalformedPlans) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  EXPECT_EQ(injector.Configure("", {.probability = 0.5}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(injector.Configure("x", {.probability = 1.5}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(injector.Configure("x", {.probability = -0.1}).code(),
            ErrorCode::kInvalidArgument);
  FaultPlan negative_latency;
  negative_latency.probability = 0.5;
  negative_latency.latency_ms = -1;
  EXPECT_EQ(injector.Configure("x", negative_latency).code(),
            ErrorCode::kInvalidArgument);
}

TEST(FaultInjector, ThreadPoolSubmitSeamFiresThroughTheHook) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(injector.Configure("pool.submit", {.probability = 1.0}).ok());
  injector.Arm(5);
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([] {});
    }
    pool.Wait();
  }
  EXPECT_GE(injector.GetPoint("pool.submit").fires(), 8u);
  injector.Disarm();
  const std::uint64_t after_disarm = injector.GetPoint("pool.submit").fires();
  {
    ThreadPool pool(2);
    pool.Submit([] {});
    pool.Wait();
  }
  EXPECT_EQ(injector.GetPoint("pool.submit").fires(), after_disarm);
}

TEST(RetryPolicy, RetriesRetryableUntilSuccess) {
  RetryPolicy retry({.max_attempts = 5, .initial_backoff_ms = 0.0});
  int calls = 0;
  Result<int> result = retry.Run<int>([&]() -> Result<int> {
    ++calls;
    if (calls < 3) return Status::ResourceExhausted("shed");
    return 42;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retry.stats().retries, 2u);
  EXPECT_EQ(retry.stats().gave_up, 0u);
}

TEST(RetryPolicy, NonRetryableFailsImmediately) {
  RetryPolicy retry({.max_attempts = 5, .initial_backoff_ms = 0.0});
  int calls = 0;
  const Status status = retry.RunStatus([&] {
    ++calls;
    return Status::InvalidArgument("bad request");
  });
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retry.stats().retries, 0u);
}

TEST(RetryPolicy, GivesUpAfterMaxAttempts) {
  RetryPolicy retry({.max_attempts = 3, .initial_backoff_ms = 0.0});
  int calls = 0;
  const Status status = retry.RunStatus([&] {
    ++calls;
    return Status::Unavailable("still down");
  });
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retry.stats().gave_up, 1u);
  EXPECT_EQ(retry.stats().retries, 2u);
}

TEST(RetryPolicy, ExhaustedBudgetStopsRetrying) {
  RetryPolicy retry({.max_attempts = 100, .initial_backoff_ms = 0.0});
  Budget budget;
  budget.deadline = Deadline::AfterSeconds(0);  // Already expired.
  int calls = 0;
  const Status status = retry.RunStatus(
      [&] {
        ++calls;
        return Status::Unavailable("down");
      },
      budget);
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retry.stats().gave_up, 1u);
}

TEST(RetryPolicy, BackoffIsJitteredWithinTheExponentialCap) {
  RetryPolicy retry({.max_attempts = 4,
                     .initial_backoff_ms = 10.0,
                     .max_backoff_ms = 50.0,
                     .multiplier = 2.0,
                     .seed = 42});
  for (int trial = 0; trial < 50; ++trial) {
    EXPECT_GE(retry.NextBackoffMs(0), 0.0);
    EXPECT_LE(retry.NextBackoffMs(0), 10.0);
    EXPECT_LE(retry.NextBackoffMs(1), 20.0);
    EXPECT_LE(retry.NextBackoffMs(10), 50.0);  // Clamped to max.
  }
  // Full jitter: draws differ (same policy, advancing stream).
  RetryPolicy a({.seed = 42});
  EXPECT_NE(a.NextBackoffMs(3), a.NextBackoffMs(3));
  // Same seed, fresh policy: reproducible.
  RetryPolicy b({.seed = 42});
  RetryPolicy c({.seed = 42});
  EXPECT_EQ(b.NextBackoffMs(3), c.NextBackoffMs(3));
}

TEST(RetryPolicy, BackoffOverflowStaysFiniteAndCapped) {
  // multiplier^retry overflows double to +inf long before retry counts get
  // exotic; the max_backoff clamp must win over the overflow, never produce
  // a NaN/inf sleep.
  RetryPolicy retry({.max_attempts = 4,
                     .initial_backoff_ms = 10.0,
                     .max_backoff_ms = 50.0,
                     .multiplier = 2.0,
                     .seed = 7});
  for (const int huge : {64, 1024, 1 << 20, std::numeric_limits<int>::max()}) {
    const double sleep_ms = retry.NextBackoffMs(huge);
    EXPECT_TRUE(std::isfinite(sleep_ms)) << huge;
    EXPECT_GE(sleep_ms, 0.0) << huge;
    EXPECT_LE(sleep_ms, 50.0) << huge;
  }
  // Negative retry numbers (defensive: callers count from 0) clamp too.
  EXPECT_LE(retry.NextBackoffMs(-5), 10.0);
}

TEST(RetryPolicy, ServerRetryHintFloorsTheBackoffSleep) {
  // A shed response's retry_after_ms is a floor under the jittered sleep:
  // with jitter drawn from [0, 10) the only way the retry waits >= 50ms is
  // the server hint.
  RetryPolicy retry({.max_attempts = 3, .initial_backoff_ms = 10.0});
  int calls = 0;
  const auto start = std::chrono::steady_clock::now();
  const Status status = retry.RunStatus([&] {
    ++calls;
    if (calls == 1) {
      return Status::ResourceExhausted("shed").WithRetryAfterMs(50.0);
    }
    return Status::Ok();
  });
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 2);
  EXPECT_GE(elapsed_ms, 45.0) << "hint must floor the sleep";
  EXPECT_EQ(retry.stats().retries, 1u);
}

TEST(RetryPolicy, BudgetCapBeatsTheServerHint) {
  // A hostile/huge hint must not sleep past the deadline: the remaining
  // budget still caps the sleep so the final attempt gets wall-clock.
  RetryPolicy retry({.max_attempts = 3, .initial_backoff_ms = 1.0});
  Budget budget;
  budget.deadline = Deadline::AfterSeconds(0.2);
  int calls = 0;
  const auto start = std::chrono::steady_clock::now();
  const Status status = retry.RunStatus(
      [&] {
        ++calls;
        if (calls == 1) {
          return Status::ResourceExhausted("shed").WithRetryAfterMs(60000.0);
        }
        return Status::Ok();
      },
      budget);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 2);
  EXPECT_LT(elapsed_ms, 1000.0) << "a 60s hint must be capped by the budget";
}

TEST(RetryPolicy, RetriesCounterTicksWhenMetricsEnabled) {
  obs::SetMetricsEnabled(true);
  obs::Counter& counter =
      obs::MetricsRegistry::Default().GetCounter("resilience.retries");
  const std::uint64_t before = counter.value();
  RetryPolicy retry({.max_attempts = 3, .initial_backoff_ms = 0.0});
  int calls = 0;
  (void)retry.RunStatus([&] {
    ++calls;
    return calls < 3 ? Status::Unavailable("x") : Status::Ok();
  });
  EXPECT_EQ(counter.value(), before + 2);
  obs::SetMetricsEnabled(false);
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresAndRejectsRetryably) {
  CircuitBreaker breaker({.failure_threshold = 3, .open_seconds = 60.0});
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  const Status rejected = breaker.Allow();
  EXPECT_EQ(rejected.code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(rejected.code()));
  EXPECT_EQ(breaker.stats().opens, 1u);
  EXPECT_EQ(breaker.stats().rejected, 1u);
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount) {
  CircuitBreaker breaker({.failure_threshold = 2});
  breaker.Allow().ok();
  breaker.RecordFailure();
  breaker.Allow().ok();
  breaker.RecordSuccess();  // Streak broken.
  breaker.Allow().ok();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, HalfOpenProbeClosesOrReopens) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_seconds = 0.02;
  {
    CircuitBreaker breaker(options);
    ASSERT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure();
    ASSERT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_FALSE(breaker.Allow().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    // Cooldown over: one probe is admitted, a second is rejected while the
    // first is still in flight.
    ASSERT_TRUE(breaker.Allow().ok());
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
    EXPECT_FALSE(breaker.Allow().ok());
    breaker.RecordSuccess();
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  }
  {
    CircuitBreaker breaker(options);
    ASSERT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure();
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    ASSERT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure();  // Probe failed: straight back to open.
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_FALSE(breaker.Allow().ok());
  }
}

TEST(CircuitBreaker, DisabledBreakerIsTransparent) {
  CircuitBreaker breaker({.failure_threshold = 0});
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// Service integration.

DagWorkflow TestFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  EXPECT_TRUE(named.ok()) << named.status().ToString();
  return std::move(named).value().flow;
}

/// A task-time source whose queries block until Open() — parks service
/// workers mid-estimate so deadline and shutdown behaviour can be observed
/// with requests genuinely in flight.
class GateSource : public TaskTimeSource {
 public:
  Duration TaskTime(const EstimationContext&) const override {
    std::unique_lock lock(mutex_);
    ++entered_;
    entered_cv_.notify_all();
    open_cv_.wait(lock, [&] { return open_; });
    return Duration::Seconds(1);
  }

  void Open() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    open_cv_.notify_all();
  }

  void WaitUntilEntered(int count) const {
    std::unique_lock lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= count; });
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable open_cv_;
  mutable std::condition_variable entered_cv_;
  mutable bool open_ = false;
  mutable int entered_ = 0;
};

TEST(ServiceResilience, RequestHeldPastItsDeadlineIsDeadlineExceeded) {
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::future<Result<EstimateResponse>> future =
      service.Submit(EstimateRequest::For("q6").WithDeadline(0.05));
  gate.WaitUntilEntered(1);

  // Hold the worker hostage well past the deadline, then release it: the
  // estimator's next budget poll sees the expired deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  gate.Open();

  Result<EstimateResponse> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_FALSE(IsRetryable(result.status().code()));
  // It expired mid-estimate, not in the queue, and its slot is released.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.expired_in_queue, 0u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.queue_depth, 0);
}

TEST(ServiceResilience, ShutdownUnderLoadAnswersEveryRequestRetryably) {
  ServiceOptions options;
  options.threads = 4;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::vector<std::future<Result<EstimateResponse>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.Submit(EstimateRequest::For("q6")));
  }
  gate.WaitUntilEntered(4);  // All workers parked, 4 more requests queued.

  std::thread release([&] {
    // Open the gate only after the grace period has expired and the
    // shutdown token fired — the parked workers then unwind cooperatively.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    gate.Open();
  });
  const EstimationService::ShutdownReport report = service.Shutdown(0.05);
  release.join();

  EXPECT_EQ(report.inflight_at_shutdown, 8);
  EXPECT_FALSE(report.graceful);
  EXPECT_GT(report.cancelled, 0);

  // Hard guarantee: every future resolves, and every cancelled request is
  // answered with the retryable UNAVAILABLE, never a silent drop.
  for (std::future<Result<EstimateResponse>>& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    Result<EstimateResponse> result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::kUnavailable);
    EXPECT_TRUE(IsRetryable(result.status().code()));
  }

  // Admission is closed for good after shutdown.
  Result<EstimateResponse> rejected =
      service.Submit(EstimateRequest::For("q6")).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(ServiceResilience, GracefulShutdownWithIdleServiceReportsClean) {
  EstimationService service;
  const EstimationService::ShutdownReport report = service.Shutdown(1.0);
  EXPECT_TRUE(report.graceful);
  EXPECT_EQ(report.inflight_at_shutdown, 0);
  EXPECT_EQ(report.cancelled, 0);
}

TEST(ServiceResilience, InjectedExecuteFailuresNeverRefuseTheNextRequest) {
  InjectorReset guard;
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(injector
                  .Configure("service.execute",
                             {.probability = 1.0, .error = ErrorCode::kInternal})
                  .ok());
  injector.Arm(11);
  for (int i = 0; i < 20; ++i) {
    Result<EstimateResponse> result =
        service.Submit(EstimateRequest::For("q6")).get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::kInternal);
  }
  injector.Disarm();

  // Each failure was that request's own: the healthy path answers the next
  // request, and every slot came back.
  Result<EstimateResponse> next =
      service.Submit(EstimateRequest::For("q6")).get();
  EXPECT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(service.Stats().queue_depth, 0);
}

TEST(ServiceResilience, InjectedAdmitFaultShedsWithoutLeakingSlots) {
  InjectorReset guard;
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(injector
                  .Configure("service.admit",
                             {.probability = 1.0,
                              .error = ErrorCode::kResourceExhausted,
                              .max_fires = 3})
                  .ok());
  injector.Arm(3);
  int rejected = 0;
  for (int i = 0; i < 3; ++i) {
    Result<EstimateResponse> result =
        service.Submit(EstimateRequest::For("q6")).get();
    if (!result.ok() &&
        result.status().code() == ErrorCode::kResourceExhausted) {
      ++rejected;
    }
  }
  injector.Disarm();
  EXPECT_EQ(rejected, 3);
  // Slots were backed out: the queue is empty and a real request succeeds.
  EXPECT_EQ(service.Stats().queue_depth, 0);
  EXPECT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok());
}

}  // namespace
}  // namespace dagperf
