// Tests of the versioned public facade: <dagperf/dagperf.h> is
// self-sufficient (this file includes nothing else from the library), the
// version macros exist and are numerically comparable, and the service's
// request builder and single Submit entry point are reachable.

#include <dagperf/dagperf.h>

#include <gtest/gtest.h>

#ifndef DAGPERF_VERSION_MAJOR
#error "dagperf.h must provide DAGPERF_VERSION_MAJOR"
#endif
#ifndef DAGPERF_VERSION_MINOR
#error "dagperf.h must provide DAGPERF_VERSION_MINOR"
#endif

// The facade version gates features numerically; the service layer arrived
// in 0.4.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 4
#error "service layer requires dagperf >= 0.4"
#endif

// The resilience layer (RetryPolicy, CircuitBreaker, FaultInjector,
// graceful shutdown) arrived in 0.5.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 5
#error "resilience layer requires dagperf >= 0.5"
#endif

// Serving observability (request records + flight recorder, SLO windows,
// Prometheus export) arrived in 0.6.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 6
#error "serving observability requires dagperf >= 0.6"
#endif

// Multi-tenant serving (DRF fair-share admission, overload brownout ladder,
// warm-state snapshot/restore) arrived in 0.7.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 7
#error "multi-tenant serving requires dagperf >= 0.7"
#endif

// The unified submission API (EstimateRequest builder, EstimateResponse)
// arrived in 0.8.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 8
#error "unified submission API requires dagperf >= 0.8"
#endif

// Fleet serving (router::Router, protocol::LineClient, scoped snapshot
// import for warm handoff) arrived in 0.9.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 9
#error "fleet serving requires dagperf >= 0.9"
#endif

// 2.0 removed sweep hedging, candidate retries and per-candidate memos
// from the facade (EstimateRequest::WithHedging, SweepOptions::{hedge,
// max_retries, share_cache}); the builder checked below is the 2.0 one.
#if DAGPERF_VERSION_MAJOR < 2
#error "the request builder checked here requires dagperf >= 2.0"
#endif

// 3.0 took the task-time memo out of the service and the snapshot
// (EstimationService::memo, ServiceStats::cache, the memo parameter of
// the snapshot functions); the snapshot call checked below is the 3.0 one.
#if DAGPERF_VERSION_MAJOR < 3
#error "the checkpoint-only snapshot API checked here requires dagperf >= 3.0"
#endif

// 5.0 retired in-flight coalescing (EstimateRequest::coalesce and
// WithoutCoalescing, WorkflowEstimate::coalesced); the chainers checked
// below are the 5.0 set.
#if DAGPERF_VERSION_MAJOR < 5
#error "the request chainers checked here require dagperf >= 5.0"
#endif

// 6.0 took the circuit breaker and the watchdog out of the service
// (ServiceOptions::breaker_*/watchdog_multiple, resilience/watchdog.h) and
// trimmed CircuitBreakerOptions to the router's shard scoring; the breaker
// checked below is the 6.0 one.
#if DAGPERF_VERSION_MAJOR < 6
#error "the shard-scoring circuit breaker checked here requires dagperf >= 6.0"
#endif

namespace dagperf {
namespace {

TEST(ApiFacadeTest, VersionMacros) {
  EXPECT_GE(DAGPERF_VERSION_MAJOR, 0);
  // The facade is at least 0.4 (compared as a version, not per component).
  EXPECT_TRUE(DAGPERF_VERSION_MAJOR > 0 || DAGPERF_VERSION_MINOR >= 4);
  const std::string version = DAGPERF_VERSION_STRING;
  EXPECT_EQ(version, std::to_string(DAGPERF_VERSION_MAJOR) + "." +
                         std::to_string(DAGPERF_VERSION_MINOR));
}

TEST(ApiFacadeTest, FacadeCoversTheSupportedSurface) {
  // Touch one symbol from each facade section; compiling this file with
  // only <dagperf/dagperf.h> is the actual assertion.
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  EXPECT_GT(cluster.num_nodes, 0);
  const Status status = Status::ResourceExhausted("x");
  EXPECT_TRUE(IsRetryable(status.code()));
  EXPECT_STREQ(ErrorCodeName(status.code()), "RESOURCE_EXHAUSTED");
  const Budget budget = Budget::Within(60.0);
  EXPECT_TRUE(budget.limited());
  EstimationService service;
  EXPECT_FALSE(service.draining());
  EXPECT_EQ(service.Stats().clusters, 1);
}

TEST(ApiFacadeTest, ResilienceSurfaceIsReachableThroughTheFacade) {
  // UNAVAILABLE joined the stable vocabulary in 0.5 and is retryable.
  const Status unavailable = Status::Unavailable("x");
  EXPECT_STREQ(ErrorCodeName(unavailable.code()), "UNAVAILABLE");
  EXPECT_TRUE(IsRetryable(unavailable.code()));

  resilience::RetryPolicy retry({.max_attempts = 3, .initial_backoff_ms = 0.0});
  int calls = 0;
  const Status status = retry.RunStatus([&] {
    ++calls;
    return calls < 3 ? Status::Unavailable("warming up") : Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);

  resilience::CircuitBreaker breaker({.failure_threshold = 2});
  EXPECT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure();
  EXPECT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), resilience::BreakerState::kOpen);
  EXPECT_EQ(breaker.Allow().code(), ErrorCode::kUnavailable);

  // The fault injector is reachable (and off by default).
  EXPECT_FALSE(resilience::FaultInjector::Default().armed());
}

TEST(ApiFacadeTest, MultiTenantServingSurfaceIsReachableThroughTheFacade) {
  // 0.7 surface: overload controller, tenant registry, warm snapshots.
  resilience::OverloadController controller;
  controller.ForceLevelForTest(3);
  EXPECT_TRUE(controller.ShouldShed(/*warm=*/false, /*expensive=*/false));
  EXPECT_GT(controller.RetryAfterMs(), 0.0);

  TenantRegistry tenants;
  EXPECT_EQ(TenantRegistry::Canonical(""), "default");
  EXPECT_TRUE(tenants.Admit("alice").ok());

  PrefixCheckpointStore store;
  const Status missing =
      LoadWarmSnapshot("no-such-snapshot-file", &store, nullptr);
  EXPECT_EQ(missing.code(), ErrorCode::kNotFound);
}

TEST(ApiFacadeTest, ObservabilitySurfaceIsReachableThroughTheFacade) {
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);

  obs::RequestRecord record;
  record.id = 1;
  record.end_us = 10.0;
  obs::FlightRecorder recorder(obs::FlightRecorderOptions{.capacity = 4});
  recorder.Record(record);
  EXPECT_EQ(recorder.total_recorded(), 1u);

  obs::SloTracker slo(obs::SloObjectives{.p99_ms = 100.0,
                                         .availability = 0.999});
  slo.RecordOutcome(obs::OpClass::kEstimate, 5.0, /*ok=*/true,
                    /*had_deadline=*/false, /*deadline_met=*/false);
  const obs::SloTracker::Report report = slo.Snapshot();
  EXPECT_EQ(report.total.back().count, 1u);  // 5m window sees the request.

  // Prometheus text rendering is reachable through the facade.
  const std::string prom = obs::WritePrometheusText();
  EXPECT_NE(prom.find("# TYPE"), std::string::npos);

  obs::SetMetricsEnabled(was_enabled);
}

Result<DagWorkflow> FacadeFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  if (!named.ok()) return named.status();
  return std::move(named).value().flow;
}

TEST(ApiFacadeTest, UnifiedSubmitServesEstimatesAndSweeps) {
  // One builder, one entry point, one response union.
  Result<DagWorkflow> flow = FacadeFlow();
  ASSERT_TRUE(flow.ok());
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", *flow).ok());

  Result<EstimateResponse> estimate =
      service.Submit(EstimateRequest::For("q6").WithExplain()).get();
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  ASSERT_FALSE(estimate.value().is_sweep());
  ASSERT_TRUE(estimate.value().estimate.has_value());
  EXPECT_GT(estimate.value().estimate->estimate.makespan.seconds(), 0.0);
  EXPECT_FALSE(estimate.value().estimate->critical_path.empty());

  Result<EstimateResponse> sweep =
      service.Submit(EstimateRequest::For("q6").SweepNodes({4, 8})).get();
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_TRUE(sweep.value().is_sweep());
  ASSERT_TRUE(sweep.value().sweep.has_value());
  ASSERT_EQ(sweep.value().sweep->sweep.estimates.size(), 2u);
  EXPECT_TRUE(sweep.value().sweep->sweep.estimates[0].ok());
  EXPECT_TRUE(sweep.value().sweep->sweep.estimates[1].ok());
}

TEST(ApiFacadeTest, ChainersSetTheFieldsSubmitReads) {
  // Every chainer maps onto exactly one field the service reads.
  const CancelToken cancel = CancelToken::Cancellable();
  const EstimateRequest request = EstimateRequest::For("daily-etl")
                                      .OnCluster("prod")
                                      .AsTenant("alice")
                                      .WithNodes(32)
                                      .WithDeadline(60.0)
                                      .WithCancel(cancel)
                                      .WithExplain();
  EXPECT_FALSE(request.is_sweep());
  EXPECT_EQ(request.workflow, "daily-etl");
  EXPECT_EQ(request.cluster, "prod");
  EXPECT_EQ(request.tenant, "alice");
  EXPECT_EQ(request.nodes, 32);
  EXPECT_FALSE(request.budget.deadline.never());
  EXPECT_FALSE(request.budget.cancel.cancelled());
  cancel.Cancel();
  EXPECT_TRUE(request.budget.cancel.cancelled());
  EXPECT_TRUE(request.explain);

  const EstimateRequest sweep =
      EstimateRequest::For("daily-etl").SweepNodes({8, 16});
  EXPECT_TRUE(sweep.is_sweep());
  EXPECT_EQ(sweep.workflow, "daily-etl");
  EXPECT_EQ(sweep.nodes_list, (std::vector<int>{8, 16}));
}

}  // namespace
}  // namespace dagperf
