// Overload-resilience tests: the CoDel-style OverloadController's interval
// semantics (driven with explicit clocks, so every transition is
// deterministic), the DRF fair-share TenantRegistry, the service's brownout
// ladder (shed / degrade / state-cap behaviour at forced levels), and the
// wire-visible surface (tenant field, retry_after_ms hint, degraded flag,
// per-tenant stats).

#include "resilience/overload.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/tenancy.h"
#include "workloads/suite.h"

namespace dagperf {
namespace {

using resilience::OverloadController;
using resilience::OverloadOptions;

OverloadOptions FastLadder() {
  OverloadOptions options;
  options.target_sojourn_ms = 50.0;
  options.interval_ms = 100.0;
  options.escalate_after = 3;
  options.recover_after = 5;
  options.max_level = 3;
  options.retry_after_floor_ms = 25.0;
  return options;
}

/// Feeds `closes` interval closes, each observing `sojourn_ms` both
/// mid-window and at the close, advancing a caller-owned clock one interval
/// per close. The observation that closes a window is recorded into the
/// *next* window (ObserveSojourn's semantics), so each closed window's
/// minimum is min(previous close's value, this call's mid-window value) —
/// with a constant value per streak that is exactly `sojourn_ms`, and on a
/// value switch the window straddling the switch takes the smaller side.
void FeedIntervals(OverloadController& controller, double sojourn_ms,
                   int closes, double* now_us) {
  const double step_us = controller.options().interval_ms * 1e3;
  for (int i = 0; i < closes; ++i) {
    controller.ObserveSojourn(sojourn_ms, *now_us + 1.0);
    *now_us += step_us;
    controller.ObserveSojourn(sojourn_ms, *now_us);
  }
}

TEST(OverloadControllerTest, EscalatesAfterConsecutiveBadIntervals) {
  OverloadController controller(FastLadder());
  double now_us = 1.0;
  controller.ObserveSojourn(100.0, now_us);  // Plants the first window.
  EXPECT_EQ(controller.level(), 0);

  FeedIntervals(controller, 100.0, 2, &now_us);
  EXPECT_EQ(controller.level(), 0) << "two bad intervals must not escalate";
  FeedIntervals(controller, 100.0, 1, &now_us);
  EXPECT_EQ(controller.level(), 1) << "third consecutive bad interval";

  // Each further escalate_after-run steps one more level, clamped at max.
  FeedIntervals(controller, 100.0, 3, &now_us);
  EXPECT_EQ(controller.level(), 2);
  FeedIntervals(controller, 100.0, 3, &now_us);
  EXPECT_EQ(controller.level(), 3);
  FeedIntervals(controller, 100.0, 6, &now_us);
  EXPECT_EQ(controller.level(), 3) << "ladder is clamped at max_level";

  const OverloadController::Stats stats = controller.stats();
  EXPECT_EQ(stats.escalations, 3u);
  EXPECT_EQ(stats.recoveries, 0u);
  EXPECT_EQ(stats.last_interval_min_ms, 100.0);
}

TEST(OverloadControllerTest, RecoversSlowerThanItEscalates) {
  OverloadController controller(FastLadder());
  double now_us = 1.0;
  controller.ObserveSojourn(100.0, now_us);
  FeedIntervals(controller, 100.0, 3, &now_us);
  ASSERT_EQ(controller.level(), 1);

  // recover_after = 5 > escalate_after = 3: four good intervals are not
  // enough, the fifth steps down.
  FeedIntervals(controller, 1.0, 4, &now_us);
  EXPECT_EQ(controller.level(), 1);
  FeedIntervals(controller, 1.0, 1, &now_us);
  EXPECT_EQ(controller.level(), 0);
  EXPECT_EQ(controller.stats().recoveries, 1u);

  // A good streak broken by one bad interval starts over. Back up to level 1
  // first (the switch window counts good, then three bad ones escalate)...
  FeedIntervals(controller, 100.0, 4, &now_us);
  ASSERT_EQ(controller.level(), 1);
  // ...then 3 good, a break (the first switch window is the 4th good, the
  // second is bad and resets the streak), then 4 more good: 8 good windows
  // in total but never 5 consecutive — no recovery.
  FeedIntervals(controller, 1.0, 3, &now_us);
  FeedIntervals(controller, 100.0, 2, &now_us);
  FeedIntervals(controller, 1.0, 4, &now_us);
  EXPECT_EQ(controller.level(), 1) << "bad interval must reset the good streak";
  EXPECT_EQ(controller.stats().recoveries, 1u);
}

TEST(OverloadControllerTest, MinimumSojournSeesThroughBursts) {
  // CoDel semantics: a queue that fully drains at least once per interval is
  // bursty, not overloaded — the interval *minimum* is what counts.
  OverloadController controller(FastLadder());
  double now_us = 1.0;
  for (int interval = 0; interval < 10; ++interval) {
    controller.ObserveSojourn(500.0, now_us + 1.0);  // Burst spike...
    controller.ObserveSojourn(1.0, now_us + 2.0);    // ...but it drains.
    now_us += controller.options().interval_ms * 1e3;
    controller.ObserveSojourn(500.0, now_us);
  }
  EXPECT_EQ(controller.level(), 0);
}

TEST(OverloadControllerTest, QuietGapsCarryNoSignal) {
  // An idle stretch is unmeasured, not "good": two bad intervals separated
  // by a long quiet gap still form a streak, and a gap never recovers the
  // ladder on its own.
  OverloadController controller(FastLadder());
  double now_us = 1.0;
  controller.ObserveSojourn(100.0, now_us);
  FeedIntervals(controller, 100.0, 2, &now_us);
  ASSERT_EQ(controller.level(), 0);
  now_us += 1e9;  // ~10k empty intervals.
  controller.ObserveSojourn(100.0, now_us);
  EXPECT_EQ(controller.level(), 1)
      << "the streak must survive the unmeasured gap";
  now_us += 1e9;
  controller.ObserveSojourn(100.0, now_us);
  EXPECT_EQ(controller.level(), 1) << "a gap alone must not recover either";
}

TEST(OverloadControllerTest, ShedPolicyMatrix) {
  OverloadController controller(FastLadder());
  const bool kWarm = true, kCold = false;
  const bool kExpensive = true, kCheap = false;

  controller.ForceLevelForTest(0);
  EXPECT_FALSE(controller.ShouldShed(kCold, kExpensive));
  EXPECT_FALSE(controller.ShouldShed(kCold, kCheap));

  for (int level = 1; level <= 2; ++level) {
    controller.ForceLevelForTest(level);
    EXPECT_TRUE(controller.ShouldShed(kCold, kExpensive)) << level;
    EXPECT_FALSE(controller.ShouldShed(kCold, kCheap)) << level;
    EXPECT_FALSE(controller.ShouldShed(kWarm, kExpensive)) << level;
  }

  controller.ForceLevelForTest(3);
  EXPECT_TRUE(controller.ShouldShed(kCold, kCheap)) << "brownout: warm-only";
  EXPECT_FALSE(controller.ShouldShed(kWarm, kExpensive))
      << "warm work is never shed at any level";
}

TEST(OverloadControllerTest, RetryHintDoublesPerLevel) {
  OverloadController controller(FastLadder());
  controller.ForceLevelForTest(1);
  EXPECT_EQ(controller.RetryAfterMs(), 50.0);
  controller.ForceLevelForTest(2);
  EXPECT_EQ(controller.RetryAfterMs(), 100.0);
  controller.ForceLevelForTest(3);
  EXPECT_EQ(controller.RetryAfterMs(), 200.0);
}

TEST(OverloadControllerTest, TransitionCallbackSeesEveryStep) {
  OverloadController controller(FastLadder());
  std::vector<std::pair<int, int>> transitions;
  controller.SetTransitionCallback(
      [&](int from, int to) { transitions.emplace_back(from, to); });

  double now_us = 1.0;
  controller.ObserveSojourn(100.0, now_us);
  FeedIntervals(controller, 100.0, 6, &now_us);  // 0 -> 1 -> 2.
  FeedIntervals(controller, 1.0, 5, &now_us);    // 2 -> 1.
  const std::vector<std::pair<int, int>> want = {{0, 1}, {1, 2}, {2, 1}};
  EXPECT_EQ(transitions, want);
}

TEST(OverloadControllerTest, ForcedLevelSuspendsTheSignal) {
  OverloadController controller(FastLadder());
  controller.ForceLevelForTest(2);
  double now_us = 1.0;
  controller.ObserveSojourn(1.0, now_us);
  FeedIntervals(controller, 1.0, 20, &now_us);
  EXPECT_EQ(controller.level(), 2) << "forced level ignores good intervals";
  FeedIntervals(controller, 100.0, 20, &now_us);
  EXPECT_EQ(controller.level(), 2) << "and bad ones";

  controller.ForceLevelForTest(-1);  // Hand control back to the signal.
  FeedIntervals(controller, 1.0, 5, &now_us);
  EXPECT_EQ(controller.level(), 1);
  FeedIntervals(controller, 1.0, 5, &now_us);
  EXPECT_EQ(controller.level(), 0);
}

TEST(TenantRegistryTest, CanonicalMapsEmptyToDefault) {
  EXPECT_EQ(TenantRegistry::Canonical(""), "default");
  EXPECT_EQ(TenantRegistry::Canonical("alice"), "alice");
}

TEST(TenantRegistryTest, SoleTenantMayFillTheWholeQueue) {
  TenantRegistry::Options options;
  options.capacity_slots = 4;
  TenantRegistry registry(options);

  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(registry.Admit("solo").ok()) << "slot " << i;
  }
  const Status fifth = registry.Admit("solo");
  ASSERT_FALSE(fifth.ok());
  EXPECT_EQ(fifth.code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(IsRetryable(fifth.code()));
  EXPECT_NE(fifth.message().find("fair share"), std::string::npos)
      << fifth.message();

  const std::vector<TenantRegistry::TenantStats> stats = registry.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "solo");
  EXPECT_EQ(stats[0].queued, 4);
  EXPECT_EQ(stats[0].submitted, 5u);  // Arrivals, including the shed one.
  EXPECT_EQ(stats[0].shed_total, 1u);
}

TEST(TenantRegistryTest, FinishedRequestReturnsItsSlot) {
  TenantRegistry::Options options;
  options.capacity_slots = 2;
  TenantRegistry registry(options);
  ASSERT_TRUE(registry.Admit("t").ok());
  ASSERT_TRUE(registry.Admit("t").ok());
  ASSERT_FALSE(registry.Admit("t").ok());
  // A worker dequeues one request and finishes it: its slot comes back.
  registry.OnExecuteStart("t");
  registry.OnDone("t", /*ok=*/true, /*cpu_ms=*/1.0);
  EXPECT_TRUE(registry.Admit("t").ok());
  EXPECT_FALSE(registry.Admit("t").ok());
}

TEST(TenantRegistryTest, LightTenantAdmitsPastASaturatedHeavyOne) {
  TenantRegistry::Options options;
  options.capacity_slots = 4;
  TenantRegistry registry(options);

  // "heavy" floods until its fair share rejects it...
  int admitted = 0;
  while (admitted < 16 && registry.Admit("heavy").ok()) ++admitted;
  ASSERT_GE(admitted, 1);
  ASSERT_FALSE(registry.Admit("heavy").ok());
  // ...and "light"'s first request still fits inside its own share.
  EXPECT_TRUE(registry.Admit("light").ok());
}

TEST(TenantRegistryTest, OutcomeAndCostAccounting) {
  TenantRegistry::Options options;
  options.ema_alpha = 1.0;  // EMA == last observation, easy to assert.
  TenantRegistry registry(options);

  ASSERT_TRUE(registry.Admit("t").ok());
  registry.OnExecuteStart("t");
  registry.OnDone("t", /*ok=*/true, /*cpu_ms=*/100.0);
  ASSERT_TRUE(registry.Admit("t").ok());
  registry.OnExecuteStart("t");
  registry.OnDone("t", /*ok=*/false, /*cpu_ms=*/20.0);
  registry.OnShed("t");

  const std::vector<TenantRegistry::TenantStats> stats = registry.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].inflight, 0);
  EXPECT_EQ(stats[0].queued, 0);
  EXPECT_EQ(stats[0].completed, 1u);
  EXPECT_EQ(stats[0].failed, 1u);
  EXPECT_EQ(stats[0].shed_total, 1u);
  EXPECT_EQ(stats[0].cpu_ms, 120.0);
  EXPECT_EQ(stats[0].ema_cost_ms, 20.0);
}

TEST(TenantRegistryTest, ExpensiveTenantGetsFewerSlotsThanCheapOne) {
  // DRF prices admission in two resources: queue slots and expected cpu-ms.
  // A tenant whose EMA cost is 100x another's has cpu-ms as its dominant
  // resource and must be capped below the full queue while the cheap
  // tenant's next request still fits.
  TenantRegistry::Options options;
  options.capacity_slots = 4;
  options.ema_alpha = 1.0;
  TenantRegistry registry(options);

  ASSERT_TRUE(registry.Admit("spender").ok());
  registry.OnExecuteStart("spender");
  registry.OnDone("spender", true, 100.0);
  ASSERT_TRUE(registry.Admit("frugal").ok());
  registry.OnExecuteStart("frugal");
  registry.OnDone("frugal", true, 1.0);

  // frugal holds one queued slot while spender floods.
  ASSERT_TRUE(registry.Admit("frugal").ok());
  int admitted = 0;
  while (admitted < 4 && registry.Admit("spender").ok()) ++admitted;
  EXPECT_GE(admitted, 1);
  EXPECT_LT(admitted, 3) << "a 100x-cost tenant must not take "
                            "a cheap tenant's share of the queue";
  EXPECT_TRUE(registry.Admit("frugal").ok())
      << "the cheap tenant must still be admitted";
}

DagWorkflow TestFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  EXPECT_TRUE(named.ok()) << named.status().ToString();
  return std::move(named).value().flow;
}

/// Service armed with the overload controller (target > 0) whose every flow
/// classifies as expensive unless stated otherwise.
ServiceOptions ArmedOptions() {
  ServiceOptions options;
  options.overload_target_sojourn_ms = 50.0;
  options.expensive_job_threshold = 1;
  return options;
}

TEST(ServiceBrownoutTest, ColdExpensiveWorkIsShedWithRetryHint) {
  EstimationService service(ArmedOptions());
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  ASSERT_NE(service.overload_controller(), nullptr);
  service.overload_controller()->ForceLevelForTest(1);

  Result<EstimateResponse> shed =
      service.Submit(EstimateRequest::For("q6")).get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(IsRetryable(shed.status().code()));
  EXPECT_GT(shed.status().retry_after_ms(), 0.0);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.overload_level, 1);
  EXPECT_GE(stats.overload_shed, 1u);
  EXPECT_GE(stats.shed, 1u);
}

TEST(ServiceBrownoutTest, WarmWorkIsServedDegradedWithoutAttribution) {
  EstimationService service(ArmedOptions());
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  OverloadController* controller = service.overload_controller();
  ASSERT_NE(controller, nullptr);

  // Serve once healthy: proves explain normally fills the critical path.
  controller->ForceLevelForTest(0);
  Result<EstimateResponse> healthy =
      service.Submit(EstimateRequest::For("q6").WithExplain()).get();
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.value().estimate->degraded);
  EXPECT_FALSE(healthy.value().estimate->critical_path.empty());
  // Warm the key level 1 runs the explain request with: attribution is part
  // of the key, and level 1 drops it, so the healthy explain above stored
  // its answer under a different key.
  ASSERT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok());

  // Under pressure the same request is warm: served, but degraded — no
  // attribution work is spent on it.
  controller->ForceLevelForTest(1);
  Result<EstimateResponse> degraded =
      service.Submit(EstimateRequest::For("q6").WithExplain()).get();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded.value().estimate->degraded);
  EXPECT_EQ(degraded.value().estimate->degrade_level, 1);
  EXPECT_TRUE(degraded.value().estimate->critical_path.empty());
}

TEST(ServiceBrownoutTest, FullBrownoutShedsEverythingCold) {
  ServiceOptions options = ArmedOptions();
  options.expensive_job_threshold = 1000;  // Everything classifies cheap...
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  service.overload_controller()->ForceLevelForTest(3);

  Result<EstimateResponse> shed =
      service.Submit(EstimateRequest::For("q6")).get();
  ASSERT_FALSE(shed.ok()) << "...but level 3 sheds even cheap cold work";
  EXPECT_EQ(shed.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_GT(shed.status().retry_after_ms(), 0.0);
}

TEST(ServiceBrownoutTest, StateCapFailuresAreRewrittenRetryable) {
  ServiceOptions options = ArmedOptions();
  options.expensive_job_threshold = 1000;  // Admit it (cheap at level 2)...
  options.brownout_max_states = 1;         // ...then hit the brownout cap.
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  service.overload_controller()->ForceLevelForTest(2);

  Result<EstimateResponse> capped =
      service.Submit(EstimateRequest::For("q6")).get();
  ASSERT_FALSE(capped.ok());
  // Under brownout the estimator's state-limit trip is the service's own
  // doing, so it must surface as retryable pushback, not INTERNAL.
  EXPECT_EQ(capped.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(IsRetryable(capped.status().code()));
  EXPECT_GT(capped.status().retry_after_ms(), 0.0);
  EXPECT_NE(capped.status().message().find("brownout"), std::string::npos)
      << capped.status().message();
}

TEST(ServiceBrownoutTest, SnapshotRestoredKeyIsServedAtFullBrownout) {
  const std::string path = "overload_test_restored_key.snap";
  {
    EstimationService warm;
    ASSERT_TRUE(warm.RegisterWorkflow("q6", TestFlow()).ok());
    ASSERT_TRUE(warm.Submit(EstimateRequest::For("q6")).get().ok());
    ASSERT_TRUE(warm.SaveSnapshot(path).ok());
  }
  EstimationService restarted(ArmedOptions());
  ASSERT_TRUE(restarted.RegisterWorkflow("q6", TestFlow()).ok());
  const Status loaded = restarted.LoadSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  restarted.overload_controller()->ForceLevelForTest(3);

  // The restored store holds the complete answer: warm, served, a copy.
  Result<EstimateResponse> served =
      restarted.Submit(EstimateRequest::For("q6")).get();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const WorkflowEstimate& estimate = *served.value().estimate;
  EXPECT_TRUE(estimate.degraded);
  EXPECT_EQ(estimate.degrade_level, 3);
  EXPECT_EQ(static_cast<std::size_t>(estimate.estimate.resumed_states),
            estimate.estimate.states.size());

  // A key the snapshot does not hold is cold and shed.
  Result<EstimateResponse> cold =
      restarted.Submit(EstimateRequest::For("q6").WithNodes(7)).get();
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.status().code(), ErrorCode::kResourceExhausted);
}

TEST(ServiceBrownoutTest, WarmthFollowsContentNotNames) {
  ServiceOptions options = ArmedOptions();
  options.expensive_job_threshold = 1000;  // Only level 3 sheds cold work.
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  OverloadController* controller = service.overload_controller();
  auto inline_flow = [](double scale) {
    Result<NamedFlow> named = TableThreeFlow("TS-Q6", scale);
    EXPECT_TRUE(named.ok());
    return std::make_shared<const DagWorkflow>(std::move(named).value().flow);
  };
  const std::shared_ptr<const DagWorkflow> served_inline = inline_flow(0.01);
  const std::shared_ptr<const DagWorkflow> renamed_other = inline_flow(0.02);
  ASSERT_EQ(served_inline->name(), renamed_other->name());

  controller->ForceLevelForTest(0);
  ASSERT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok());
  ASSERT_TRUE(service.Submit(EstimateRequest::For(served_inline)).get().ok());
  controller->ForceLevelForTest(3);
  EXPECT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok())
      << "the served key is warm";
  EXPECT_TRUE(
      service.Submit(EstimateRequest::For(inline_flow(0.01))).get().ok())
      << "an inline copy with the served content is warm";

  // Same name, other content: nothing computed it, so level 3 sheds it.
  Result<EstimateResponse> other_inline =
      service.Submit(EstimateRequest::For(renamed_other)).get();
  ASSERT_FALSE(other_inline.ok());
  EXPECT_EQ(other_inline.status().code(), ErrorCode::kResourceExhausted);

  ASSERT_TRUE(service.RegisterWorkflow("q6", *renamed_other).ok());
  Result<EstimateResponse> reregistered =
      service.Submit(EstimateRequest::For("q6")).get();
  ASSERT_FALSE(reregistered.ok());
  EXPECT_EQ(reregistered.status().code(), ErrorCode::kResourceExhausted);
}

TEST(ServiceBrownoutTest, TenantNamesAreBoundedAndConserved) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  constexpr int kNames = 5000;
  for (int i = 0; i < kNames; ++i) {
    ASSERT_TRUE(service
                    .Submit(EstimateRequest::For("q6").AsTenant(
                        "tenant-" + std::to_string(i)))
                    .get()
                    .ok());
  }

  const std::vector<TenantRegistry::TenantStats> tenants =
      service.Stats().tenants;
  EXPECT_LE(tenants.size(), TenantRegistry::kMaxTenants + 1);
  std::uint64_t submitted = 0;
  std::uint64_t accounted = 0;
  bool has_overflow = false;
  for (const TenantRegistry::TenantStats& tenant : tenants) {
    has_overflow = has_overflow || tenant.name == "overflow";
    const std::uint64_t held =
        static_cast<std::uint64_t>(tenant.inflight + tenant.queued);
    EXPECT_EQ(tenant.submitted, tenant.completed + tenant.failed +
                                    tenant.shed_total + held)
        << tenant.name;
    submitted += tenant.submitted;
    accounted += tenant.completed + tenant.failed + tenant.shed_total + held;
  }
  EXPECT_TRUE(has_overflow);
  EXPECT_EQ(submitted, static_cast<std::uint64_t>(kNames));
  EXPECT_EQ(accounted, submitted);
}

TEST(ServiceBrownoutTest, PerTenantStatsFlowThroughService) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  ASSERT_TRUE(
      service.Submit(EstimateRequest::For("q6").AsTenant("alice")).get().ok());
  ASSERT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok());

  const ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.tenants.size(), 2u);  // Name-ordered: alice, default.
  EXPECT_EQ(stats.tenants[0].name, "alice");
  EXPECT_EQ(stats.tenants[0].completed, 1u);
  EXPECT_EQ(stats.tenants[0].inflight, 0);
  EXPECT_EQ(stats.tenants[0].queued, 0);
  EXPECT_GT(stats.tenants[0].ema_cost_ms, 0.0);
  EXPECT_EQ(stats.tenants[1].name, "default");
  EXPECT_EQ(stats.tenants[1].completed, 1u);
}

TEST(ProtocolOverloadTest, TenantAndOverloadReachTheStatsVerb) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  Protocol protocol(&service);

  Result<Json> served = Json::Parse(protocol.HandleLine(
      R"({"op":"estimate","workflow":"q6","tenant":"alice","id":1})"));
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served.value().GetBool("ok", false));

  const std::string stats = protocol.HandleLine(R"({"op":"stats"})");
  EXPECT_NE(stats.find("\"tenants\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"alice\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"overload\""), std::string::npos) << stats;
}

TEST(ProtocolOverloadTest, ShedResponsesCarryTheRetryHint) {
  EstimationService service(ArmedOptions());
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  service.overload_controller()->ForceLevelForTest(3);
  Protocol protocol(&service);

  Result<Json> parsed = Json::Parse(
      protocol.HandleLine(R"({"op":"estimate","workflow":"q6","id":2})"));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().GetBool("ok", true));
  const Json* error = parsed.value().Get("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code", ""), "RESOURCE_EXHAUSTED");
  EXPECT_TRUE(error->GetBool("retryable", false));
  EXPECT_GT(error->GetNumber("retry_after_ms", 0.0), 0.0);
}

TEST(ProtocolOverloadTest, DegradedAnswersAreTaggedOnTheWire) {
  EstimationService service(ArmedOptions());
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  OverloadController* controller = service.overload_controller();
  Protocol protocol(&service);

  controller->ForceLevelForTest(0);
  Result<Json> healthy = Json::Parse(
      protocol.HandleLine(R"({"op":"estimate","workflow":"q6","id":3})"));
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE(healthy.value().GetBool("ok", false));
  EXPECT_FALSE(healthy.value().Get("result")->GetBool("degraded", false));

  controller->ForceLevelForTest(1);
  Result<Json> degraded = Json::Parse(
      protocol.HandleLine(R"({"op":"estimate","workflow":"q6","id":4})"));
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(degraded.value().GetBool("ok", false)) << "warm -> still served";
  const Json* result = degraded.value().Get("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->GetBool("degraded", false));
  EXPECT_GE(result->GetNumber("degrade_level", 0.0), 1.0);
}

}  // namespace
}  // namespace dagperf
