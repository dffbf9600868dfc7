// Deadline & cooperative-cancellation tests (docs/robustness.md): token and
// deadline semantics, the shared CheckBudget poll, the cancellable
// ParallelFor, per-state polling in the estimator, and EstimateBatch's
// partial results and per-candidate statuses — with the matching obs
// counters asserted.

#include <vector>

#include <gtest/gtest.h>

#include "boe/boe_model.h"
#include "common/cancel.h"
#include "common/parallel.h"
#include "dag/dag_workflow.h"
#include "model/state_estimator.h"
#include "model/sweep.h"
#include "model/task_time_source.h"
#include "obs/metrics.h"
#include "workloads/micro.h"

namespace dagperf {
namespace {

DagWorkflow SingleJobFlow(const JobSpec& spec) {
  DagBuilder builder(spec.name);
  builder.AddJob(spec);
  Result<DagWorkflow> flow = std::move(builder).Build();
  EXPECT_TRUE(flow.ok()) << flow.status().ToString();
  return std::move(flow).value();
}

TEST(CancelToken, DefaultTokenIsInert) {
  const CancelToken token;
  EXPECT_FALSE(token.can_cancel());
  EXPECT_FALSE(token.cancelled());
  token.Cancel();  // no-op, not a crash
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, CopiesShareOneFlag) {
  const CancelToken token = CancelToken::Cancellable();
  const CancelToken copy = token;
  EXPECT_TRUE(copy.can_cancel());
  EXPECT_FALSE(copy.cancelled());
  token.Cancel();
  EXPECT_TRUE(copy.cancelled());
}

TEST(CancelToken, LinkedTokenObservesParentsWithoutPropagatingUp) {
  const CancelToken caller = CancelToken::Cancellable();
  const CancelToken shutdown = CancelToken::Cancellable();
  const CancelToken linked = CancelToken::LinkedTo({caller, shutdown});
  EXPECT_TRUE(linked.can_cancel());
  EXPECT_FALSE(linked.cancelled());

  // Cancelling the child (the watchdog path) fires only the child.
  linked.Cancel();
  EXPECT_TRUE(linked.cancelled());
  EXPECT_FALSE(caller.cancelled());
  EXPECT_FALSE(shutdown.cancelled());

  // Any parent firing is observed by a fresh child.
  const CancelToken linked2 = CancelToken::LinkedTo({caller, shutdown});
  EXPECT_FALSE(linked2.cancelled());
  shutdown.Cancel();
  EXPECT_TRUE(linked2.cancelled());
  EXPECT_FALSE(caller.cancelled());
}

TEST(CancelToken, LinkingFlattensAndSkipsInertParents) {
  const CancelToken root = CancelToken::Cancellable();
  // Linking through an intermediate linked token still observes the root
  // (parent lists are flattened, not chained).
  const CancelToken middle = CancelToken::LinkedTo({root, CancelToken()});
  const CancelToken leaf = CancelToken::LinkedTo({middle});
  EXPECT_FALSE(leaf.cancelled());
  root.Cancel();
  EXPECT_TRUE(leaf.cancelled());

  // All-inert parents yield a plain cancellable token, not a dead one.
  const CancelToken orphan = CancelToken::LinkedTo({CancelToken()});
  EXPECT_TRUE(orphan.can_cancel());
  EXPECT_FALSE(orphan.cancelled());
  orphan.Cancel();
  EXPECT_TRUE(orphan.cancelled());
}

TEST(Deadline, NeverAndExpired) {
  const Deadline never = Deadline::Never();
  EXPECT_TRUE(never.never());
  EXPECT_FALSE(never.expired());
  const Deadline expired = Deadline::AfterSeconds(0);
  EXPECT_FALSE(expired.never());
  EXPECT_TRUE(expired.expired());
  EXPECT_LE(expired.remaining_seconds(), 0.0);
  EXPECT_FALSE(Deadline::AfterSeconds(3600).expired());
}

TEST(CheckBudget, CancellationWinsTies) {
  const CancelToken cancel = CancelToken::Cancellable();
  cancel.Cancel();
  const Status both = CheckBudget(cancel, Deadline::AfterSeconds(0), "op");
  EXPECT_EQ(both.code(), ErrorCode::kCancelled);
  const Status deadline_only =
      CheckBudget(CancelToken(), Deadline::AfterSeconds(0), "op");
  EXPECT_EQ(deadline_only.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(CheckBudget(CancelToken(), Deadline::Never(), "op").ok());
}

TEST(ParallelFor, ExpiredDeadlineSkipsUnclaimedIterations) {
  std::vector<char> ran(64, 0);
  const Status status = ParallelFor(
      0, 64, [&](std::int64_t i) { ran[static_cast<size_t>(i)] = 1; },
      CancelToken(), Deadline::AfterSeconds(0));
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
  int count = 0;
  for (char c : ran) count += c;
  EXPECT_LT(count, 64);
}

TEST(ParallelFor, CompletesUnderNeverBudget) {
  std::vector<char> ran(16, 0);
  const Status status = ParallelFor(
      0, 16, [&](std::int64_t i) { ran[static_cast<size_t>(i)] = 1; },
      CancelToken(), Deadline::Never());
  EXPECT_TRUE(status.ok());
  for (char c : ran) EXPECT_EQ(c, 1);
}

TEST(Estimator, ExpiredDeadlineUnwindsPerState) {
  obs::SetMetricsEnabled(true);
  obs::Counter& exceeded = obs::MetricsRegistry::Default().GetCounter(
      "estimator.deadline_exceeded");
  const std::uint64_t before = exceeded.value();
  EstimatorOptions options;
  options.budget.deadline = Deadline::AfterSeconds(0);
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  const StateBasedEstimator estimator(cluster, SchedulerConfig{}, options);
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const DagWorkflow flow = SingleJobFlow(WordCountSpec(Bytes::FromGB(10)));
  const Result<DagEstimate> estimate = estimator.Estimate(flow, source);
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(exceeded.value(), before + 1);
  obs::SetMetricsEnabled(false);
}

TEST(Estimator, PreCancelledTokenUnwinds) {
  EstimatorOptions options;
  options.budget.cancel = CancelToken::Cancellable();
  options.budget.cancel.Cancel();
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  const StateBasedEstimator estimator(cluster, SchedulerConfig{}, options);
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const DagWorkflow flow = SingleJobFlow(WordCountSpec(Bytes::FromGB(10)));
  const Result<DagEstimate> estimate = estimator.Estimate(flow, source);
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), ErrorCode::kCancelled);
}

TEST(EstimateBatch, ExpiredDeadlineYieldsPartialResultsAndCounts) {
  obs::SetMetricsEnabled(true);
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const DagWorkflow flow = SingleJobFlow(WordCountSpec(Bytes::FromGB(10)));
  const std::vector<SweepCandidate> requests(8,
                                              SweepCandidate{&flow, cluster, ""});
  SweepOptions options;
  options.threads = 1;
  options.budget.deadline = Deadline::AfterSeconds(0);
  const SweepResult sweep =
      EstimateBatch(requests, SchedulerConfig{}, source, options);
  ASSERT_EQ(sweep.estimates.size(), requests.size());
  // Every candidate carries a definite status; none completed, none counted
  // as a plain failure — the batch is deadline-cut, not broken.
  EXPECT_EQ(sweep.stats.completed, 0);
  EXPECT_EQ(sweep.stats.deadline_exceeded, sweep.stats.candidates);
  EXPECT_EQ(sweep.stats.failures, 0);
  EXPECT_EQ(sweep.stats.best_index, -1);
  for (const auto& estimate : sweep.estimates) {
    ASSERT_FALSE(estimate.ok());
    EXPECT_EQ(estimate.status().code(), ErrorCode::kDeadlineExceeded);
  }
  EXPECT_GE(obs::MetricsRegistry::Default()
                .GetCounter("sweep.deadline_exceeded")
                .value(),
            static_cast<std::uint64_t>(requests.size()));
  obs::SetMetricsEnabled(false);
}

TEST(EstimateBatch, CancelledBatchStampsCancelled) {
  obs::SetMetricsEnabled(true);
  const std::uint64_t before =
      obs::MetricsRegistry::Default().GetCounter("sweep.cancelled").value();
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const DagWorkflow flow = SingleJobFlow(WordCountSpec(Bytes::FromGB(10)));
  const std::vector<SweepCandidate> requests(4,
                                              SweepCandidate{&flow, cluster, ""});
  SweepOptions options;
  options.threads = 1;
  options.budget.cancel = CancelToken::Cancellable();
  options.budget.cancel.Cancel();
  const SweepResult sweep =
      EstimateBatch(requests, SchedulerConfig{}, source, options);
  EXPECT_EQ(sweep.stats.cancelled, sweep.stats.candidates);
  for (const auto& estimate : sweep.estimates) {
    ASSERT_FALSE(estimate.ok());
    EXPECT_EQ(estimate.status().code(), ErrorCode::kCancelled);
  }
  EXPECT_GT(
      obs::MetricsRegistry::Default().GetCounter("sweep.cancelled").value(),
      before);
  obs::SetMetricsEnabled(false);
}

TEST(EstimateBatch, UnexpiredBudgetIsHarmless) {
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const DagWorkflow flow = SingleJobFlow(WordCountSpec(Bytes::FromGB(10)));
  const std::vector<SweepCandidate> requests(3,
                                              SweepCandidate{&flow, cluster, ""});
  SweepOptions options;
  options.budget.cancel = CancelToken::Cancellable();
  options.budget.deadline = Deadline::AfterSeconds(3600);
  const SweepResult sweep =
      EstimateBatch(requests, SchedulerConfig{}, source, options);
  EXPECT_EQ(sweep.stats.completed, sweep.stats.candidates);
  EXPECT_EQ(sweep.stats.best_index, 0);
  for (const auto& estimate : sweep.estimates) EXPECT_TRUE(estimate.ok());
}

TEST(EstimateBatch, EachFailureKeepsItsStatusInItsOwnSlot) {
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  ClusterSpec bad = cluster;
  bad.num_nodes = -1;
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const DagWorkflow flow = SingleJobFlow(WordCountSpec(Bytes::FromGB(10)));

  // An invalid cluster fails with kInvalidArgument, and with no states to
  // spend the estimator fails with kInternal. The estimator is
  // deterministic, so each failure is final: it stays in its own slot, next
  // to the good candidate's result, and counts once.
  const std::vector<SweepCandidate> requests = {{&flow, bad, ""},
                                                {&flow, cluster, ""}};
  SweepOptions options;
  options.threads = 1;
  const SweepResult sweep =
      EstimateBatch(requests, SchedulerConfig{}, source, options);
  EXPECT_EQ(sweep.stats.failures, 1);
  EXPECT_EQ(sweep.stats.completed, 1);
  ASSERT_FALSE(sweep.estimates[0].ok());
  EXPECT_EQ(sweep.estimates[0].status().code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(sweep.estimates[1].ok());

  options.estimator.max_states = 0;
  const SweepResult starved =
      EstimateBatch(requests, SchedulerConfig{}, source, options);
  EXPECT_EQ(starved.stats.completed, 0);
  EXPECT_EQ(starved.stats.failures, starved.stats.candidates);
  ASSERT_FALSE(starved.estimates[0].ok());
  EXPECT_EQ(starved.estimates[0].status().code(), ErrorCode::kInvalidArgument);
  ASSERT_FALSE(starved.estimates[1].ok());
  EXPECT_EQ(starved.estimates[1].status().code(), ErrorCode::kInternal);
}

}  // namespace
}  // namespace dagperf
