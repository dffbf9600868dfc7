#include "model/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "model/task_time_cache.h"
#include "workloads/hibench.h"
#include "workloads/micro.h"
#include "workloads/suite.h"
#include "workloads/tpch.h"

namespace dagperf {
namespace {

const ClusterSpec kCluster = ClusterSpec::PaperCluster();
const SchedulerConfig kSched;

/// The golden-equivalence workload set: HiBench iterative DAGs, plain TPC-H
/// queries, and Table III hybrids (micro + TPC-H side by side).
std::vector<DagWorkflow> GoldenSuite() {
  std::vector<DagWorkflow> flows;
  flows.push_back(KMeansFlow(Bytes::FromGB(10), 2).value());
  flows.push_back(PageRankFlow(Bytes::FromGB(9), 2).value());
  flows.push_back(TpchQueryFlow(1, Bytes::FromGB(8)).value());
  flows.push_back(TpchQueryFlow(5, Bytes::FromGB(8)).value());
  flows.push_back(TableThreeFlow("TS-Q6", 0.1).value().flow);
  flows.push_back(TableThreeFlow("WC-KM", 0.1).value().flow);
  return flows;
}

/// Exact, bit-level comparison of two estimates. The sweep engine's
/// contract is bit-identity, so every double is compared with ==.
void ExpectIdentical(const DagEstimate& a, const DagEstimate& b) {
  EXPECT_EQ(a.makespan.seconds(), b.makespan.seconds());
  ASSERT_EQ(a.states.size(), b.states.size());
  for (size_t s = 0; s < a.states.size(); ++s) {
    EXPECT_EQ(a.states[s].index, b.states[s].index);
    EXPECT_EQ(a.states[s].start, b.states[s].start);
    EXPECT_EQ(a.states[s].duration, b.states[s].duration);
    const RunningSpan ra = a.running(a.states[s]);
    const RunningSpan rb = b.running(b.states[s]);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t r = 0; r < ra.size(); ++r) {
      EXPECT_EQ(ra[r].job, rb[r].job);
      EXPECT_EQ(ra[r].kind, rb[r].kind);
      EXPECT_EQ(ra[r].parallelism, rb[r].parallelism);
      EXPECT_EQ(ra[r].task_time_s, rb[r].task_time_s);
    }
  }
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t s = 0; s < a.stages.size(); ++s) {
    EXPECT_EQ(a.stages[s].job, b.stages[s].job);
    EXPECT_EQ(a.stages[s].kind, b.stages[s].kind);
    EXPECT_EQ(a.stages[s].start, b.stages[s].start);
    EXPECT_EQ(a.stages[s].end, b.stages[s].end);
  }
}

TEST(SweepDeterminismTest, ParallelCachedMatchesSerialUncachedBitExactly) {
  const std::vector<DagWorkflow> flows = GoldenSuite();
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));

  // Serial ground truth: the plain estimator, no cache, one flow at a time.
  const StateBasedEstimator estimator(kCluster, kSched);
  std::vector<DagEstimate> golden;
  for (const DagWorkflow& flow : flows) {
    golden.push_back(estimator.Estimate(flow, source).value());
  }

  std::vector<SweepCandidate> requests;
  for (const DagWorkflow& flow : flows) requests.push_back({&flow, kCluster, ""});
  SweepOptions options;
  options.threads = 4;  // Parallel + shared cache: the full sweep engine.
  const SweepResult batch = EstimateBatch(requests, kSched, source, options);

  ASSERT_EQ(batch.estimates.size(), flows.size());
  for (size_t i = 0; i < flows.size(); ++i) {
    ASSERT_TRUE(batch.estimates[i].ok()) << batch.estimates[i].status().ToString();
    ExpectIdentical(*batch.estimates[i], golden[i]);
  }
}

TEST(SweepDeterminismTest, SkewAwareCachedMatchesUncached) {
  // The Alg2-Normal path queries TaskTimeDist; the memo must be exact there
  // too.
  const DagWorkflow flow = TableThreeFlow("WC-Q6", 0.1).value().flow;
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  EstimatorOptions est_options;
  est_options.skew_aware = true;

  const StateBasedEstimator estimator(kCluster, kSched, est_options);
  const DagEstimate golden = estimator.Estimate(flow, source).value();

  TaskTimeMemo memo;
  const MemoizedTaskTimeSource cached(source, &memo);
  // Two passes: the second answers everything from the memo.
  const DagEstimate first = estimator.Estimate(flow, cached).value();
  const DagEstimate second = estimator.Estimate(flow, cached).value();
  ExpectIdentical(first, golden);
  ExpectIdentical(second, golden);
  const TaskTimeMemo::Stats stats = memo.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.entries, 0u);
}

TEST(SweepDeterminismTest, RepeatedBatchesAreStable) {
  // Same batch twice (fresh internal cache each time, different thread
  // interleavings): identical output both times.
  const DagWorkflow flow = TpchQueryFlow(9, Bytes::FromGB(8)).value();
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  std::vector<SweepCandidate> requests;
  for (int i = 0; i < 8; ++i) requests.push_back({&flow, kCluster, ""});
  SweepOptions options;
  options.threads = 4;
  const SweepResult a = EstimateBatch(requests, kSched, source, options);
  const SweepResult b = EstimateBatch(requests, kSched, source, options);
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectIdentical(*a.estimates[i], *b.estimates[i]);
    ExpectIdentical(*a.estimates[i], *a.estimates[0]);
  }
  // Identical candidates share everything after the first: each one resumes
  // from the first candidate's full-depth checkpoint.
  EXPECT_EQ(a.stats.prefix_hits, requests.size() - 1);
  EXPECT_GT(a.stats.resumed_states, 0u);

  // With incremental resume off, the sharing falls back to the task-time
  // memo: high hit rate, still bit-identical.
  options.incremental = false;
  const SweepResult c = EstimateBatch(requests, kSched, source, options);
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectIdentical(*c.estimates[i], *a.estimates[i]);
  }
  EXPECT_GT(c.stats.cache_hit_rate, 0.5);
}

TEST(SweepDeterminismTest, IncrementalMatchesFullReplayOnGoldenSuite) {
  // The incremental engine's contract over the whole golden workload set:
  // resuming from prefix checkpoints must be indistinguishable, bit for bit,
  // from replaying every candidate in full.
  const std::vector<DagWorkflow> flows = GoldenSuite();
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));

  std::vector<SweepCandidate> requests;
  for (const DagWorkflow& flow : flows) requests.push_back({&flow, kCluster, ""});

  // The suite runs twice over one caller-owned checkpoint store, so every
  // flow of the second batch has a full-depth checkpoint to hit. (Duplicates
  // inside one batch could be dequeued before their originals stored one.)
  PrefixCheckpointStore checkpoints;
  SweepOptions incremental;
  incremental.threads = 4;
  incremental.checkpoints = &checkpoints;
  SweepOptions replay;
  replay.threads = 4;
  replay.incremental = false;
  const SweepResult first = EstimateBatch(requests, kSched, source, incremental);
  const SweepResult repeat = EstimateBatch(requests, kSched, source, incremental);
  const SweepResult full = EstimateBatch(requests, kSched, source, replay);
  ASSERT_EQ(first.estimates.size(), requests.size());
  ASSERT_EQ(repeat.estimates.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(first.estimates[i].ok()) << first.estimates[i].status().ToString();
    ASSERT_TRUE(repeat.estimates[i].ok()) << repeat.estimates[i].status().ToString();
    ExpectIdentical(*first.estimates[i], *full.estimates[i]);
    ExpectIdentical(*repeat.estimates[i], *full.estimates[i]);
  }
  // The repeated suite actually exercised resume.
  EXPECT_GE(repeat.stats.prefix_hits, flows.size());
  EXPECT_GT(repeat.stats.resumed_states, 0u);
  EXPECT_EQ(full.stats.prefix_hits, 0u);
}

/// A three-job chain whose last job carries the swept knob — the dense
/// tuner-neighborhood shape the incremental engine is built for.
DagWorkflow ChainWithReducers(int reducers) {
  DagBuilder builder("chain-r" + std::to_string(reducers));
  const JobId a = builder.AddJob(WordCountSpec(Bytes::FromGB(20)));
  const JobId b = builder.AddJobAfter(a, TsSpec(Bytes::FromGB(10)));
  JobSpec last = TsSpec(Bytes::FromGB(5));
  last.num_reduce_tasks = reducers;
  builder.AddJobAfter(b, last);
  return std::move(builder).Build().value();
}

TEST(SweepDeterminismTest, RandomizedKnobOrderingsStayBitIdentical) {
  // Checkpoint resume depth depends on what happens to be in the store when
  // a candidate runs, which depends on evaluation order — but the *results*
  // must not. Sweep the same neighborhood under shuffled request orders and
  // demand every estimate equals its serial uncached golden.
  std::vector<DagWorkflow> flows;
  std::vector<int> knobs = {4, 8, 12, 16, 24, 32, 48, 64};
  for (int reducers : knobs) flows.push_back(ChainWithReducers(reducers));

  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const StateBasedEstimator estimator(kCluster, kSched);
  std::vector<DagEstimate> golden;
  for (const DagWorkflow& flow : flows) {
    golden.push_back(estimator.Estimate(flow, source).value());
  }

  std::vector<size_t> perm(flows.size());
  std::iota(perm.begin(), perm.end(), 0);
  for (unsigned seed = 0; seed < 4; ++seed) {
    if (seed > 0) {
      std::mt19937 rng(seed);
      std::shuffle(perm.begin(), perm.end(), rng);
    }
    std::vector<SweepCandidate> requests;
    for (size_t i : perm) requests.push_back({&flows[i], kCluster, ""});
    SweepOptions options;
    options.threads = 4;
    const SweepResult batch = EstimateBatch(requests, kSched, source, options);
    for (size_t slot = 0; slot < perm.size(); ++slot) {
      ASSERT_TRUE(batch.estimates[slot].ok())
          << batch.estimates[slot].status().ToString();
      ExpectIdentical(*batch.estimates[slot], golden[perm[slot]]);
    }
    // The shared two-job prefix was found no matter the order.
    EXPECT_GT(batch.stats.prefix_hits, 0u) << "seed " << seed;
    EXPECT_GT(batch.stats.resumed_states, 0u) << "seed " << seed;
  }
}

TEST(EstimateBatchTest, ReducerSweepSharesMapWork) {
  const Result<std::vector<DagWorkflow>> flows =
      BuildReducerCandidates(TsSpec(Bytes::FromGB(20)), {8, 16, 32, 64});
  ASSERT_TRUE(flows.ok());
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  std::vector<SweepCandidate> requests;
  for (const DagWorkflow& flow : *flows) requests.push_back({&flow, kCluster, ""});
  const SweepResult result = EstimateBatch(requests, kSched, source);

  EXPECT_EQ(result.stats.candidates, 4);
  EXPECT_EQ(result.stats.failures, 0);
  // The map stage is identical across candidates; its states must hit.
  EXPECT_GT(result.stats.cache_hits, 0u);
  // best_index is the first minimal makespan.
  ASSERT_GE(result.stats.best_index, 0);
  for (const auto& estimate : result.estimates) {
    EXPECT_GE(estimate->makespan, result.stats.best_makespan);
  }
}

TEST(EstimateBatchTest, ReportsPerCandidateFailures) {
  const DagWorkflow flow = TpchQueryFlow(1, Bytes::FromGB(4)).value();
  std::vector<SweepCandidate> requests;
  requests.push_back({&flow, kCluster, "good"});
  requests.push_back({nullptr, kCluster, "no-flow"});
  ClusterSpec bad = kCluster;
  bad.num_nodes = 0;
  requests.push_back({&flow, bad, "bad-cluster"});

  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const SweepResult result = EstimateBatch(requests, kSched, source);
  EXPECT_TRUE(result.estimates[0].ok());
  EXPECT_FALSE(result.estimates[1].ok());
  EXPECT_FALSE(result.estimates[2].ok());
  EXPECT_EQ(result.stats.failures, 2);
  EXPECT_EQ(result.stats.best_index, 0);
}

TEST(EstimateBatchTest, EmptyBatch) {
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const SweepResult result = EstimateBatch({}, kSched, source);
  EXPECT_TRUE(result.estimates.empty());
  EXPECT_EQ(result.stats.candidates, 0);
  EXPECT_EQ(result.stats.best_index, -1);
}

TEST(EstimateBatchTest, ExternalMemoAccumulatesAcrossCalls) {
  const DagWorkflow flow = KMeansFlow(Bytes::FromGB(5), 2).value();
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  std::vector<SweepCandidate> requests{{&flow, kCluster, ""}};
  TaskTimeMemo memo;
  SweepOptions options;
  options.memo = &memo;
  const SweepResult first = EstimateBatch(requests, kSched, source, options);
  const SweepResult second = EstimateBatch(requests, kSched, source, options);
  // The second call answers everything from the memo warmed by the first,
  // and per-batch stats count only that batch's queries.
  EXPECT_EQ(second.stats.cache_misses, 0u);
  EXPECT_EQ(second.stats.cache_hit_rate, 1.0);
  ExpectIdentical(*first.estimates[0], *second.estimates[0]);
}

TEST(TaskTimeMemoTest, ScopeSeparatesEntries) {
  // Same context under different scopes must not collide: two node types
  // sharing one memo get distinct entries.
  DagBuilder builder("wc-scope");
  builder.AddJob(WordCountSpec(Bytes::FromGB(50)));  // CPU-bound, slots full.
  const DagWorkflow flow = std::move(builder).Build().value();
  const BoeModel boe_a(kCluster.node);
  NodeSpec slow = kCluster.node;
  slow.cores = 1;  // Same scheduler view, much weaker execution model.
  const BoeModel boe_b(slow);
  const BoeTaskTimeSource source_a(boe_a, Duration::Seconds(1));
  const BoeTaskTimeSource source_b(boe_b, Duration::Seconds(1));

  TaskTimeMemo memo;
  const MemoizedTaskTimeSource cached_a(source_a, &memo, "paper-node");
  const MemoizedTaskTimeSource cached_b(source_b, &memo, "slow-node");
  const StateBasedEstimator estimator(kCluster, kSched);
  const DagEstimate est_a = estimator.Estimate(flow, cached_a).value();
  const DagEstimate est_b = estimator.Estimate(flow, cached_b).value();
  // The scoped entries kept the two models apart: fewer cores, slower job.
  EXPECT_GT(est_b.makespan.seconds(), est_a.makespan.seconds());
  // And both match their uncached versions exactly.
  ExpectIdentical(est_a, estimator.Estimate(flow, source_a).value());
  ExpectIdentical(est_b, estimator.Estimate(flow, source_b).value());
}

TEST(TaskTimeMemoTest, BatchedFillServesEveryQuery) {
  // One memoised TaskTimes() stores an entry per running stage: every
  // per-query TaskTime() then hits and equals the wrapped source's answer.
  DagBuilder builder("chain");
  const JobId a = builder.AddJob(WordCountSpec(Bytes::FromGB(20)));
  const JobId b = builder.AddJobAfter(a, TsSpec(Bytes::FromGB(10)));
  builder.AddJobAfter(b, TsSpec(Bytes::FromGB(5)));
  const DagWorkflow flow = std::move(builder).Build().value();
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  EstimationContext ctx;
  const double populations[] = {2.5, 0.75, 4.0};
  for (JobId id = 0; id < flow.num_jobs(); ++id) {
    ctx.running.push_back({&flow.job(id).map, populations[id % 3]});
  }

  TaskTimeMemo memo;
  const MemoizedTaskTimeSource memoized(source, &memo, "scope");
  std::vector<Duration> times;
  memoized.TaskTimes(ctx, &times);
  ASSERT_EQ(times.size(), ctx.running.size());
  EXPECT_EQ(memo.stats().misses, ctx.running.size());
  EXPECT_EQ(memo.stats().entries, ctx.running.size());

  for (size_t q = 0; q < ctx.running.size(); ++q) {
    ctx.query = q;
    EXPECT_EQ(memoized.TaskTime(ctx).seconds(), times[q].seconds());
    EXPECT_EQ(memoized.TaskTime(ctx).seconds(), source.TaskTime(ctx).seconds());
  }
  // Each TaskTime() probes the whole state; every probe hits.
  EXPECT_EQ(memo.stats().misses, ctx.running.size());
  EXPECT_EQ(memo.stats().hits, 2 * ctx.running.size() * ctx.running.size());
}

}  // namespace
}  // namespace dagperf
