#include "model/task_time_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cluster/rate_solver.h"
#include "dag/dag_workflow.h"
#include "model/state_estimator.h"
#include "model/task_time_cache.h"
#include "resilience/fault.h"
#include "sim/simulator.h"

namespace dagperf {
namespace {

NodeSpec TestNode() {
  NodeSpec node;
  node.cores = 6;
  node.disk_read_bw = Rate::MBps(500);
  node.disk_write_bw = Rate::MBps(500);
  node.network_bw = Rate::MBps(100);
  return node;
}

StageProfile NetStage(double cv = 0.0) {
  StageProfile stage;
  stage.name = "job/map";
  stage.num_tasks = 10;
  stage.task_size_cv = cv;
  SubStageProfile ss;
  ss.name = "transfer";
  ss.demand[Resource::kNetwork] = Bytes::FromMB(100).value();
  stage.substages.push_back(ss);
  return stage;
}

TEST(BoeTaskTimeSourceTest, MatchesBoeModel) {
  const BoeModel model(TestNode());
  const BoeTaskTimeSource source(model);
  const StageProfile stage = NetStage();
  EstimationContext ctx;
  ctx.running.push_back({&stage, 4.0});
  ctx.query = 0;
  // 100 MB at 100/4 = 25 MB/s -> 4 s.
  EXPECT_NEAR(source.TaskTime(ctx).seconds(), 4.0, 1e-9);
}

TEST(BoeTaskTimeSourceTest, AddsFixedOverhead) {
  const BoeModel model(TestNode());
  const BoeTaskTimeSource source(model, Duration::Seconds(1.5));
  const StageProfile stage = NetStage();
  EstimationContext ctx;
  ctx.running.push_back({&stage, 4.0});
  EXPECT_NEAR(source.TaskTime(ctx).seconds(), 5.5, 1e-9);
}

TEST(BoeTaskTimeSourceTest, DistUsesStageCv) {
  const BoeModel model(TestNode());
  const BoeTaskTimeSource source(model);
  const StageProfile stage = NetStage(/*cv=*/0.25);
  EstimationContext ctx;
  ctx.running.push_back({&stage, 4.0});
  const NormalParams dist = source.TaskTimeDist(ctx);
  EXPECT_NEAR(dist.mean, 4.0, 1e-9);
  EXPECT_NEAR(dist.stddev, 1.0, 1e-9);
}

TEST(ProfileTaskTimeSourceTest, MeanAndMedianStatistics) {
  const StageProfile stage = NetStage();
  ProfileTaskTimeSource mean_source(ProfileStatistic::kMean);
  mean_source.AddProfile("job/map", {10, 10, 10, 30});
  ProfileTaskTimeSource median_source(ProfileStatistic::kMedian);
  median_source.AddProfile("job/map", {10, 10, 10, 30});

  EstimationContext ctx;
  ctx.running.push_back({&stage, 1.0});
  EXPECT_NEAR(mean_source.TaskTime(ctx).seconds(), 15.0, 1e-9);
  EXPECT_NEAR(median_source.TaskTime(ctx).seconds(), 10.0, 1e-9);
}

TEST(ProfileTaskTimeSourceTest, DistFromSample) {
  const StageProfile stage = NetStage();
  ProfileTaskTimeSource source(ProfileStatistic::kMean);
  source.AddProfile("job/map", {8, 12});
  EstimationContext ctx;
  ctx.running.push_back({&stage, 1.0});
  const NormalParams dist = source.TaskTimeDist(ctx);
  EXPECT_NEAR(dist.mean, 10.0, 1e-9);
  EXPECT_NEAR(dist.stddev, 2.0, 1e-9);
}

TEST(ProfileTaskTimeSourceTest, FromSimulationCoversAllStages) {
  JobSpec spec;
  spec.name = "profiled";
  spec.input = Bytes::FromGB(1);
  spec.num_reduce_tasks = 2;
  spec.replicas = 1;
  DagBuilder builder("flow");
  builder.AddJob(spec);
  const DagWorkflow flow = std::move(builder).Build().value();
  const Simulator sim(ClusterSpec::PaperCluster(), SchedulerConfig{});
  const SimResult result = sim.Run(flow).value();
  const ProfileTaskTimeSource source =
      ProfileTaskTimeSource::FromSimulation(flow, result, ProfileStatistic::kMean)
          .value();
  EXPECT_TRUE(source.HasProfile("profiled/map"));
  EXPECT_TRUE(source.HasProfile("profiled/reduce"));
  EXPECT_FALSE(source.HasProfile("other/map"));
}

TEST(ProfileTaskTimeSourceDeathTest, UnknownStageAborts) {
  const StageProfile stage = NetStage();
  ProfileTaskTimeSource source(ProfileStatistic::kMean);
  EstimationContext ctx;
  ctx.running.push_back({&stage, 1.0});
  EXPECT_DEATH((void)source.TaskTime(ctx), "job/map");
}


/// A stage with 1-3 sub-stages, each demanding a random subset of the
/// resources (possibly none) in random amounts.
StageProfile RandomStage(std::mt19937_64& rng, int index) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  StageProfile stage;
  stage.name = "job" + std::to_string(index) + "/map";
  stage.num_tasks = 1 + static_cast<int>(unit(rng) * 200);
  stage.task_size_cv = unit(rng);
  const int substages = 1 + static_cast<int>(unit(rng) * 3);
  for (int s = 0; s < substages; ++s) {
    SubStageProfile ss;
    ss.name = "sub" + std::to_string(s);
    for (Resource r : kAllResources) {
      if (unit(rng) < 0.4) continue;
      ss.demand[r] = r == Resource::kCpu ? 0.1 + 50.0 * unit(rng)
                                         : Bytes::FromMB(1 + 1000 * unit(rng)).value();
    }
    stage.substages.push_back(ss);
  }
  return stage;
}

/// Test-only copy of the straightforward BOE loops: every contention mode
/// built from whole TaskEstimate structs, one public SolveRates call per
/// solve, no flow table, no skipped solves. BoeModel's kernel must match it
/// bit for bit.
namespace naive {

constexpr double kInf = std::numeric_limits<double>::infinity();

ResourceVector PerTaskCaps() {
  ResourceVector caps;
  caps[Resource::kCpu] = 1.0;
  return caps;
}

SubStageEstimate EstimateSubStage(const SubStageProfile& substage,
                                  const ResourceVector& alloc) {
  SubStageEstimate est;
  est.name = substage.name;
  double worst = 0.0;
  for (Resource r : kAllResources) {
    const double demand = substage.demand[r];
    if (demand <= 0) continue;
    OpEstimate op;
    op.resource = r;
    op.demand = demand;
    const double a = alloc[r];
    op.time = std::isfinite(demand) && a > 0 ? Duration(demand / a)
                                             : Duration::Infinite();
    est.ops.push_back(op);
    if (op.time.seconds() > worst) {
      worst = op.time.seconds();
      est.bottleneck = r;
    }
  }
  est.duration = Duration(worst);
  for (auto& op : est.ops) {
    op.utilization = worst > 0 ? op.time.seconds() / worst : 0.0;
  }
  return est;
}

TaskEstimate CombineSubStages(const StageProfile& stage,
                              std::vector<SubStageEstimate> substages) {
  TaskEstimate task;
  task.stage_name = stage.name;
  double total = 0.0;
  double longest = -1.0;
  for (const auto& ss : substages) {
    total += ss.duration.seconds();
    if (ss.duration.seconds() > longest) {
      longest = ss.duration.seconds();
      task.bottleneck = ss.bottleneck;
    }
  }
  task.duration = Duration(total);
  task.substages = std::move(substages);
  return task;
}

std::vector<TaskEstimate> Paper(const ResourceVector& capacities,
                                const std::vector<ParallelStage>& stages) {
  ResourceVector contenders;
  for (const auto& ps : stages) {
    const ResourceVector total = ps.stage->TotalDemand();
    for (Resource r : kAllResources) {
      if (total[r] > 0) contenders[r] += ps.tasks_per_node;
    }
  }
  const ResourceVector task_caps = PerTaskCaps();
  ResourceVector alloc;
  for (Resource r : kAllResources) {
    double share = contenders[r] > 0 ? capacities[r] / contenders[r] : capacities[r];
    if (task_caps[r] > 0) share = std::min(std::max(share, 0.0), task_caps[r]);
    alloc[r] = share;
  }
  std::vector<TaskEstimate> out;
  for (const auto& ps : stages) {
    std::vector<SubStageEstimate> subs;
    for (const auto& ss : ps.stage->substages) subs.push_back(EstimateSubStage(ss, alloc));
    out.push_back(CombineSubStages(*ps.stage, std::move(subs)));
  }
  return out;
}

double Delta(const std::vector<TaskEstimate>& current,
             const std::vector<TaskEstimate>& next) {
  double delta = 0.0;
  for (size_t i = 0; i < current.size(); ++i) {
    const double old_t = current[i].duration.seconds();
    const double new_t = next[i].duration.seconds();
    if (old_t != kInf && new_t != kInf) {
      delta = std::max(delta, std::fabs(new_t - old_t) / std::max(old_t, 1e-12));
    }
  }
  return delta;
}

/// Stage j's tasks spread over its sub-stages in proportion to their time.
void AppendSpread(const std::vector<ParallelStage>& stages,
                  const std::vector<TaskEstimate>& current, size_t j,
                  std::vector<Flow>* flows,
                  std::vector<std::pair<size_t, size_t>>* keys) {
  const double total_time = std::max(current[j].duration.seconds(), 1e-12);
  for (size_t t = 0; t < stages[j].stage->substages.size(); ++t) {
    const double frac =
        std::max(current[j].substages[t].duration.seconds(), 0.0) / total_time;
    if (frac <= 1e-12) continue;
    Flow flow;
    flow.population = stages[j].tasks_per_node * frac;
    flow.demand = stages[j].stage->substages[t].demand;
    flow.per_task_cap = PerTaskCaps();
    flows->push_back(flow);
    if (keys != nullptr) keys->emplace_back(j, t);
  }
}

std::vector<TaskEstimate> SteadyState(const ResourceVector& capacities,
                                      const BoeOptions& options,
                                      const std::vector<ParallelStage>& stages) {
  std::vector<TaskEstimate> current = Paper(capacities, stages);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    std::vector<Flow> flows;
    std::vector<std::pair<size_t, size_t>> keys;
    for (size_t i = 0; i < stages.size(); ++i) {
      AppendSpread(stages, current, i, &flows, &keys);
    }
    const std::vector<FlowRate> rates = SolveRates(capacities, flows);
    std::vector<TaskEstimate> next = current;
    for (size_t k = 0; k < flows.size(); ++k) {
      const auto [i, s] = keys[k];
      next[i].substages[s] = EstimateSubStage(stages[i].stage->substages[s], rates[k].offered);
    }
    for (size_t i = 0; i < stages.size(); ++i) {
      next[i] = CombineSubStages(*stages[i].stage, std::move(next[i].substages));
    }
    const double delta = Delta(current, next);
    current = std::move(next);
    if (delta < options.tolerance) break;
  }
  return current;
}

std::vector<TaskEstimate> AlignedSelf(const ResourceVector& capacities,
                                      const BoeOptions& options,
                                      const std::vector<ParallelStage>& stages) {
  std::vector<TaskEstimate> current = Paper(capacities, stages);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    std::vector<TaskEstimate> next = current;
    for (size_t i = 0; i < stages.size(); ++i) {
      for (size_t s = 0; s < stages[i].stage->substages.size(); ++s) {
        std::vector<Flow> flows(1);
        flows[0].population = stages[i].tasks_per_node;
        flows[0].demand = stages[i].stage->substages[s].demand;
        flows[0].per_task_cap = PerTaskCaps();
        for (size_t j = 0; j < stages.size(); ++j) {
          if (j != i) AppendSpread(stages, current, j, &flows, nullptr);
        }
        const std::vector<FlowRate> rates = SolveRates(capacities, flows);
        next[i].substages[s] =
            EstimateSubStage(stages[i].stage->substages[s], rates[0].offered);
      }
    }
    for (size_t i = 0; i < stages.size(); ++i) {
      next[i] = CombineSubStages(*stages[i].stage, std::move(next[i].substages));
    }
    const double delta = Delta(current, next);
    current = std::move(next);
    if (delta < options.tolerance) break;
  }
  return current;
}

std::vector<TaskEstimate> Estimate(const NodeSpec& node, const BoeOptions& options,
                                   const std::vector<ParallelStage>& stages) {
  const ResourceVector capacities = node.Capacities();
  switch (options.mode) {
    case BoeOptions::ContentionMode::kPaper:
      return Paper(capacities, stages);
    case BoeOptions::ContentionMode::kSteadyState:
      return SteadyState(capacities, options, stages);
    case BoeOptions::ContentionMode::kAlignedSelf:
      return AlignedSelf(capacities, options, stages);
  }
  return {};
}

}  // namespace naive

/// Bitwise equality of two doubles (so -0.0 != 0.0 and NaN == NaN).
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(BoeKernelTest, MatchesNaiveLoopsBitForBitInEveryContentionMode) {
  std::mt19937_64 rng(1806);
  std::uniform_real_distribution<double> population(0.05, 12.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const BoeOptions::ContentionMode mode :
       {BoeOptions::ContentionMode::kPaper, BoeOptions::ContentionMode::kSteadyState,
        BoeOptions::ContentionMode::kAlignedSelf}) {
    BoeOptions options;
    options.mode = mode;
    for (int trial = 0; trial < 250; ++trial) {
      NodeSpec node = TestNode();
      node.cores = 1 + static_cast<int>(unit(rng) * 16);
      node.network_bw = Rate::MBps(20 + 400 * unit(rng));
      node.disk_read_bw = Rate::MBps(50 + 800 * unit(rng));
      const BoeModel model(node, options);
      const int k = 1 + trial % 6;
      std::vector<StageProfile> stages;
      for (int i = 0; i < k; ++i) stages.push_back(RandomStage(rng, i));
      std::vector<ParallelStage> running;
      for (const StageProfile& stage : stages) running.push_back({&stage, population(rng)});

      const std::vector<TaskEstimate> want = naive::Estimate(node, options, running);
      const std::vector<TaskEstimate> got = model.EstimateParallel(running);
      std::vector<double> durations;
      model.EstimateDurations(running, &durations);
      const std::string where =
          "mode " + std::to_string(static_cast<int>(mode)) + " trial " + std::to_string(trial);
      ASSERT_EQ(got.size(), want.size()) << where;
      ASSERT_EQ(durations.size(), want.size()) << where;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(SameBits(durations[i], want[i].duration.seconds())) << where;
        EXPECT_TRUE(SameBits(got[i].duration.seconds(), want[i].duration.seconds())) << where;
        EXPECT_EQ(got[i].bottleneck, want[i].bottleneck) << where;
        ASSERT_EQ(got[i].substages.size(), want[i].substages.size()) << where;
        for (size_t s = 0; s < want[i].substages.size(); ++s) {
          const SubStageEstimate& g = got[i].substages[s];
          const SubStageEstimate& w = want[i].substages[s];
          EXPECT_TRUE(SameBits(g.duration.seconds(), w.duration.seconds())) << where;
          EXPECT_EQ(g.bottleneck, w.bottleneck) << where;
          ASSERT_EQ(g.ops.size(), w.ops.size()) << where;
          for (size_t o = 0; o < w.ops.size(); ++o) {
            EXPECT_EQ(g.ops[o].resource, w.ops[o].resource) << where;
            EXPECT_TRUE(SameBits(g.ops[o].demand, w.ops[o].demand)) << where;
            EXPECT_TRUE(SameBits(g.ops[o].time.seconds(), w.ops[o].time.seconds())) << where;
            EXPECT_TRUE(SameBits(g.ops[o].utilization, w.ops[o].utilization)) << where;
          }
        }
      }
    }
  }
}

TEST(TaskTimesContractTest, BoeBatchEqualsPerQueryInEveryContentionMode) {
  std::mt19937_64 rng(2021);
  std::uniform_real_distribution<double> population(0.05, 12.0);
  for (const BoeOptions::ContentionMode mode :
       {BoeOptions::ContentionMode::kPaper, BoeOptions::ContentionMode::kSteadyState,
        BoeOptions::ContentionMode::kAlignedSelf}) {
    BoeOptions options;
    options.mode = mode;
    const BoeModel model(TestNode(), options);
    const BoeTaskTimeSource source(model, Duration::Seconds(0.5));
    for (int trial = 0; trial < 200; ++trial) {
      const int k = 1 + trial % 6;
      std::vector<StageProfile> stages;
      for (int i = 0; i < k; ++i) stages.push_back(RandomStage(rng, i));
      EstimationContext ctx;
      for (const StageProfile& stage : stages) {
        ctx.running.push_back({&stage, population(rng)});
      }
      ctx.query = static_cast<size_t>(trial) % k;  // Ignored by TaskTimes.
      std::vector<Duration> batched;
      source.TaskTimes(ctx, &batched);
      ASSERT_EQ(batched.size(), stages.size());
      for (int q = 0; q < k; ++q) {
        ctx.query = q;
        EXPECT_EQ(batched[q].seconds(), source.TaskTime(ctx).seconds())
            << "mode " << static_cast<int>(mode) << " trial " << trial
            << " query " << q;
      }
    }
  }
}

TEST(TaskTimesContractTest, DefaultBatchLoopsOverTaskTime) {
  // ProfileTaskTimeSource keeps the default TaskTimes: one TaskTime per
  // running stage, contention buckets included.
  StageProfile a = NetStage();
  a.name = "a/map";
  StageProfile b = NetStage();
  b.name = "b/map";
  ProfileTaskTimeSource source(ProfileStatistic::kMean);
  source.AddProfile("a/map", {10});
  source.AddProfile("b/map", {20});
  source.AddContextProfile({"b/map", "a/map"}, "b/map", {30});
  EstimationContext ctx;
  ctx.running.push_back({&a, 1.0});
  ctx.running.push_back({&b, 2.0});
  std::vector<Duration> batched = {Duration(99), Duration(99), Duration(99)};
  source.TaskTimes(ctx, &batched);
  ASSERT_EQ(batched.size(), 2u);
  EXPECT_EQ(batched[0].seconds(), 10.0);
  EXPECT_EQ(batched[1].seconds(), 30.0);
}

TEST(TaskTimeDistsContractTest, BoeBatchEqualsPerQueryBitForBit) {
  std::mt19937_64 rng(2104);
  std::uniform_real_distribution<double> population(0.05, 12.0);
  std::uniform_real_distribution<double> cv(0.0, 0.8);
  const BoeModel model(TestNode());
  const BoeTaskTimeSource source(model, Duration::Seconds(0.5));
  TaskTimeMemo memo;
  const MemoizedTaskTimeSource memoized(source, &memo);
  for (int trial = 0; trial < 200; ++trial) {
    const int k = 1 + trial % 6;
    std::vector<StageProfile> stages;
    for (int i = 0; i < k; ++i) {
      stages.push_back(RandomStage(rng, i));
      stages.back().task_size_cv = cv(rng);
    }
    EstimationContext ctx;
    for (const StageProfile& stage : stages) {
      ctx.running.push_back({&stage, population(rng)});
    }
    std::vector<NormalParams> batched;
    source.TaskTimeDists(ctx, &batched);
    ASSERT_EQ(batched.size(), stages.size());
    // The memo answers the same bits computed (first pass) and stored
    // (second pass).
    std::vector<NormalParams> computed;
    std::vector<NormalParams> stored;
    memoized.TaskTimeDists(ctx, &computed);
    memoized.TaskTimeDists(ctx, &stored);
    for (int q = 0; q < k; ++q) {
      ctx.query = q;
      const NormalParams want = source.TaskTimeDist(ctx);
      for (const std::vector<NormalParams>* got : {&batched, &computed, &stored}) {
        EXPECT_TRUE(SameBits((*got)[q].mean, want.mean)) << trial << " " << q;
        EXPECT_TRUE(SameBits((*got)[q].stddev, want.stddev)) << trial << " " << q;
      }
    }
  }
  EXPECT_GT(memo.stats().hits, 0u);
}

TEST(TaskTimeDistsContractTest, DefaultBatchLoopsOverTaskTimeDist) {
  StageProfile a = NetStage();
  a.name = "a/map";
  StageProfile b = NetStage();
  b.name = "b/map";
  ProfileTaskTimeSource source(ProfileStatistic::kMean);
  source.AddProfile("a/map", {10, 14});
  source.AddProfile("b/map", {20});
  EstimationContext ctx;
  ctx.running.push_back({&a, 1.0});
  ctx.running.push_back({&b, 2.0});
  std::vector<NormalParams> batched(3);
  source.TaskTimeDists(ctx, &batched);
  ASSERT_EQ(batched.size(), 2u);
  for (size_t q = 0; q < 2; ++q) {
    ctx.query = q;
    const NormalParams want = source.TaskTimeDist(ctx);
    EXPECT_EQ(batched[q].mean, want.mean);
    EXPECT_EQ(batched[q].stddev, want.stddev);
  }
}

/// Counts evaluations of the `model.task_time` seam: armed at probability 1
/// with no latency and no error, every BOE solve fires it once and changes
/// nothing else.
class SolveCounter {
 public:
  SolveCounter()
      : point_(resilience::FaultInjector::Default().GetPoint("model.task_time")) {
    resilience::FaultInjector& injector = resilience::FaultInjector::Default();
    EXPECT_TRUE(injector.Configure("model.task_time", {.probability = 1.0}).ok());
    injector.Arm(1);
  }
  ~SolveCounter() {
    resilience::FaultInjector::Default().Disarm();
    resilience::FaultInjector::Default().ResetAll();
  }
  std::uint64_t fires() const { return point_.fires(); }

 private:
  resilience::FaultPoint& point_;
};

TEST(TaskTimeDistsContractTest, SkewAwareEstimateSolvesEachStateOnce) {
  // Three jobs with reducer skew: a and b run side by side, c follows a, so
  // most states hold several running stages.
  auto job = [](const std::string& name) {
    JobSpec spec;
    spec.name = name;
    spec.input = Bytes::FromGB(4);
    spec.num_reduce_tasks = 8;
    spec.replicas = 1;
    spec.remote_read_fraction = 0.0;
    spec.reduce_skew_cv = 0.4;
    return spec;
  };
  DagBuilder builder("skewed");
  const JobId a = builder.AddJob(job("a"));
  builder.AddJob(job("b"));
  builder.AddJobAfter(a, job("c"));
  const DagWorkflow flow = std::move(builder).Build().value();
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  const BoeModel model(cluster.node);
  const BoeTaskTimeSource source(model, Duration::Seconds(1));
  EstimatorOptions skewed;
  skewed.skew_aware = true;
  const StateBasedEstimator plain_estimator(cluster, SchedulerConfig{});
  const StateBasedEstimator skew_estimator(cluster, SchedulerConfig{}, skewed);

  SolveCounter counter;
  const Result<DagEstimate> plain = plain_estimator.Estimate(flow, source);
  const std::uint64_t plain_solves = counter.fires();
  const Result<DagEstimate> skew = skew_estimator.Estimate(flow, source);
  const std::uint64_t skew_solves = counter.fires() - plain_solves;
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(skew.ok()) << skew.status().ToString();
  std::size_t running = 0;
  for (const StateEstimate& state : skew.value().states) {
    running += static_cast<std::size_t>(state.running_count);
  }
  ASSERT_GT(running, skew.value().states.size())
      << "the flow must run several stages at once to tell the paths apart";
  // One solve per state either way: skew awareness reads the spread off the
  // same solve instead of re-solving the state per running stage.
  EXPECT_EQ(plain_solves, plain.value().states.size());
  EXPECT_EQ(skew_solves, plain_solves);
  EXPECT_GT(skew.value().makespan.seconds(), 0.0);
}

}  // namespace
}  // namespace dagperf
