#include "model/task_time_source.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

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

}  // namespace
}  // namespace dagperf
