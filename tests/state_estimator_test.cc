#include "model/state_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/stats.h"
#include "sim/simulator.h"

namespace dagperf {
namespace {

ClusterSpec TestCluster(int nodes = 4) {
  ClusterSpec c = ClusterSpec::PaperCluster();
  c.num_nodes = nodes;
  return c;
}

JobSpec SimpleJob(const std::string& name, double input_gb = 4.0) {
  JobSpec spec;
  spec.name = name;
  spec.input = Bytes::FromGB(input_gb);
  spec.num_reduce_tasks = 8;
  spec.replicas = 1;
  spec.remote_read_fraction = 0.0;
  return spec;
}

DagWorkflow SingleJobFlow(const JobSpec& spec) {
  DagBuilder b(spec.name + "-flow");
  b.AddJob(spec);
  return std::move(b).Build().value();
}

/// A trivial source returning a constant task time for every stage.
class ConstantSource : public TaskTimeSource {
 public:
  explicit ConstantSource(double seconds) : seconds_(seconds) {}
  Duration TaskTime(const EstimationContext&) const override {
    return Duration(seconds_);
  }

 private:
  double seconds_;
};

TEST(StateEstimatorTest, SingleStageWaveArithmetic) {
  // 16 map tasks, parallelism 8 (2 nodes x 4 slots), 10 s per task:
  // two map waves. Map-only job -> 20 s.
  JobSpec spec = SimpleJob("waves", 4.0);
  spec.num_reduce_tasks = 0;
  spec.split_size = Bytes::FromMB(256);  // 16 tasks.
  const DagWorkflow flow = SingleJobFlow(spec);

  SchedulerConfig sched;
  sched.max_tasks_per_node = 4;
  const StateBasedEstimator estimator(TestCluster(2), sched);
  const DagEstimate est = estimator.Estimate(flow, ConstantSource(10.0)).value();
  EXPECT_NEAR(est.makespan.seconds(), 20.0, 1e-9);
  ASSERT_EQ(est.states.size(), 1u);
  EXPECT_EQ(est.running(est.states[0]).size(), 1u);
  EXPECT_EQ(est.running(est.states[0])[0].parallelism, 8);
}

TEST(StateEstimatorTest, PartialLastWaveCostsFullWave) {
  // 17 tasks at parallelism 8: 3 waves under the discrete model.
  JobSpec spec = SimpleJob("partial", 4.25);
  spec.num_reduce_tasks = 0;
  spec.input = Bytes::FromMB(17 * 256);
  const DagWorkflow flow = SingleJobFlow(spec);
  SchedulerConfig sched;
  sched.max_tasks_per_node = 4;
  const StateBasedEstimator estimator(TestCluster(2), sched);
  const DagEstimate est = estimator.Estimate(flow, ConstantSource(10.0)).value();
  EXPECT_NEAR(est.makespan.seconds(), 30.0, 1e-9);
}

TEST(StateEstimatorTest, FluidModelSkipsWaveQuantisation) {
  JobSpec spec = SimpleJob("fluid", 4.25);
  spec.num_reduce_tasks = 0;
  spec.input = Bytes::FromMB(17 * 256);
  const DagWorkflow flow = SingleJobFlow(spec);
  SchedulerConfig sched;
  sched.max_tasks_per_node = 4;
  EstimatorOptions options;
  options.wave_model = EstimatorOptions::WaveModel::kFluid;
  const StateBasedEstimator estimator(TestCluster(2), sched, options);
  const DagEstimate est = estimator.Estimate(flow, ConstantSource(10.0)).value();
  EXPECT_NEAR(est.makespan.seconds(), 17.0 / 8.0 * 10.0, 1e-9);
}

TEST(StateEstimatorTest, MapThenReduceStates) {
  const DagWorkflow flow = SingleJobFlow(SimpleJob("mr"));
  const StateBasedEstimator estimator(TestCluster(), SchedulerConfig{});
  const DagEstimate est = estimator.Estimate(flow, ConstantSource(5.0)).value();
  // Two states: map running, then reduce running.
  ASSERT_EQ(est.states.size(), 2u);
  EXPECT_EQ(est.running(est.states[0])[0].kind, StageKind::kMap);
  EXPECT_EQ(est.running(est.states[1])[0].kind, StageKind::kReduce);
  // Stage spans recorded and contiguous.
  const StageSpanEstimate map = est.FindStage(0, StageKind::kMap).value();
  const StageSpanEstimate reduce = est.FindStage(0, StageKind::kReduce).value();
  EXPECT_NEAR(map.start, 0.0, 1e-9);
  EXPECT_NEAR(reduce.start, map.end, 1e-9);
  EXPECT_NEAR(est.makespan.seconds(), reduce.end, 1e-9);
}

TEST(StateEstimatorTest, StateDurationsSumToMakespan) {
  DagBuilder b("two-jobs");
  b.AddJob(SimpleJob("a", 2.0));
  b.AddJob(SimpleJob("c", 6.0));
  const DagWorkflow flow = std::move(b).Build().value();
  const StateBasedEstimator estimator(TestCluster(), SchedulerConfig{});
  const DagEstimate est = estimator.Estimate(flow, ConstantSource(7.0)).value();
  double total = 0;
  for (const auto& st : est.states) total += st.duration;
  EXPECT_NEAR(total, est.makespan.seconds(), 1e-9);
  // States are indexed 1..S and contiguous.
  for (size_t i = 0; i < est.states.size(); ++i) {
    EXPECT_EQ(est.states[i].index, static_cast<int>(i) + 1);
    if (i > 0) {
      EXPECT_NEAR(est.states[i].start,
                  est.states[i - 1].start + est.states[i - 1].duration, 1e-9);
    }
  }
}

TEST(StateEstimatorTest, DagDependencySequencesJobs) {
  DagBuilder b("chain");
  const JobId a = b.AddJob(SimpleJob("a"));
  const JobId c = b.AddJobAfter(a, SimpleJob("c"));
  const DagWorkflow flow = std::move(b).Build().value();
  const StateBasedEstimator estimator(TestCluster(), SchedulerConfig{});
  const DagEstimate est = estimator.Estimate(flow, ConstantSource(5.0)).value();
  const StageSpanEstimate a_reduce = est.FindStage(a, StageKind::kReduce).value();
  const StageSpanEstimate c_map = est.FindStage(c, StageKind::kMap).value();
  EXPECT_GE(c_map.start, a_reduce.end - 1e-9);
}

TEST(StateEstimatorTest, SkewAwareEstimateIsLonger) {
  JobSpec spec = SimpleJob("skew");
  spec.reduce_skew_cv = 0.4;
  const DagWorkflow flow = SingleJobFlow(spec);
  // Profile source with spread; skew-aware should add wave-tail latency.
  ProfileTaskTimeSource source(ProfileStatistic::kMean);
  source.AddProfile("skew/map", {10, 10, 10});
  source.AddProfile("skew/reduce", {5, 8, 10, 12, 15});

  EstimatorOptions plain;
  EstimatorOptions skewed;
  skewed.skew_aware = true;
  const StateBasedEstimator est_plain(TestCluster(), SchedulerConfig{}, plain);
  const StateBasedEstimator est_skew(TestCluster(), SchedulerConfig{}, skewed);
  const double t_plain = est_plain.Estimate(flow, source).value().makespan.seconds();
  const double t_skew = est_skew.Estimate(flow, source).value().makespan.seconds();
  EXPECT_GT(t_skew, t_plain);
}

TEST(StateEstimatorTest, BoeSourceEndToEndAgainstSimulator) {
  // Full-model estimate vs ground truth on a clean single job: the
  // analytical estimate should land within ~20% of the simulator.
  JobSpec spec = SimpleJob("e2e", 8.0);
  const DagWorkflow flow = SingleJobFlow(spec);
  const ClusterSpec cluster = TestCluster();
  const SchedulerConfig sched;
  SimOptions sim_options;
  sim_options.task_startup_seconds = 1.0;
  const Simulator sim(cluster, sched, sim_options);
  const SimResult truth = sim.Run(flow).value();

  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1.0));
  const StateBasedEstimator estimator(cluster, sched);
  const DagEstimate est = estimator.Estimate(flow, source).value();
  EXPECT_GT(RelativeAccuracy(est.makespan.seconds(), truth.makespan().seconds()),
            0.8);
}

TEST(StateEstimatorTest, ProfileSourceReproducesSimulatorClosely) {
  // Table III methodology: profile the exact run, then re-estimate with the
  // state machine. Accuracy should be high (>90%).
  DagBuilder b("hybrid");
  b.AddJob(SimpleJob("wc", 6.0));
  b.AddJob(SimpleJob("ts", 6.0));
  const DagWorkflow flow = std::move(b).Build().value();
  const ClusterSpec cluster = TestCluster();
  const SchedulerConfig sched;
  const Simulator sim(cluster, sched);
  const SimResult truth = sim.Run(flow).value();
  const ProfileTaskTimeSource source =
      ProfileTaskTimeSource::FromSimulation(flow, truth, ProfileStatistic::kMean)
          .value();
  const StateBasedEstimator estimator(cluster, sched);
  const DagEstimate est = estimator.Estimate(flow, source).value();
  EXPECT_GT(RelativeAccuracy(est.makespan.seconds(), truth.makespan().seconds()),
            0.9);
}

TEST(StateEstimatorTest, ParallelismSplitsAcrossJobs) {
  DagBuilder b("split");
  b.AddJob(SimpleJob("a", 40.0));
  b.AddJob(SimpleJob("c", 40.0));
  const DagWorkflow flow = std::move(b).Build().value();
  const StateBasedEstimator estimator(TestCluster(), SchedulerConfig{});
  const DagEstimate est = estimator.Estimate(flow, ConstantSource(10.0)).value();
  // First state: both maps running, each with half the 4*12=48 slots.
  ASSERT_GE(est.states.size(), 1u);
  ASSERT_EQ(est.running(est.states[0]).size(), 2u);
  EXPECT_EQ(est.running(est.states[0])[0].parallelism, 24);
  EXPECT_EQ(est.running(est.states[0])[1].parallelism, 24);
}


/// Wraps a source and counts each kind of query the estimator makes.
class CountingSource : public TaskTimeSource {
 public:
  explicit CountingSource(const TaskTimeSource& base) : base_(base) {}
  Duration TaskTime(const EstimationContext& context) const override {
    ++task_time_calls;
    return base_.TaskTime(context);
  }
  void TaskTimes(const EstimationContext& context,
                 std::vector<Duration>* out) const override {
    ++task_times_calls;
    base_.TaskTimes(context, out);
  }
  NormalParams TaskTimeDist(const EstimationContext& context) const override {
    ++task_time_dist_calls;
    return base_.TaskTimeDist(context);
  }

  mutable int task_time_calls = 0;
  mutable int task_times_calls = 0;
  mutable int task_time_dist_calls = 0;

 private:
  const TaskTimeSource& base_;
};

/// Two source jobs, one with a child, so some states run several stages at
/// once.
DagWorkflow FanFlow() {
  DagBuilder builder("fan");
  const JobId a = builder.AddJob(SimpleJob("a", 6.0));
  builder.AddJob(SimpleJob("b", 3.0));
  builder.AddJobAfter(a, SimpleJob("c", 2.0));
  return std::move(builder).Build().value();
}

TEST(StateEstimatorTest, SkewUnawarePricesEachStateWithOneBatchedQuery) {
  const DagWorkflow flow = FanFlow();
  const ClusterSpec cluster = TestCluster();
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource base(boe, Duration::Seconds(1));
  const CountingSource counting(base);

  const StateBasedEstimator estimator(cluster, SchedulerConfig{});
  const DagEstimate estimate = estimator.Estimate(flow, counting).value();
  EXPECT_EQ(counting.task_times_calls, static_cast<int>(estimate.states.size()));
  EXPECT_EQ(counting.task_time_dist_calls, 0);
  EXPECT_EQ(counting.task_time_calls, 0);
  // Some state runs several stages at once, so the batch really is shared.
  int max_running = 0;
  for (const StateEstimate& state : estimate.states) {
    max_running = std::max(max_running, state.running_count);
  }
  EXPECT_GT(max_running, 1);
  EXPECT_EQ(estimate.makespan.seconds(),
            estimator.Estimate(flow, base).value().makespan.seconds());
}

TEST(StateEstimatorTest, SkewAwareKeepsPerStageDistributionQueries) {
  const DagWorkflow flow = FanFlow();
  const ClusterSpec cluster = TestCluster();
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource base(boe, Duration::Seconds(1));
  const CountingSource counting(base);

  EstimatorOptions options;
  options.skew_aware = true;
  const StateBasedEstimator estimator(cluster, SchedulerConfig{}, options);
  const DagEstimate estimate = estimator.Estimate(flow, counting).value();
  int granted = 0;  // Running stages that received containers.
  for (const RunningStageEstimate& rse : estimate.running_pool) {
    if (rse.parallelism > 0) ++granted;
  }
  EXPECT_EQ(counting.task_times_calls, 0);
  EXPECT_EQ(counting.task_time_dist_calls, granted);
}

}  // namespace
}  // namespace dagperf
