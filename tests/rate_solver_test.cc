#include "cluster/rate_solver.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dagperf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ResourceVector Caps(double disk_read, double disk_write, double network,
                    double cpu) {
  ResourceVector caps;
  caps[Resource::kDiskRead] = disk_read;
  caps[Resource::kDiskWrite] = disk_write;
  caps[Resource::kNetwork] = network;
  caps[Resource::kCpu] = cpu;
  return caps;
}

ResourceVector CpuCap() {
  ResourceVector caps;
  caps[Resource::kCpu] = 1.0;
  return caps;
}

TEST(RateSolverTest, SingleFlowSingleResource) {
  // 100 MB of disk read per progress unit, 200 MB/s disk.
  Flow f;
  f.population = 1;
  f.demand[Resource::kDiskRead] = 100e6;
  const auto rates = SolveRates(Caps(200e6, 0, 0, 6), {f});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_NEAR(rates[0].progress_rate, 2.0, 1e-12);
  EXPECT_EQ(rates[0].bottleneck, static_cast<int>(Resource::kDiskRead));
}

TEST(RateSolverTest, CpuPerTaskCapBindsBeforeSharing) {
  // 4 tasks, each needing 10 core-seconds per progress, on 6 cores: each
  // task is capped at 1 core (no sharing yet) -> rate 0.1/s.
  Flow f;
  f.population = 4;
  f.demand[Resource::kCpu] = 10;
  f.per_task_cap = CpuCap();
  const auto rates = SolveRates(Caps(0, 0, 0, 6), {f});
  EXPECT_NEAR(rates[0].progress_rate, 0.1, 1e-12);
}

TEST(RateSolverTest, CpuSharedPastSaturation) {
  // 12 tasks on 6 cores: each gets half a core.
  Flow f;
  f.population = 12;
  f.demand[Resource::kCpu] = 10;
  f.per_task_cap = CpuCap();
  const auto rates = SolveRates(Caps(0, 0, 0, 6), {f});
  EXPECT_NEAR(rates[0].progress_rate, 0.05, 1e-12);
  EXPECT_EQ(rates[0].bottleneck, static_cast<int>(Resource::kCpu));
}

TEST(RateSolverTest, PaperFigure4Example) {
  // Fig. 4(b): 5 tasks, each reading 10000 MB (disk 500 MB/s), transferring
  // 10000 MB (network 100 MB/s), computing at 50 MB/s per core
  // (=> 200 core-seconds). Expected: network-bound, task time 500 s.
  Flow f;
  f.population = 5;
  f.demand[Resource::kDiskRead] = 10000e6;
  f.demand[Resource::kNetwork] = 10000e6;
  f.demand[Resource::kCpu] = 200;
  f.per_task_cap = CpuCap();
  const auto caps = Caps(500e6, 0, 100e6, 6);
  const auto rates = SolveRates(caps, {f});
  EXPECT_NEAR(1.0 / rates[0].progress_rate, 500.0, 1e-6);
  EXPECT_EQ(rates[0].bottleneck, static_cast<int>(Resource::kNetwork));

  const ResourceVector util = SolutionUtilization(caps, {f}, rates);
  EXPECT_NEAR(util[Resource::kNetwork], 1.0, 1e-9);
  EXPECT_NEAR(util[Resource::kDiskRead], 0.2, 1e-9);  // 100 MB/s of 500.
}

TEST(RateSolverTest, PaperFigure4SingleTask) {
  // Fig. 4(a): one task alone is CPU-bound at 200 s.
  Flow f;
  f.population = 1;
  f.demand[Resource::kDiskRead] = 10000e6;
  f.demand[Resource::kNetwork] = 10000e6;
  f.demand[Resource::kCpu] = 200;
  f.per_task_cap = CpuCap();
  const auto rates = SolveRates(Caps(500e6, 0, 100e6, 6), {f});
  EXPECT_NEAR(1.0 / rates[0].progress_rate, 200.0, 1e-6);
  EXPECT_EQ(rates[0].bottleneck, static_cast<int>(Resource::kCpu));
}

TEST(RateSolverTest, SurplusRedistribution) {
  // Flow A is CPU-capped and cannot use its fair disk share; flow B should
  // receive the surplus.
  Flow a;
  a.population = 1;
  a.demand[Resource::kDiskRead] = 10e6;
  a.demand[Resource::kCpu] = 1.0;  // 1 core-second per progress: rate <= 1.
  a.per_task_cap = CpuCap();
  Flow b;
  b.population = 1;
  b.demand[Resource::kDiskRead] = 10e6;
  const auto rates = SolveRates(Caps(100e6, 0, 0, 6), {a, b});
  // A runs at 1/s using 10 MB/s of disk; B gets the remaining 90 MB/s.
  EXPECT_NEAR(rates[0].progress_rate, 1.0, 1e-9);
  EXPECT_NEAR(rates[1].progress_rate, 9.0, 1e-9);
}

TEST(RateSolverTest, EqualBandwidthNotEqualProgress) {
  // Two flows on one disk with different per-progress demands receive equal
  // bandwidth, hence inversely proportional progress.
  Flow heavy;
  heavy.population = 1;
  heavy.demand[Resource::kDiskRead] = 20e6;
  Flow light;
  light.population = 1;
  light.demand[Resource::kDiskRead] = 10e6;
  const auto rates = SolveRates(Caps(100e6, 0, 0, 6), {heavy, light});
  EXPECT_NEAR(rates[0].progress_rate, 2.5, 1e-9);   // 50 MB/s / 20 MB.
  EXPECT_NEAR(rates[1].progress_rate, 5.0, 1e-9);   // 50 MB/s / 10 MB.
}

TEST(RateSolverTest, CrossResourceRedistribution) {
  // A uses disk+net, B disk only, C net only. Disk 100, net 40.
  Flow a;
  a.population = 1;
  a.demand[Resource::kDiskRead] = 1;
  a.demand[Resource::kNetwork] = 1;
  Flow b;
  b.population = 1;
  b.demand[Resource::kDiskRead] = 1;
  Flow c;
  c.population = 1;
  c.demand[Resource::kNetwork] = 1;
  const auto rates = SolveRates(Caps(100, 0, 40, 6), {a, b, c});
  EXPECT_NEAR(rates[0].progress_rate, 20.0, 1e-9);
  EXPECT_NEAR(rates[1].progress_rate, 80.0, 1e-9);
  EXPECT_NEAR(rates[2].progress_rate, 20.0, 1e-9);
}

TEST(RateSolverTest, DemandFreeFlowIsInstant) {
  Flow f;
  f.population = 3;
  const auto rates = SolveRates(Caps(1, 1, 1, 1), {f});
  EXPECT_EQ(rates[0].progress_rate, kInf);
}

TEST(RateSolverTest, PopulationScalesContention) {
  Flow f;
  f.population = 10;
  f.demand[Resource::kNetwork] = 1e6;
  const auto rates = SolveRates(Caps(0, 0, 100e6, 6), {f});
  EXPECT_NEAR(rates[0].progress_rate, 10.0, 1e-9);  // 10 MB/s each.
}

TEST(RateSolverTest, ConservationNeverExceedsCapacity) {
  // Property: for arbitrary flow mixes, total consumption <= capacity.
  const ResourceVector caps = Caps(200e6, 180e6, 125e6, 6);
  std::vector<Flow> flows;
  for (int i = 1; i <= 7; ++i) {
    Flow f;
    f.population = i;
    f.demand[Resource::kDiskRead] = 1e6 * ((i * 37) % 23);
    f.demand[Resource::kDiskWrite] = 1e6 * ((i * 17) % 19);
    f.demand[Resource::kNetwork] = 1e6 * ((i * 29) % 31);
    f.demand[Resource::kCpu] = 0.1 * i;
    f.per_task_cap = CpuCap();
    flows.push_back(f);
  }
  const auto rates = SolveRates(caps, flows);
  const ResourceVector util = SolutionUtilization(caps, flows, rates);
  for (Resource r : kAllResources) {
    EXPECT_LE(util[r], 1.0 + 1e-9) << ResourceName(r);
  }
}

TEST(RateSolverTest, AtLeastOneResourceSaturatedUnderContention) {
  // With unbounded demand (no per-task caps binding), the allocation must
  // saturate some resource — otherwise rates could be raised.
  const ResourceVector caps = Caps(200e6, 180e6, 125e6, 6);
  std::vector<Flow> flows;
  for (int i = 0; i < 3; ++i) {
    Flow f;
    f.population = 4;
    f.demand[Resource::kDiskRead] = 50e6 + 10e6 * i;
    f.demand[Resource::kNetwork] = 30e6 * (i + 1);
    flows.push_back(f);
  }
  const auto rates = SolveRates(caps, flows);
  const ResourceVector util = SolutionUtilization(caps, flows, rates);
  double max_util = 0;
  for (Resource r : kAllResources) max_util = std::max(max_util, util[r]);
  EXPECT_NEAR(max_util, 1.0, 1e-9);
}

TEST(RateSolverTest, MoreContendersNeverFaster) {
  // Property: adding population to a competing flow cannot speed up flow 0.
  Flow base;
  base.population = 2;
  base.demand[Resource::kDiskRead] = 10e6;
  base.demand[Resource::kCpu] = 0.5;
  base.per_task_cap = CpuCap();
  double prev = kInf;
  for (double rival_pop : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    Flow rival;
    rival.population = rival_pop;
    rival.demand[Resource::kDiskRead] = 5e6;
    const auto rates = SolveRates(Caps(200e6, 0, 0, 6), {base, rival});
    EXPECT_LE(rates[0].progress_rate, prev + 1e-9);
    prev = rates[0].progress_rate;
  }
}


TEST(RateSolverTest, WantsSummingExactlyToCapacityFindALevel) {
  // The four network flows of `dagperf estimate --flow TS-Q18 --nodes 61`:
  // their wants sum to exactly the 240 MB/s capacity, but the unsorted sum
  // rounds one ulp above it while the sorted pass runs out of weight before
  // finding a level. Demand 1 per progress unit and a per-task cap equal to
  // the want feed the water-fill exactly these (population, want) pairs.
  const double pops[] = {0x1.a3ac10c9714fcp+0, 0x1.e7504742cb848p-7,
                         0x1.5af9edcff789ep-7, 0x1.2a9958d75c13bp-4};
  const double wants[] = {0x1.12dd7054f30ep+27, 0x1.dcd65p+26,
                          0x1.12dd7054f30ep+27, 0x1.37478p+22};
  std::vector<Flow> flows;
  for (int i = 0; i < 4; ++i) {
    Flow f;
    f.population = pops[i];
    f.demand[Resource::kNetwork] = 1.0;
    f.per_task_cap[Resource::kNetwork] = wants[i];
    flows.push_back(f);
  }
  const ResourceVector caps = Caps(0, 0, 240e6, 0);
  const auto rates = SolveRates(caps, flows);
  ASSERT_EQ(rates.size(), flows.size());
  // Every flow is granted its full want.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rates[i].progress_rate, wants[i]) << i;
  const ResourceVector util = SolutionUtilization(caps, flows, rates);
  EXPECT_NEAR(util[Resource::kNetwork], 1.0, 1e-12);
}

}  // namespace
}  // namespace dagperf
