// Property-based tests of the max-min fair-share rate solver: invariants
// that must hold for arbitrary flow mixes, swept over seeded random
// populations via parameterized gtest.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "cluster/rate_solver.h"
#include "common/rng.h"

namespace dagperf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ResourceVector PaperCaps() {
  ResourceVector caps;
  caps[Resource::kDiskRead] = 240e6;
  caps[Resource::kDiskWrite] = 240e6;
  caps[Resource::kNetwork] = 125e6;
  caps[Resource::kCpu] = 6;
  return caps;
}

std::vector<Flow> RandomFlows(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<Flow> flows;
  for (int i = 0; i < count; ++i) {
    Flow f;
    f.population = rng.Uniform(0.5, 8.0);
    // Each flow demands a random subset of resources.
    if (rng.NextDouble() < 0.7) f.demand[Resource::kDiskRead] = rng.Uniform(1e6, 5e8);
    if (rng.NextDouble() < 0.7) f.demand[Resource::kDiskWrite] = rng.Uniform(1e6, 5e8);
    if (rng.NextDouble() < 0.7) f.demand[Resource::kNetwork] = rng.Uniform(1e6, 5e8);
    if (rng.NextDouble() < 0.7) f.demand[Resource::kCpu] = rng.Uniform(0.1, 20.0);
    f.per_task_cap[Resource::kCpu] = 1.0;
    // Ensure at least one demand so the flow is non-trivial.
    if (f.demand == ResourceVector{}) f.demand[Resource::kNetwork] = 1e7;
    flows.push_back(f);
  }
  return flows;
}

class RateSolverPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RateSolverPropertyTest, CapacityNeverExceeded) {
  const auto flows = RandomFlows(GetParam(), 1 + GetParam() % 9);
  const auto rates = SolveRates(PaperCaps(), flows);
  const ResourceVector util = SolutionUtilization(PaperCaps(), flows, rates);
  for (Resource r : kAllResources) {
    EXPECT_LE(util[r], 1.0 + 1e-6) << ResourceName(r) << " seed=" << GetParam();
  }
}

TEST_P(RateSolverPropertyTest, AllRatesPositiveAndFinite) {
  const auto flows = RandomFlows(GetParam(), 1 + GetParam() % 9);
  const auto rates = SolveRates(PaperCaps(), flows);
  for (const auto& r : rates) {
    EXPECT_GT(r.progress_rate, 0.0);
    EXPECT_TRUE(std::isfinite(r.progress_rate));
  }
}

TEST_P(RateSolverPropertyTest, SomeResourceSaturatedOrAllCapped) {
  // Pareto optimality: either a resource is fully used, or every flow is
  // pinned at its own per-task cap.
  const auto flows = RandomFlows(GetParam(), 2 + GetParam() % 6);
  const auto rates = SolveRates(PaperCaps(), flows);
  const ResourceVector util = SolutionUtilization(PaperCaps(), flows, rates);
  double max_util = 0;
  for (Resource r : kAllResources) max_util = std::max(max_util, util[r]);
  if (max_util < 1.0 - 1e-6) {
    for (size_t f = 0; f < flows.size(); ++f) {
      const double cpu_d = flows[f].demand[Resource::kCpu];
      ASSERT_GT(cpu_d, 0.0) << "uncapped flow below saturation";
      EXPECT_NEAR(rates[f].progress_rate * cpu_d, 1.0, 1e-6)
          << "flow " << f << " not at its CPU cap though nothing is saturated";
    }
  }
}

TEST_P(RateSolverPropertyTest, ScaleInvariance) {
  // Scaling all demands by k (per-task bandwidth caps unchanged) scales all
  // progress rates by exactly 1/k: the same bandwidth allocation moves k
  // times more slowly through each task.
  const auto flows = RandomFlows(GetParam(), 2 + GetParam() % 5);
  std::vector<Flow> scaled = flows;
  const double k = 3.7;
  for (auto& f : scaled) {
    for (Resource r : kAllResources) f.demand[r] *= k;
  }
  const auto base = SolveRates(PaperCaps(), flows);
  const auto after = SolveRates(PaperCaps(), scaled);
  for (size_t f = 0; f < flows.size(); ++f) {
    EXPECT_NEAR(after[f].progress_rate * k, base[f].progress_rate,
                1e-6 * base[f].progress_rate);
  }
}

TEST_P(RateSolverPropertyTest, AddingFlowNeverSpeedsSingleResourcePeers) {
  // With multiple resources, adding a flow CAN speed up a third party (it
  // slows a competitor on one device, freeing another) — so monotonicity is
  // only guaranteed when all flows contend on one resource.
  Rng rng(GetParam() * 7919);
  std::vector<Flow> flows;
  const int count = 2 + GetParam() % 5;
  for (int i = 0; i < count; ++i) {
    Flow f;
    f.population = rng.Uniform(0.5, 6.0);
    f.demand[Resource::kNetwork] = rng.Uniform(1e6, 5e8);
    flows.push_back(f);
  }
  auto extended = flows;
  Flow extra;
  extra.population = 3.0;
  extra.demand[Resource::kNetwork] = 5e7;
  extended.push_back(extra);
  const auto base = SolveRates(PaperCaps(), flows);
  const auto after = SolveRates(PaperCaps(), extended);
  for (size_t f = 0; f < flows.size(); ++f) {
    EXPECT_LE(after[f].progress_rate, base[f].progress_rate * (1.0 + 1e-9));
  }
}

TEST_P(RateSolverPropertyTest, MoreCapacityNeverSlower) {
  const auto flows = RandomFlows(GetParam(), 2 + GetParam() % 5);
  ResourceVector bigger = PaperCaps();
  for (Resource r : kAllResources) bigger[r] *= 2.0;
  const auto base = SolveRates(PaperCaps(), flows);
  const auto after = SolveRates(bigger, flows);
  for (size_t f = 0; f < flows.size(); ++f) {
    EXPECT_GE(after[f].progress_rate, base[f].progress_rate * (1.0 - 1e-9));
  }
}

TEST_P(RateSolverPropertyTest, OfferedShareCoversConsumption) {
  // A flow's consumption on each resource never exceeds what it was offered,
  // and the bottleneck is consumed fully.
  const auto flows = RandomFlows(GetParam(), 2 + GetParam() % 6);
  const auto rates = SolveRates(PaperCaps(), flows);
  for (size_t f = 0; f < flows.size(); ++f) {
    for (Resource r : kAllResources) {
      const double d = flows[f].demand[r];
      if (d <= 0) continue;
      const double consumed = d * rates[f].progress_rate;
      EXPECT_LE(consumed, rates[f].offered[r] * (1.0 + 1e-6))
          << ResourceName(r) << " flow " << f;
    }
    if (rates[f].bottleneck >= 0) {
      const Resource b = static_cast<Resource>(rates[f].bottleneck);
      if (flows[f].demand[b] > 0 && rates[f].offered[b] > 0) {
        EXPECT_NEAR(flows[f].demand[b] * rates[f].progress_rate,
                    rates[f].offered[b], 1e-6 * rates[f].offered[b]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RateSolverPropertyTest,
                         ::testing::Range<uint64_t>(1, 33));

/// Test-only copy of the plain solver: Gauss-Seidel water-fills over every
/// resource each pass, limits recomputed from the levels on every read, all
/// flows' offers computed. SolveRates and RateEquilibrium must match it bit
/// for bit.
namespace plain {

double WaterFill(double capacity, const std::vector<double>& populations,
                 const std::vector<double>& wants) {
  double total = 0.0;
  for (size_t i = 0; i < wants.size(); ++i) {
    total += populations[i] * std::min(wants[i], kInf);
    if (total == kInf) break;
  }
  if (total <= capacity) return kInf;
  std::vector<size_t> order(wants.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return wants[a] < wants[b]; });
  double consumed = 0.0;
  double above_weight = 0.0;
  for (size_t i : order) above_weight += populations[i];
  for (size_t i : order) {
    const double level = (capacity - consumed) / above_weight;
    if (level <= wants[i]) return std::max(level, 0.0);
    consumed += populations[i] * wants[i];
    above_weight -= populations[i];
  }
  return wants[order.back()];
}

std::vector<FlowRate> SolveRates(const ResourceVector& capacities,
                                 const std::vector<Flow>& flows) {
  const size_t n = flows.size();
  std::vector<FlowRate> out(n);
  std::vector<double> cap_rate(n, kInf);
  std::vector<bool> trivial(n, false);
  for (size_t f = 0; f < n; ++f) {
    bool any = false;
    for (int r = 0; r < kNumResources; ++r) {
      const double d = flows[f].demand.values[r];
      if (d <= 0) continue;
      any = true;
      const double task_cap = flows[f].per_task_cap.values[r];
      if (task_cap > 0) cap_rate[f] = std::min(cap_rate[f], task_cap / d);
    }
    if (!any) {
      trivial[f] = true;
      out[f].progress_rate = kInf;
    }
  }
  std::array<double, kNumResources> level;
  level.fill(kInf);
  const auto rate_under = [&](size_t f, int exclude, int* binding) {
    double v = cap_rate[f];
    int b = -1;
    for (int r = 0; r < kNumResources; ++r) {
      if (r == exclude) continue;
      const double d = flows[f].demand.values[r];
      if (d <= 0) continue;
      const double limit = std::min(level[r], capacities.values[r]) / d;
      if (limit < v) {
        v = limit;
        b = r;
      }
    }
    if (binding != nullptr) *binding = b;
    return v;
  };
  std::vector<double> prev(n, 0.0);
  for (int iter = 0; iter < 300; ++iter) {
    for (int r = 0; r < kNumResources; ++r) {
      if (capacities.values[r] <= 0) continue;
      std::vector<double> populations;
      std::vector<double> wants;
      for (size_t f = 0; f < n; ++f) {
        if (trivial[f]) continue;
        const double d = flows[f].demand.values[r];
        if (d <= 0) continue;
        double want = d * rate_under(f, r, nullptr);
        const double task_cap = flows[f].per_task_cap.values[r];
        if (task_cap > 0) want = std::min(want, task_cap);
        populations.push_back(flows[f].population);
        wants.push_back(want);
      }
      level[r] = wants.empty() ? kInf : WaterFill(capacities.values[r], populations, wants);
    }
    double delta = 0.0;
    for (size_t f = 0; f < n; ++f) {
      if (trivial[f]) continue;
      const double v = rate_under(f, -1, nullptr);
      delta = std::max(delta, std::fabs(v - prev[f]) / std::max(std::fabs(v), 1e-300));
      prev[f] = v;
    }
    if (delta < 1e-13) break;
  }
  std::array<double, kNumResources> demanders{};
  for (size_t f = 0; f < n; ++f) {
    if (trivial[f]) continue;
    for (int r = 0; r < kNumResources; ++r) {
      if (flows[f].demand.values[r] > 0) demanders[r] += flows[f].population;
    }
  }
  for (size_t f = 0; f < n; ++f) {
    if (trivial[f]) continue;
    int binding = -1;
    const double v = rate_under(f, -1, &binding);
    out[f].progress_rate = v;
    out[f].bottleneck = binding;
    if (binding == -1) {
      for (int r = 0; r < kNumResources; ++r) {
        const double d = flows[f].demand.values[r];
        const double task_cap = flows[f].per_task_cap.values[r];
        if (d > 0 && task_cap > 0 && task_cap / d <= cap_rate[f] * (1 + 1e-12)) {
          out[f].bottleneck = r;
          break;
        }
      }
    }
    for (int r = 0; r < kNumResources; ++r) {
      const double d = flows[f].demand.values[r];
      if (d <= 0) continue;
      double offer = level[r] < kInf ? level[r] : capacities.values[r] / demanders[r];
      offer = std::min(offer, capacities.values[r]);
      const double task_cap = flows[f].per_task_cap.values[r];
      if (task_cap > 0) offer = std::min(offer, task_cap);
      offer = std::max(offer, d * v);
      out[f].offered.values[r] = offer;
    }
  }
  return out;
}

}  // namespace plain

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

TEST(RateSolverReferenceTest, MatchesPlainGaussSeidelBitForBit) {
  Rng rng(4242);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<Flow> flows = RandomFlows(rng.NextUint64(), 1 + trial % 12);
    for (Flow& f : flows) {
      // Repeated shapes tie in the water-fill order; demand-free flows and
      // flows without a cpu cap take the other branches.
      if (rng.NextDouble() < 0.2) f = flows.front();
      if (rng.NextDouble() < 0.05) f.demand = ResourceVector{};
      if (rng.NextDouble() < 0.1) f.per_task_cap = ResourceVector{};
    }
    const std::vector<FlowRate> want = plain::SolveRates(PaperCaps(), flows);
    const std::vector<FlowRate> got = SolveRates(PaperCaps(), flows);

    std::vector<FlowShape> shapes;
    std::vector<double> populations;
    for (const Flow& f : flows) {
      shapes.push_back(MakeFlowShape(PaperCaps(), f.demand, f.per_task_cap));
      populations.push_back(f.population);
    }
    std::vector<const FlowShape*> shape_ptrs;
    for (const FlowShape& shape : shapes) shape_ptrs.push_back(&shape);
    RateEquilibrium equilibrium;
    equilibrium.Solve(PaperCaps(), shape_ptrs.data(), populations.data(), flows.size());

    ASSERT_EQ(got.size(), want.size());
    for (size_t f = 0; f < flows.size(); ++f) {
      EXPECT_TRUE(SameBits(got[f].progress_rate, want[f].progress_rate))
          << "trial " << trial << " flow " << f;
      EXPECT_EQ(got[f].bottleneck, want[f].bottleneck) << "trial " << trial;
      const ResourceVector offered = equilibrium.Offered(f);
      for (int r = 0; r < kNumResources; ++r) {
        EXPECT_TRUE(SameBits(got[f].offered.values[r], want[f].offered.values[r]))
            << "trial " << trial << " flow " << f << " resource " << r;
        EXPECT_TRUE(SameBits(offered.values[r], want[f].offered.values[r]))
            << "trial " << trial << " flow " << f << " resource " << r;
      }
    }
  }
}

TEST(RateSolverEdgeTest, EmptyFlowsIsEmpty) {
  EXPECT_TRUE(SolveRates(PaperCaps(), {}).empty());
}

TEST(RateSolverEdgeTest, HugePopulationStillPositive) {
  Flow f;
  f.population = 1e6;
  f.demand[Resource::kNetwork] = 1e6;
  const auto rates = SolveRates(PaperCaps(), {f});
  EXPECT_GT(rates[0].progress_rate, 0.0);
  EXPECT_NEAR(rates[0].progress_rate, 125e6 / 1e6 / 1e6, 1e-12);
}

TEST(RateSolverEdgeTest, TinyDemandIsAlmostInstant) {
  Flow f;
  f.population = 1;
  f.demand[Resource::kDiskRead] = 1e-6;
  const auto rates = SolveRates(PaperCaps(), {f});
  EXPECT_GT(rates[0].progress_rate, 1e12);
  EXPECT_NE(rates[0].progress_rate, kInf);
}

}  // namespace
}  // namespace dagperf
