#include "cluster/rate_solver.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"

namespace dagperf {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Exact water-fill: the per-task level L such that
///   sum_i n_i * min(want_i, L) = capacity,
/// or +infinity when the total want fits under the capacity.
double WaterFill(double capacity, const std::vector<double>& populations,
                 const std::vector<double>& wants) {
  DAGPERF_CHECK(populations.size() == wants.size());
  double total = 0.0;
  for (size_t i = 0; i < wants.size(); ++i) {
    total += populations[i] * std::min(wants[i], kInf);
    if (total == kInf) break;
  }
  if (total <= capacity) return kInf;

  // Raise L through the sorted wants until the running sum hits capacity.
  // Thread-local scratch: the solver sits on the estimation hot path, where
  // warm calls must not touch the heap (see tests/alloc_regression_test.cc).
  static thread_local std::vector<size_t> order;
  order.resize(wants.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return wants[a] < wants[b]; });

  double consumed = 0.0;   // By flows already below the level.
  double above_weight = 0.0;
  for (size_t i : order) above_weight += populations[i];
  for (size_t k = 0; k < order.size(); ++k) {
    const size_t i = order[k];
    // Candidate: level between wants[order[k-1]] and wants[i].
    const double level = (capacity - consumed) / above_weight;
    if (level <= wants[i]) return std::max(level, 0.0);
    consumed += populations[i] * wants[i];
    above_weight -= populations[i];
  }
  // Only reachable when the wants sum to the capacity within rounding: the
  // unsorted total above landed an ulp over it, while the sorted pass used
  // up the weight (or left it a hair below zero) without finding a level.
  // The resource is then exactly saturated, so the level is the one at
  // which every flow receives its full want.
  return wants[order.back()];
}

}  // namespace

/// Iterative water-filling for per-resource equal-bandwidth max-min
/// fairness with per-task rate caps.
///
/// Equilibrium conditions (the paper's resource usage model, §III-A2/3):
///  * every saturated resource r has a per-task bandwidth level L_r such
///    that each user draws min(its demand-limited draw, L_r) and the total
///    equals the capacity;
///  * unsaturated resources impose no constraint (L_r = +inf);
///  * each flow's rate is v_f = min(capv_f, min_r L_r / d_fr).
///
/// A flow's *want* on r — what it would draw if r imposed no limit — is
/// d_fr * min(capv_f, min_{r' != r} L_r' / d_fr'). Gauss-Seidel iteration:
/// re-water-fill each resource's level given current wants until the rates
/// are stable. The iteration is monotone-contractive in practice and the
/// exactness of each water-fill makes fixed points exact equilibria;
/// convergence is verified by the property-test suite.
std::vector<FlowRate> SolveRates(const ResourceVector& capacities,
                                 const std::vector<Flow>& flows) {
  const size_t n = flows.size();
  std::vector<FlowShape> shapes(n);
  std::vector<const FlowShape*> shape_ptrs(n);
  std::vector<double> populations(n);
  for (size_t f = 0; f < n; ++f) {
    shapes[f] = MakeFlowShape(capacities, flows[f].demand, flows[f].per_task_cap);
    shape_ptrs[f] = &shapes[f];
    populations[f] = flows[f].population;
  }
  RateEquilibrium equilibrium;
  equilibrium.Solve(capacities, shape_ptrs.data(), populations.data(), n);
  std::vector<FlowRate> out(n);
  for (size_t f = 0; f < n; ++f) out[f] = equilibrium.Rate(f);
  return out;
}

FlowShape MakeFlowShape(const ResourceVector& capacities, const ResourceVector& demand,
                        const ResourceVector& per_task_cap) {
  FlowShape shape;
  shape.demand = demand;
  shape.per_task_cap = per_task_cap;
  shape.cap_rate = kInf;
  bool any = false;
  for (int r = 0; r < kNumResources; ++r) {
    const double d = demand.values[r];
    if (d <= 0) continue;
    any = true;
    DAGPERF_CHECK_MSG(capacities.values[r] > 0, "demand on a zero-capacity resource");
    const double task_cap = per_task_cap.values[r];
    if (task_cap > 0) shape.cap_rate = std::min(shape.cap_rate, task_cap / d);
  }
  shape.trivial = !any;
  return shape;
}

double RateEquilibrium::RateUnder(size_t f, int exclude, int* binding) const {
  double v = shapes_[f]->cap_rate;
  int b = -1;
  const std::array<double, kNumResources>& limit = limit_[f];
  for (int r = 0; r < kNumResources; ++r) {
    if (r == exclude) continue;
    // An undemanded resource caches +infinity and a NaN demand caches NaN;
    // neither compares below v, exactly as when they were skipped.
    if (limit[r] < v) {
      v = limit[r];
      b = r;
    }
  }
  if (binding != nullptr) *binding = b;
  return v;
}

void RateEquilibrium::Solve(const ResourceVector& capacities,
                            const FlowShape* const* shapes, const double* populations,
                            size_t n) {
  capacities_ = capacities;
  shapes_.assign(shapes, shapes + n);
  populations_.assign(populations, populations + n);
  limit_.resize(n);
  rate_.assign(n, 0.0);
  users_.resize(static_cast<size_t>(kNumResources) * n);
  level_.fill(kInf);

  // Flows that demand each resource (the users of its water-fill), and the
  // limits under the initial (infinite) levels.
  num_users_.fill(0);
  for (size_t f = 0; f < n; ++f) {
    DAGPERF_CHECK(populations[f] > 0);
    for (int r = 0; r < kNumResources; ++r) {
      const double d = shapes[f]->demand.values[r];
      if (d <= 0) {
        limit_[f][r] = kInf;
        continue;
      }
      limit_[f][r] = std::min(level_[r], capacities.values[r]) / d;
      users_[r * n + num_users_[r]++] = static_cast<unsigned>(f);
    }
  }

  constexpr int kMaxIterations = 300;
  constexpr double kTolerance = 1e-13;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    for (int r = 0; r < kNumResources; ++r) {
      if (capacities.values[r] <= 0) continue;
      const unsigned* users = users_.data() + r * n;
      const unsigned count = num_users_[r];
      if (count == 0) continue;  // The level stays +infinity.
      fill_populations_.resize(count);
      fill_wants_.resize(count);
      for (unsigned u = 0; u < count; ++u) {
        const size_t f = users[u];
        double want = shapes_[f]->demand.values[r] * RateUnder(f, r, nullptr);
        const double task_cap = shapes_[f]->per_task_cap.values[r];
        if (task_cap > 0) want = std::min(want, task_cap);
        fill_populations_[u] = populations_[f];
        fill_wants_[u] = want;
      }
      const double level = WaterFill(capacities.values[r], fill_populations_, fill_wants_);
      // An unmoved level leaves the cached limits as they are.
      if (std::bit_cast<std::uint64_t>(level) == std::bit_cast<std::uint64_t>(level_[r])) {
        continue;
      }
      level_[r] = level;
      const double bound = std::min(level, capacities.values[r]);
      for (unsigned u = 0; u < count; ++u) {
        const size_t f = users[u];
        limit_[f][r] = bound / shapes_[f]->demand.values[r];
      }
    }

    double delta = 0.0;
    for (size_t f = 0; f < n; ++f) {
      if (shapes_[f]->trivial) continue;
      const double v = RateUnder(f, -1, nullptr);
      delta = std::max(delta, std::fabs(v - rate_[f]) / std::max(std::fabs(v), 1e-300));
      rate_[f] = v;
    }
    if (delta < kTolerance) break;
  }

  // Equal-share denominator per resource, for reporting the offered share
  // of unsaturated resources (the paper's mu_X(Delta) * theta_X).
  demanders_.fill(0.0);
  for (size_t f = 0; f < n; ++f) {
    if (shapes_[f]->trivial) continue;
    DAGPERF_CHECK_MSG(rate_[f] < kInf, "unbounded rate for a demanding flow");
    for (int r = 0; r < kNumResources; ++r) {
      if (shapes_[f]->demand.values[r] > 0) demanders_[r] += populations_[f];
    }
  }
}

FlowRate RateEquilibrium::Rate(size_t f) const {
  FlowRate out;
  const FlowShape& shape = *shapes_[f];
  if (shape.trivial) {
    out.progress_rate = kInf;
    return out;
  }
  int binding = -1;
  out.progress_rate = RateUnder(f, -1, &binding);
  out.bottleneck = binding;
  if (binding == -1) {
    // The flow's own per-task cap binds: report the capped resource.
    for (int r = 0; r < kNumResources; ++r) {
      const double d = shape.demand.values[r];
      const double task_cap = shape.per_task_cap.values[r];
      if (d > 0 && task_cap > 0 && task_cap / d <= shape.cap_rate * (1 + 1e-12)) {
        out.bottleneck = r;
        break;
      }
    }
  }
  out.offered = Offered(f);
  return out;
}

ResourceVector RateEquilibrium::Offered(size_t f) const {
  ResourceVector offered;
  const FlowShape& shape = *shapes_[f];
  if (shape.trivial) return offered;
  const double v = rate_[f];
  // Offered per-task bandwidth: the water-fill level when the resource is
  // saturated, else the equal split among its demanders (the paper's
  // mu_X(Delta) * theta_X), clipped by the per-task cap and never below
  // actual consumption.
  for (int r = 0; r < kNumResources; ++r) {
    const double d = shape.demand.values[r];
    if (d <= 0) continue;
    double offer = level_[r] < kInf ? level_[r] : capacities_.values[r] / demanders_[r];
    offer = std::min(offer, capacities_.values[r]);
    const double task_cap = shape.per_task_cap.values[r];
    if (task_cap > 0) offer = std::min(offer, task_cap);
    offer = std::max(offer, d * v);
    offered.values[r] = offer;
  }
  return offered;
}

ResourceVector SolutionUtilization(const ResourceVector& capacities,
                                   const std::vector<Flow>& flows,
                                   const std::vector<FlowRate>& rates) {
  DAGPERF_CHECK(flows.size() == rates.size());
  ResourceVector used;
  for (size_t f = 0; f < flows.size(); ++f) {
    if (rates[f].progress_rate == kInf) continue;
    for (int r = 0; r < kNumResources; ++r) {
      used.values[r] +=
          flows[f].population * flows[f].demand.values[r] * rates[f].progress_rate;
    }
  }
  ResourceVector util;
  for (int r = 0; r < kNumResources; ++r) {
    util.values[r] =
        capacities.values[r] > 0 ? used.values[r] / capacities.values[r] : 0.0;
  }
  return util;
}

}  // namespace dagperf
