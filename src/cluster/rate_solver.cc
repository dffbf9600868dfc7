#include "cluster/rate_solver.h"

#include <algorithm>
#include <cmath>
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
  std::vector<FlowRate> out;
  SolveRates(capacities, flows, &out);
  return out;
}

void SolveRates(const ResourceVector& capacities, const std::vector<Flow>& flows,
                std::vector<FlowRate>* result) {
  const size_t n = flows.size();
  std::vector<FlowRate>& out = *result;
  out.assign(n, FlowRate{});

  // Thread-local scratch, capacity reused across calls: a warm solve (same
  // or smaller flow count) performs no heap allocation. Values are fully
  // re-assigned below, so reuse never changes the arithmetic.
  struct Scratch {
    std::vector<double> cap_rate;
    std::vector<unsigned char> trivial;
    std::vector<double> prev_rates;
    std::vector<double> populations;
    std::vector<double> wants;
    std::vector<size_t> users;
  };
  static thread_local Scratch scratch;
  std::vector<double>& cap_rate = scratch.cap_rate;
  std::vector<unsigned char>& trivial = scratch.trivial;
  cap_rate.assign(n, kInf);  // min_r per_task_cap_r / d_fr.
  trivial.assign(n, 0);
  for (size_t f = 0; f < n; ++f) {
    DAGPERF_CHECK(flows[f].population > 0);
    bool any = false;
    for (int r = 0; r < kNumResources; ++r) {
      const double d = flows[f].demand.values[r];
      if (d <= 0) continue;
      any = true;
      DAGPERF_CHECK_MSG(capacities.values[r] > 0,
                        "demand on a zero-capacity resource");
      const double task_cap = flows[f].per_task_cap.values[r];
      if (task_cap > 0) cap_rate[f] = std::min(cap_rate[f], task_cap / d);
    }
    if (!any) {
      trivial[f] = 1;
      out[f].progress_rate = kInf;
      out[f].bottleneck = -1;
    }
  }

  std::array<double, kNumResources> level;
  level.fill(kInf);

  // Rate of flow f under the current levels, optionally excluding one
  // resource's constraint (for want computation) and reporting the binding.
  const auto rate_under = [&](size_t f, int exclude, int* binding) -> double {
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

  constexpr int kMaxIterations = 300;
  constexpr double kTolerance = 1e-13;
  std::vector<double>& prev_rates = scratch.prev_rates;
  prev_rates.assign(n, 0.0);
  std::vector<double>& populations = scratch.populations;
  std::vector<double>& wants = scratch.wants;
  std::vector<size_t>& users = scratch.users;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    for (int r = 0; r < kNumResources; ++r) {
      if (capacities.values[r] <= 0) continue;
      populations.clear();
      wants.clear();
      users.clear();
      for (size_t f = 0; f < n; ++f) {
        if (trivial[f]) continue;
        const double d = flows[f].demand.values[r];
        if (d <= 0) continue;
        double want = d * rate_under(f, r, nullptr);
        const double task_cap = flows[f].per_task_cap.values[r];
        if (task_cap > 0) want = std::min(want, task_cap);
        populations.push_back(flows[f].population);
        wants.push_back(want);
        users.push_back(f);
      }
      level[r] = users.empty() ? kInf
                               : WaterFill(capacities.values[r], populations, wants);
    }

    double delta = 0.0;
    for (size_t f = 0; f < n; ++f) {
      if (trivial[f]) continue;
      const double v = rate_under(f, -1, nullptr);
      delta = std::max(delta, std::fabs(v - prev_rates[f]) /
                                  std::max(std::fabs(v), 1e-300));
      prev_rates[f] = v;
    }
    if (delta < kTolerance) break;
  }

  // Equal-share denominator per resource, for reporting the offered share
  // of unsaturated resources (the paper's mu_X(Delta) * theta_X).
  std::array<double, kNumResources> demanders;
  demanders.fill(0.0);
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
    DAGPERF_CHECK_MSG(v < kInf, "unbounded rate for a demanding flow");
    out[f].progress_rate = v;
    out[f].bottleneck = binding;
    if (binding == -1) {
      // The flow's own per-task cap binds: report the capped resource.
      for (int r = 0; r < kNumResources; ++r) {
        const double d = flows[f].demand.values[r];
        const double task_cap = flows[f].per_task_cap.values[r];
        if (d > 0 && task_cap > 0 && task_cap / d <= cap_rate[f] * (1 + 1e-12)) {
          out[f].bottleneck = r;
          break;
        }
      }
    }
    // Offered per-task bandwidth: the water-fill level when the resource is
    // saturated, else the equal split among its demanders (the paper's
    // mu_X(Delta) * theta_X), clipped by the per-task cap and never below
    // actual consumption.
    for (int r = 0; r < kNumResources; ++r) {
      const double d = flows[f].demand.values[r];
      if (d <= 0) continue;
      double offer = level[r] < kInf ? level[r]
                                     : capacities.values[r] / demanders[r];
      offer = std::min(offer, capacities.values[r]);
      const double task_cap = flows[f].per_task_cap.values[r];
      if (task_cap > 0) offer = std::min(offer, task_cap);
      offer = std::max(offer, d * v);
      out[f].offered.values[r] = offer;
    }
  }
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
