#ifndef DAGPERF_CLUSTER_RATE_SOLVER_H_
#define DAGPERF_CLUSTER_RATE_SOLVER_H_

#include <array>
#include <cstddef>
#include <vector>

#include "cluster/resources.h"

namespace dagperf {

/// A class of identical concurrent tasks ("flow") competing for one node's
/// resources.
///
/// `demand[r]` is the amount of resource r (bytes, or core-seconds for CPU)
/// consumed per unit of task progress; a task progressing at rate v uses
/// resource r at rate demand[r] * v. `per_task_cap[r]` bounds one task's
/// usage rate of r regardless of contention — the library uses it to encode
/// the paper's CPU-preemptability rule: a (single-threaded) task can use at
/// most one core, so CPU only becomes a shared bottleneck once the demanding
/// task population exceeds the core count.
struct Flow {
  /// Number of concurrent tasks in this class. May be fractional: the
  /// analytical models reason about average task populations per node.
  double population = 1.0;
  ResourceVector demand;
  /// 0 entries mean "no per-task cap" (the device capacity still applies).
  ResourceVector per_task_cap;
};

/// Per-flow solution of the sharing problem.
struct FlowRate {
  /// Task progress rate (progress units per second). Infinity when the flow
  /// demands nothing.
  double progress_rate = 0.0;
  /// The resource that froze this flow (its bottleneck), or -1 when the flow
  /// is limited only by its own per-task cap / demands nothing.
  int bottleneck = -1;
  /// Per-task share each demanded resource offered this flow when it froze
  /// (equal-share level capped by the per-task cap). On the bottleneck the
  /// flow consumes all of it; elsewhere it runs below the offer — the
  /// utilisation p_X < 1 of the paper's §III-A3.
  ResourceVector offered;
};

/// Computes the equilibrium progress rate of each flow under per-resource
/// equal-bandwidth max-min fair sharing with surplus redistribution.
///
/// Semantics (matching the paper's resource usage model, §III-A2):
///  * Every saturated resource is divided equally per task among the tasks
///    that still demand it; tasks bottlenecked elsewhere use less than their
///    share and the surplus is redistributed (progressive filling).
///  * A flow's progress rate is set by its most constraining resource:
///    v_f = min_r alloc_fr / demand_fr — the "max" in the BOE formula.
///
/// The algorithm freezes flows in increasing order of achievable rate, which
/// yields the exact equilibrium in at most F iterations (F = #flows).
///
/// Returned rates are positive, or +infinity for demand-free flows.
std::vector<FlowRate> SolveRates(const ResourceVector& capacities,
                                 const std::vector<Flow>& flows);

/// The population-independent part of a Flow: its demand and per-task cap
/// plus what SolveRates derives from them. Callers that solve many sharing
/// problems over the same flow shapes (BOE prices every sub-stage of a
/// workflow state against one flow table) derive these once.
struct FlowShape {
  ResourceVector demand;
  ResourceVector per_task_cap;
  /// min_r per_task_cap_r / demand_r over the capped demanded resources
  /// (+infinity when no cap applies).
  double cap_rate = 0.0;
  /// The flow demands nothing: its rate is +infinity.
  bool trivial = false;
};

/// Derives a flow's shape. CHECK-fails on demand for a resource whose
/// capacity is not positive, as SolveRates does.
FlowShape MakeFlowShape(const ResourceVector& capacities, const ResourceVector& demand,
                        const ResourceVector& per_task_cap);

/// SolveRates split in two: Solve() finds the equilibrium (the per-resource
/// water-fill levels and every flow's rate), and Rate()/Offered() read one
/// flow's result, so a caller that needs a single flow's offer does not pay
/// for every flow's. SolveRates is Solve() followed by Rate() for each flow;
/// the arithmetic is the same, so the results are bit-identical.
///
/// An instance keeps its scratch between calls (a warm Solve() of no more
/// flows than before does not allocate); use one per thread.
class RateEquilibrium {
 public:
  /// Solves for `n` flows: flow k has population `populations[k]` and shape
  /// `*shapes[k]`. The shapes must outlive the reads below.
  void Solve(const ResourceVector& capacities, const FlowShape* const* shapes,
             const double* populations, size_t n);

  /// Flow k's full solution, as SolveRates reports it.
  FlowRate Rate(size_t k) const;

  /// Flow k's offered per-task share only (FlowRate::offered).
  ResourceVector Offered(size_t k) const;

 private:
  /// Flow f's rate under the current levels, ignoring resource `exclude`
  /// (-1: none); `*binding` gets the limiting resource or -1.
  double RateUnder(size_t f, int exclude, int* binding) const;

  ResourceVector capacities_;
  std::array<double, kNumResources> level_{};
  std::array<double, kNumResources> demanders_{};
  std::vector<const FlowShape*> shapes_;
  std::vector<double> populations_;
  /// min(level_r, capacity_r) / demand_fr per flow, refreshed whenever a
  /// level moves; +infinity where the flow does not demand r.
  std::vector<std::array<double, kNumResources>> limit_;
  /// Each flow's rate under the final levels.
  std::vector<double> rate_;
  /// Flows demanding each resource, flat: users_[r * n + u].
  std::vector<unsigned> users_;
  std::array<unsigned, kNumResources> num_users_{};
  std::vector<double> fill_populations_;
  std::vector<double> fill_wants_;
};

/// Convenience: the utilization of each resource implied by a solution
/// (consumed / capacity, 0 when capacity is 0).
ResourceVector SolutionUtilization(const ResourceVector& capacities,
                                   const std::vector<Flow>& flows,
                                   const std::vector<FlowRate>& rates);

}  // namespace dagperf

#endif  // DAGPERF_CLUSTER_RATE_SOLVER_H_
