#include "boe/boe_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "cluster/rate_solver.h"
#include "common/check.h"

namespace dagperf {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-task rate caps: a single-threaded task uses at most one core; I/O has
/// no per-task cap beyond the device itself.
ResourceVector PerTaskCaps() {
  ResourceVector caps;
  caps[Resource::kCpu] = 1.0;
  return caps;
}

/// Builds a sub-stage estimate given the per-task allocated throughput on
/// each resource (resource units per second available to this task).
SubStageEstimate EstimateSubStage(const SubStageProfile& substage,
                                  const ResourceVector& alloc) {
  SubStageEstimate est;
  est.name = substage.name;
  double worst = 0.0;
  for (Resource r : kAllResources) {
    const double demand = substage.demand[r];
    if (demand <= 0) continue;  // NaN demand fails this test and is priced.
    OpEstimate op;
    op.resource = r;
    op.demand = demand;
    const double a = alloc[r];
    // Zero/negative/NaN throughput means the operation can never complete;
    // a non-finite demand is poison that must surface, not propagate — both
    // price at Infinite, so no NaN ever reaches the duration arithmetic.
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

/// Duration of one sub-stage at the given per-task allocation: the max over
/// its priced operations. Mirrors EstimateSubStage's pricing exactly —
/// demand <= 0 is unpriced, a NaN demand or non-positive throughput prices
/// at infinity — but as a select-and-max over the fixed resource axes with
/// no per-operation state, so the compiler can unroll and vectorize it.
inline double SubStageDuration(const ResourceVector& demand,
                               const ResourceVector& alloc) {
  double worst = 0.0;
  for (int r = 0; r < kNumResources; ++r) {
    const double d = demand.values[r];
    const double a = alloc.values[r];
    const bool priced = !(d <= 0.0);  // NaN demand is priced (at infinity).
    const double t = priced ? (std::isfinite(d) && a > 0 ? d / a : kInf) : 0.0;
    worst = t > worst ? t : worst;
  }
  return worst;
}

/// Per-task paper-rule allocation (Eq. 5 equal split, clipped by the
/// per-task caps): the paper-mode price, and the seed of the refined modes.
ResourceVector PaperAllocation(const ResourceVector& capacities,
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
    // A lone task cannot exceed its own per-task cap (e.g. one core), but it
    // can always use at least what an equal split would give it.
    if (task_caps[r] > 0) share = std::min(std::max(share, 0.0), task_caps[r]);
    alloc[r] = share;
  }
  return alloc;
}

/// Per-thread working set of the BOE kernel, reused across calls so a warm
/// estimate does not allocate. Per-sub-stage arrays are flat: stage i's
/// sub-stages live at [offset[i], offset[i + 1]).
struct KernelScratch {
  std::vector<size_t> offset;
  /// The state's flow table: one shape per sub-stage. Demand, per-task cap
  /// and cap rate are fixed for the state; only populations change per pass.
  std::vector<FlowShape> shape;
  std::vector<double> sub;  // current sub-stage durations
  std::vector<double> next_sub;
  std::vector<double> task;  // current task durations
  std::vector<double> next_task;
  /// The per-task allocation that priced each entry of `sub`.
  std::vector<ResourceVector> alloc;
  /// Whether a stage's sub-stage durations changed in the last pass.
  std::vector<unsigned char> changed;
  // One solve's flows and, in steady state, the sub-stage of each.
  std::vector<const FlowShape*> solve_shape;
  std::vector<double> solve_population;
  std::vector<size_t> solve_sub;
  RateEquilibrium equilibrium;
};

KernelScratch& LocalKernelScratch() {
  static thread_local KernelScratch scratch;
  return scratch;
}

/// Seeds every sub-stage with the paper-mode estimate (the whole answer in
/// paper mode, the starting point of the iterative modes).
void SeedPaper(const ResourceVector& capacities, const std::vector<ParallelStage>& stages,
               KernelScratch& s) {
  const ResourceVector alloc = PaperAllocation(capacities, stages);
  s.offset.clear();
  s.sub.clear();
  s.task.clear();
  s.alloc.clear();
  for (const auto& ps : stages) {
    s.offset.push_back(s.sub.size());
    double total = 0.0;
    for (const auto& ss : ps.stage->substages) {
      const double t = SubStageDuration(ss.demand, alloc);
      s.sub.push_back(t);
      s.alloc.push_back(alloc);
      total += t;
    }
    s.task.push_back(total);
  }
  s.offset.push_back(s.sub.size());
}

/// Appends the flows stage j contributes to a solve: each sub-stage holding
/// a share of the stage's time, populated in proportion to that share.
void AppendSpreadFlows(const std::vector<ParallelStage>& stages, size_t j,
                       KernelScratch& s) {
  const double total_time = std::max(s.task[j], 1e-12);
  for (size_t k = s.offset[j]; k < s.offset[j + 1]; ++k) {
    const double frac = std::max(s.sub[k], 0.0) / total_time;
    if (frac <= 1e-12) continue;
    s.solve_shape.push_back(&s.shape[k]);
    s.solve_population.push_back(stages[j].tasks_per_node * frac);
    s.solve_sub.push_back(k);
  }
}

/// Ends one pass: totals the new sub-stage durations, marks the stages
/// whose durations changed bitwise, and adopts the new durations. Returns
/// true when the iteration is done: the durations moved by less than the
/// tolerance, or not at all (every later pass would repeat this one).
bool FinishPass(const BoeOptions& options, size_t num_stages, KernelScratch& s) {
  s.next_task.resize(num_stages);
  bool any_changed = false;
  double delta = 0.0;
  for (size_t i = 0; i < num_stages; ++i) {
    const size_t begin = s.offset[i];
    const size_t count = s.offset[i + 1] - begin;
    double total = 0.0;
    for (size_t k = begin; k < begin + count; ++k) total += s.next_sub[k];
    s.next_task[i] = total;
    s.changed[i] = count > 0 && std::memcmp(s.next_sub.data() + begin,
                                            s.sub.data() + begin,
                                            count * sizeof(double)) != 0;
    any_changed = any_changed || s.changed[i];
    const double old_t = s.task[i];
    const double new_t = total;
    if (old_t != kInf && new_t != kInf) {
      delta = std::max(delta, std::fabs(new_t - old_t) / std::max(old_t, 1e-12));
    }
  }
  s.sub.swap(s.next_sub);
  s.task.swap(s.next_task);
  return delta < options.tolerance || !any_changed;
}

/// The one implementation of every contention mode: prices each sub-stage
/// of one workflow state and leaves in `s` the sub-stage and task durations
/// and the allocation behind each sub-stage duration.
void RunKernel(const ResourceVector& capacities, BoeOptions::ContentionMode mode,
               const BoeOptions& options, const std::vector<ParallelStage>& stages,
               KernelScratch& s) {
  SeedPaper(capacities, stages, s);
  if (mode == BoeOptions::ContentionMode::kPaper) return;

  const ResourceVector task_caps = PerTaskCaps();
  s.shape.clear();
  for (const auto& ps : stages) {
    for (const auto& ss : ps.stage->substages) {
      s.shape.push_back(MakeFlowShape(capacities, ss.demand, task_caps));
    }
  }
  const size_t n = stages.size();
  s.changed.assign(n, 1);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    s.next_sub = s.sub;
    if (mode == BoeOptions::ContentionMode::kSteadyState) {
      // Every stage's tasks spread across its sub-stages; one solve prices
      // all of them.
      s.solve_shape.clear();
      s.solve_population.clear();
      s.solve_sub.clear();
      for (size_t i = 0; i < n; ++i) AppendSpreadFlows(stages, i, s);
      s.equilibrium.Solve(capacities, s.solve_shape.data(),
                          s.solve_population.data(), s.solve_shape.size());
      for (size_t f = 0; f < s.solve_sub.size(); ++f) {
        const size_t k = s.solve_sub[f];
        s.alloc[k] = s.equilibrium.Offered(f);
        s.next_sub[k] = SubStageDuration(s.shape[k].demand, s.alloc[k]);
      }
    } else {
      // Aligned self: all of stage i's tasks contend in the sub-stage being
      // priced (flow 0), the other stages spread across theirs. A stage's
      // solves depend only on the other stages' durations, so when none of
      // those changed in the last pass they would repeat it: skip them.
      for (size_t i = 0; i < n; ++i) {
        bool inputs_moved = iter == 0;
        for (size_t j = 0; j < n && !inputs_moved; ++j) {
          inputs_moved = j != i && s.changed[j];
        }
        if (!inputs_moved) continue;
        s.solve_shape.resize(1);
        s.solve_population.resize(1);
        s.solve_sub.clear();
        for (size_t j = 0; j < n; ++j) {
          if (j != i) AppendSpreadFlows(stages, j, s);
        }
        s.solve_population[0] = stages[i].tasks_per_node;
        for (size_t k = s.offset[i]; k < s.offset[i + 1]; ++k) {
          s.solve_shape[0] = &s.shape[k];
          s.equilibrium.Solve(capacities, s.solve_shape.data(),
                              s.solve_population.data(), s.solve_shape.size());
          s.alloc[k] = s.equilibrium.Offered(0);
          s.next_sub[k] = SubStageDuration(s.shape[k].demand, s.alloc[k]);
        }
      }
    }
    if (FinishPass(options, n, s)) break;
  }
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

}  // namespace

BoeModel::BoeModel(const NodeSpec& node, BoeOptions options)
    : node_(node), capacities_(node.Capacities()), options_(options) {
  DAGPERF_CHECK(options_.max_iterations > 0);
  std::string bad;
  for (Resource r : kAllResources) {
    const double capacity = capacities_[r];
    if (std::isfinite(capacity) && capacity > 0) continue;  // NaN-safe.
    if (!bad.empty()) bad += ", ";
    bad += std::string(ResourceName(r)) + " capacity " +
           std::to_string(capacity);
  }
  if (!bad.empty()) {
    validation_ = Status::InvalidArgument("node has non-positive or non-finite " + bad);
  }
}

Status BoeModel::Validate() const { return validation_; }

TaskEstimate BoeModel::EstimateTask(const StageProfile& stage,
                                    double tasks_per_node) const {
  ParallelStage ps{&stage, tasks_per_node};
  return EstimateParallel({ps}).front();
}

BoeOptions::ContentionMode BoeModel::KernelMode() const {
  // The refinement modes route through the exact rate solver, whose
  // invariant is positive finite capacity on every demanded resource. On a
  // bad node (see Validate()) fall back to the paper rule, which prices a
  // zero/NaN capacity at Duration::Infinite() and keeps Estimate* total.
  return validation_.ok() ? options_.mode : BoeOptions::ContentionMode::kPaper;
}

std::vector<TaskEstimate> BoeModel::EstimateParallel(
    const std::vector<ParallelStage>& stages) const {
  for (const auto& ps : stages) {
    DAGPERF_CHECK(ps.stage != nullptr);
    DAGPERF_CHECK(ps.tasks_per_node > 0);
  }
  if (stages.empty()) return {};
  KernelScratch& s = LocalKernelScratch();
  RunKernel(capacities_, KernelMode(), options_, stages, s);

  // The per-operation breakdown of each sub-stage at the allocation that
  // priced its final duration.
  std::vector<TaskEstimate> out;
  out.reserve(stages.size());
  for (size_t i = 0; i < stages.size(); ++i) {
    const StageProfile& stage = *stages[i].stage;
    std::vector<SubStageEstimate> subs;
    subs.reserve(stage.substages.size());
    for (size_t sub = 0; sub < stage.substages.size(); ++sub) {
      subs.push_back(EstimateSubStage(stage.substages[sub], s.alloc[s.offset[i] + sub]));
    }
    out.push_back(CombineSubStages(stage, std::move(subs)));
  }
  return out;
}

void BoeModel::EstimateDurations(const std::vector<ParallelStage>& stages,
                                 std::vector<double>* out) const {
  for (const auto& ps : stages) {
    DAGPERF_CHECK(ps.stage != nullptr);
    DAGPERF_CHECK(ps.tasks_per_node > 0);
  }
  out->clear();
  if (stages.empty()) return;
  KernelScratch& s = LocalKernelScratch();
  RunKernel(capacities_, KernelMode(), options_, stages, s);
  out->assign(s.task.begin(), s.task.end());
}

}  // namespace dagperf
