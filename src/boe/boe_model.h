#ifndef DAGPERF_BOE_BOE_MODEL_H_
#define DAGPERF_BOE_BOE_MODEL_H_

#include <string>
#include <vector>

#include "cluster/cluster_spec.h"
#include "cluster/resources.h"
#include "common/status.h"
#include "common/units.h"
#include "workload/job_profile.h"

namespace dagperf {

/// Options for the Bottleneck Oriented Estimation model.
struct BoeOptions {
  /// How contention on shared resources is counted across sub-stages.
  enum class ContentionMode {
    /// Paper-faithful (Eq. 5): every task of every co-running stage contends
    /// on each resource its stage uses, i.e. mu_X(Delta) = 1/Delta_X where
    /// Delta_X counts all tasks whose stage demands X anywhere.
    kPaper,
    /// Steady-state refinement: the task population of a stage is spread
    /// across its sub-stages in proportion to sub-stage durations, and
    /// allocations come from the exact max-min fair-share solver. Kept as an
    /// ablation of the paper's simplification (see bench_ablation).
    kSteadyState,
    /// Wave-aligned refinement (default): tasks of the *queried* stage are
    /// assumed sub-stage aligned (slot scheduling launches them in waves
    /// that progress in lock-step), while co-running stages' tasks spread
    /// across their sub-stages and consume only their effective usage
    /// (p_X < 1 for non-bottleneck resources, §III-A3). Reduces to the
    /// paper rule for a single stage with one dominant sub-stage.
    kAlignedSelf,
  };

  ContentionMode mode = ContentionMode::kAlignedSelf;
  /// Fixed-point iterations for kSteadyState.
  int max_iterations = 60;
  double tolerance = 1e-9;
};

/// Per-operation cost inside one sub-stage estimate.
struct OpEstimate {
  Resource resource = Resource::kCpu;
  /// Demand in resource units (bytes, or core-seconds for CPU).
  double demand = 0.0;
  /// Time this operation alone would need at its allocated share.
  Duration time;
  /// Effective utilisation p_X of the allocated share: time / substage time
  /// (1.0 exactly for the bottleneck resource).
  double utilization = 0.0;
};

/// Estimate for one pipelined sub-stage: the max over its operations.
struct SubStageEstimate {
  std::string name;
  Duration duration;
  Resource bottleneck = Resource::kCpu;
  std::vector<OpEstimate> ops;
};

/// Estimate for one task of a stage: the sum of its sub-stage estimates
/// (sub-stages are separated by bulk synchronisation and do not overlap).
struct TaskEstimate {
  std::string stage_name;
  Duration duration;
  /// Bottleneck of the longest sub-stage — "the" bottleneck of the stage.
  Resource bottleneck = Resource::kCpu;
  std::vector<SubStageEstimate> substages;
};

/// A stage running concurrently with others in one workflow state.
struct ParallelStage {
  const StageProfile* stage = nullptr;
  /// Average concurrent tasks of this stage per node (Delta_i / #nodes).
  /// May be fractional.
  double tasks_per_node = 0.0;
};

/// Bottleneck Oriented Estimation (paper §III).
///
/// Estimates task execution time by pricing each sub-stage's operations at
/// the throughput share the task receives given the degree of parallelism,
/// and taking the max (pipelined operations overlap; the slowest one paces
/// the tuple pipeline). The model is purely analytical: inputs are a node
/// spec, compiled stage profiles, and task populations.
class BoeModel {
 public:
  explicit BoeModel(const NodeSpec& node, BoeOptions options = {});

  /// Checks the node's effective throughputs: InvalidArgument naming every
  /// resource axis whose capacity is zero, negative, NaN, or infinite. The
  /// check runs once, at construction.
  /// Estimate* methods stay total even on a bad node (a zero/NaN capacity
  /// prices affected operations at Duration::Infinite(), never NaN), but
  /// callers feeding user-supplied hardware specs should check this first —
  /// the estimator/simulator firewall does it via ValidateClusterSpec.
  Status Validate() const;

  /// Task time for a single stage running alone with `tasks_per_node`
  /// concurrent tasks per node.
  TaskEstimate EstimateTask(const StageProfile& stage, double tasks_per_node) const;

  /// Task times for multiple stages sharing the cluster in one workflow
  /// state (parallel jobs). Returns one estimate per input stage, with each
  /// sub-stage's operations priced at the allocation that set its duration.
  std::vector<TaskEstimate> EstimateParallel(
      const std::vector<ParallelStage>& stages) const;

  /// Duration-only fast path for hot loops: writes one task duration in
  /// seconds per input stage into `*out` (resized, capacity reused).
  /// Runs the same kernel as EstimateParallel, so it is bit-identical to its
  /// `.duration` fields, but skips the per-operation/sub-stage breakdown: no
  /// strings, no OpEstimate vectors, flat thread-local scratch.
  void EstimateDurations(const std::vector<ParallelStage>& stages,
                         std::vector<double>* out) const;

  const NodeSpec& node() const { return node_; }
  const BoeOptions& options() const { return options_; }

 private:
  /// The contention mode the kernel runs: options().mode, or the paper rule
  /// on a node that fails Validate().
  BoeOptions::ContentionMode KernelMode() const;

  NodeSpec node_;
  ResourceVector capacities_;
  BoeOptions options_;
  /// Validate()'s answer, fixed at construction.
  Status validation_ = Status::Ok();
};

}  // namespace dagperf

#endif  // DAGPERF_BOE_BOE_MODEL_H_
