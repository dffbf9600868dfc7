#ifndef DAGPERF_MODEL_STATE_ESTIMATOR_H_
#define DAGPERF_MODEL_STATE_ESTIMATOR_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_spec.h"
#include "common/cancel.h"
#include "common/status.h"
#include "dag/dag_workflow.h"
#include "model/task_time_source.h"
#include "scheduler/drf.h"

namespace dagperf {

class PrefixCheckpointStore;  // model/incremental.h

/// Options of the state-based workflow estimator.
struct EstimatorOptions {
  /// How a stage's remaining time is derived from its task time.
  enum class WaveModel {
    /// Continuous approximation: completion rate Delta / t_task.
    kFluid,
    /// Wave-quantised: ceil(remaining / Delta) waves, each lasting one task
    /// time (the execution pattern of a real slot-scheduled stage).
    kDiscrete,
  };

  WaveModel wave_model = WaveModel::kDiscrete;

  /// Alg2-Normal: model task times as a normal distribution and estimate
  /// each wave's makespan as the expected maximum of Delta draws
  /// (skew-aware estimation, §V-C's "Normal" rows).
  bool skew_aware = false;

  /// Heterogeneity correction (beyond the paper, see bench_ablation A5):
  /// when the fleet's per-node speed has this coefficient of variation
  /// (log-normal, mean 1), a task's expected duration inflates by
  /// E[1/speed] = 1 + cv^2 and node variance adds to the straggler-tail
  /// dispersion. 0 = the paper's homogeneous assumption.
  double node_speed_cv = 0.0;

  /// Safety bound on state iterations.
  int max_states = 1000000;

  /// Cooperative budget for one Estimate() call, polled once per state
  /// transition: a fired token unwinds with Status::Cancelled, an expired
  /// deadline with Status::DeadlineExceeded. The default budget is inert
  /// (one pointer test + one constant compare per state).
  Budget budget;

  /// Ask the TaskTimeSource for per-stage resource attribution (BOE
  /// bottleneck arg-max + utilisation shares) and record it on every
  /// RunningStageEstimate. Off by default: attribution re-prices each
  /// running stage once per state, which would roughly double BOE cost on
  /// the sweep hot path. Explain reports (model/explain.h) turn it on.
  bool attribute_bottlenecks = false;

  /// Prefix-resume checkpointing (model/incremental.h). When set, Estimate()
  /// resumes from the deepest stored checkpoint whose structural prefix
  /// matches the flow, and records new checkpoints at job-completion
  /// boundaries. Resumed estimates are bit-identical to full replay. The
  /// caller owns the store, which must outlive every Estimate() call.
  PrefixCheckpointStore* checkpoints = nullptr;

  /// Scope prefix for checkpoint keys, mirroring TaskTimeMemo scoping: the
  /// TaskTimeSource identity is not captured by the checkpoint key, so set a
  /// distinct scope per source (hardware model, fixed overheads, profile
  /// data) when several share one store. The service uses its per-cluster
  /// scope.
  std::string checkpoint_scope;

  /// Advanced: the precomputed global checkpoint fingerprint — exactly the
  /// bytes AppendGlobalFingerprint would produce for (checkpoint_scope, the
  /// cluster, the scheduler, these options). The sweep engine computes it
  /// once per candidate for evaluation ordering, and the service once per
  /// request for its warm probe, and each passes it here so the estimator
  /// skips re-serialising it. (Per-job fingerprints
  /// are precomputed on the immutable DagWorkflow itself.) A mismatched
  /// fingerprint breaks resume correctness; leave null to have the
  /// estimator compute its own. Must outlive the call.
  const std::string* checkpoint_global_fp = nullptr;
};

/// One running stage inside an estimated workflow state.
struct RunningStageEstimate {
  JobId job = 0;
  StageKind kind = StageKind::kMap;
  /// Cluster-wide degree of parallelism granted by the scheduler model.
  int parallelism = 0;
  /// Estimated per-task execution time under this state's contention.
  double task_time_s = 0.0;
  /// Resource attribution, filled when EstimatorOptions::
  /// attribute_bottlenecks is set and the source models resources (BOE).
  bool has_attribution = false;
  /// The BOE model's arg-max: the resource pacing the task's longest
  /// sub-stage under this state's contention.
  Resource bottleneck = Resource::kCpu;
  /// Per-resource utilisation share of the task's work time, in [0, 1];
  /// exactly 1.0 for a resource that paces every sub-stage.
  ResourceVector utilization;
};

/// One estimated workflow state (paper Fig. 5 / Algorithm 1 iteration).
/// Trivially copyable: the running-stage records live in the flat
/// DagEstimate::running_pool (SoA layout), so copying a state vector — the
/// core of a checkpoint resume — is a memcpy.
struct StateEstimate {
  int index = 0;
  double start = 0.0;
  double duration = 0.0;
  /// This state's running stages are DagEstimate::running_pool
  /// [running_begin, running_begin + running_count); read them through
  /// DagEstimate::running().
  int running_begin = 0;
  int running_count = 0;
  /// Index (within this state's running span) of the stage whose completion
  /// ends this state — the stage Algorithm 1's arg-min advanced time to.
  /// Concatenating each state's critical stage yields the critical path
  /// through the timeline (segments sum exactly to the makespan; see
  /// model/explain.h).
  int critical = -1;
};

/// Borrowed view of one state's running stages inside a DagEstimate.
class RunningSpan {
 public:
  RunningSpan(const RunningStageEstimate* data, std::size_t size)
      : data_(data), size_(size) {}

  const RunningStageEstimate* begin() const { return data_; }
  const RunningStageEstimate* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const RunningStageEstimate& operator[](std::size_t i) const {
    return data_[i];
  }

 private:
  const RunningStageEstimate* data_;
  std::size_t size_;
};

/// Estimated wall-clock span of one job stage.
struct StageSpanEstimate {
  JobId job = 0;
  StageKind kind = StageKind::kMap;
  double start = 0.0;
  double end = 0.0;
};

/// The estimator's output: the predicted execution plan of the workflow.
struct DagEstimate {
  Duration makespan;
  /// States restored from a prefix checkpoint instead of replayed (0 on a
  /// full replay; == states.size() on a complete-result hit). Lets serving
  /// observability classify each request's cost class without guessing.
  int resumed_states = 0;
  std::vector<StateEstimate> states;
  /// Flat pool of per-state running-stage records; index it through
  /// running(state) rather than directly.
  std::vector<RunningStageEstimate> running_pool;
  std::vector<StageSpanEstimate> stages;

  /// The running stages of `state`, which must belong to this estimate. The
  /// view borrows from running_pool: it is invalidated by mutating the
  /// estimate.
  RunningSpan running(const StateEstimate& state) const {
    return RunningSpan(running_pool.data() + state.running_begin,
                       static_cast<std::size_t>(state.running_count));
  }

  Result<StageSpanEstimate> FindStage(JobId job, StageKind kind) const;
};

/// State-based cost estimation for a DAG workflow (paper §IV, Algorithm 1).
///
/// Iteratively: (1) determine the set of running stages, (2) estimate each
/// stage's degree of parallelism with the DRF scheduler model, (3) estimate
/// task times under the state's contention via the supplied TaskTimeSource,
/// (4) advance to the earliest stage completion, (5) transition the workflow
/// state. The workflow estimate is the sum of state durations.
///
/// Thread safety: Estimate() is const and touches no shared mutable state —
/// one estimator instance may serve concurrent Estimate() calls from many
/// threads (the sweep engine in model/sweep.h relies on this), provided the
/// supplied TaskTimeSource is itself safe for concurrent queries (all
/// library sources are; see task_time_source.h).
class StateBasedEstimator {
 public:
  /// An invalid cluster does not abort: construction records the validation
  /// failure and every Estimate() call returns it (so a CLI-supplied
  /// `--nodes -1` surfaces as InvalidArgument, not a CHECK crash).
  StateBasedEstimator(const ClusterSpec& cluster, const SchedulerConfig& scheduler,
                      EstimatorOptions options = {});

  /// Runs the validation firewall over `flow` (dag/validate.h) before
  /// estimating; malformed flows return InvalidArgument listing every
  /// violation. Honours EstimatorOptions::budget per state.
  Result<DagEstimate> Estimate(const DagWorkflow& flow,
                               const TaskTimeSource& source) const;

  /// Allocation-free variant for hot loops: estimates into `*out`, reusing
  /// its vector capacity. After a priming call at the same workflow size, a
  /// warm estimate performs no heap allocation (the per-estimate state lives
  /// in a thread-local arena; see docs/performance.md). `*out` is cleared
  /// and rewritten; on error its contents are unspecified.
  Status EstimateInto(const DagWorkflow& flow, const TaskTimeSource& source,
                      DagEstimate* out) const;

 private:
  ClusterSpec cluster_;
  SchedulerConfig scheduler_;
  /// Engaged iff init_ is Ok (DrfAllocator requires a valid cluster).
  std::optional<DrfAllocator> allocator_;
  EstimatorOptions options_;
  Status init_ = Status::Ok();
};

}  // namespace dagperf

#endif  // DAGPERF_MODEL_STATE_ESTIMATOR_H_
