#ifndef DAGPERF_SIM_SIMULATOR_H_
#define DAGPERF_SIM_SIMULATOR_H_

#include <cstdint>

#include "cluster/cluster_spec.h"
#include "common/status.h"
#include "dag/dag_workflow.h"
#include "scheduler/drf.h"
#include "sim/sim_result.h"

namespace dagperf {

/// Simulator knobs beyond cluster hardware and scheduler policy.
struct SimOptions {
  /// Seed for task-size skew draws. Same seed + same workflow = identical run.
  uint64_t seed = 42;

  /// Fixed per-task startup latency (container launch, JVM spin-up). Burned
  /// before the first sub-stage without consuming modelled resources; one of
  /// the real-world effects the analytical models do not capture.
  double task_startup_seconds = 1.0;

  /// Abort the run if simulated time exceeds this bound (guards against
  /// pathological configurations).
  double max_sim_seconds = 1e7;

  /// Coefficient of variation of per-node speed (all four resources scaled
  /// by a log-normal factor drawn per node). Real fleets are never
  /// perfectly uniform — ageing disks, thermal throttling, noisy
  /// neighbours — and node-speed variance is what gives speculative
  /// execution its purpose. 0 = the paper's idealised homogeneous cluster.
  double node_speed_cv = 0.0;

  /// Speculative execution (Hadoop's straggler mitigation): once a stage
  /// has dispatched all of its tasks, any attempt that has been running
  /// longer than `speculation_threshold` times the stage's median completed
  /// task duration gets a backup attempt on a free slot; the first attempt
  /// to finish wins and the other is killed. Interacts with reduce-key skew
  /// (the paper's future-work topic): it truncates the straggler tail that
  /// Alg2-Normal models.
  bool enable_speculation = false;
  double speculation_threshold = 1.5;

  /// Probability that a task attempt fails at completion of one of its
  /// sub-stages and is re-executed from scratch (MapReduce's task-level
  /// fault tolerance: the attempt's work is lost, the task re-queues). The
  /// analytical models do not represent failures; this knob quantifies how
  /// gracefully their accuracy degrades (see failure-injection tests).
  double task_failure_prob = 0.0;

  /// Fair-share container preemption (YARN fair scheduler semantics): when
  /// a runnable stage is starved below its DRF share while another job runs
  /// above its share, the over-share job's newest container is killed and
  /// its task re-queued (losing its progress). Without preemption a running
  /// job monopolises the cluster until its tasks drain — a transient the
  /// analytical models do not represent (see bench_ablation A5).
  bool enable_preemption = true;
};

/// Fluid-flow discrete-event simulator of a YARN-like cluster executing a
/// DAG of MapReduce jobs. This is the reproduction's ground-truth substrate
/// standing in for the paper's physical Hadoop deployment (DESIGN.md §2).
///
/// Between events every running task progresses at a constant rate obtained
/// from the exact max-min fair-share solver applied to its node's resources
/// (nodes are independent: remote shuffle reads and replica writes are
/// charged symmetrically to the task's own node, see CompileJob). Events are
/// sub-stage completions and scheduling actions; containers are granted by a
/// DRF queue without preemption, so a newly started stage acquires its fair
/// share gradually as competitors' tasks finish — exactly the transient the
/// analytical models approximate away.
class Simulator {
 public:
  /// An invalid cluster or configuration does not abort: the validation
  /// failure is recorded and returned by every Run() call, so user-supplied
  /// specs surface as InvalidArgument instead of a CHECK crash.
  Simulator(const ClusterSpec& cluster, const SchedulerConfig& scheduler,
            const SimOptions& options = {});

  /// Runs the validation firewall over `flow` (dag/validate.h), then
  /// executes the workflow to completion and returns the observed task,
  /// stage, and state timeline. Fails if any task can never be placed (slot
  /// demand exceeds node capacity) or the time bound is hit.
  Result<SimResult> Run(const DagWorkflow& flow) const;

 private:
  ClusterSpec cluster_;
  SchedulerConfig scheduler_;
  SimOptions options_;
  Status init_ = Status::Ok();
};

}  // namespace dagperf

#endif  // DAGPERF_SIM_SIMULATOR_H_
