#ifndef DAGPERF_SCHEDULER_DRF_H_
#define DAGPERF_SCHEDULER_DRF_H_

#include <vector>

#include "cluster/cluster_spec.h"
#include "cluster/resources.h"

namespace dagperf {

/// Scheduling configuration of the (YARN-like) resource manager.
struct SchedulerConfig {
  /// vcores advertised per physical core. YARN deployments routinely
  /// over-subscribe CPU; the paper's experiments reach 12 concurrent tasks
  /// on 6-core nodes, i.e. a factor of 2.
  double vcores_per_core = 2.0;

  /// Optional hard cap on concurrent tasks per node (classic MapReduce slot
  /// count). 0 means "no explicit cap" — only vcores/memory limit
  /// concurrency. The Fig. 6 parallelism sweep sets this to the swept value.
  int max_tasks_per_node = 0;
};

/// One stage's outstanding demand as seen by the scheduler.
struct StageDemand {
  SlotDemand slot;
  /// Tasks of this stage still wanting a container (pending + would-run).
  int remaining_tasks = 0;
};

/// Dominant Resource Fairness allocation (Ghodsi et al., NSDI'11) over
/// <vcores, memory>, the policy YARN's fair scheduler implements and the one
/// the paper assumes (§II-B).
///
/// Given the aggregate cluster capacity and each stage's per-task demand and
/// task backlog, returns the number of concurrently running tasks each stage
/// receives. The result is that of granting containers one at a time to the
/// stage with the smallest dominant share (lowest index on ties) until
/// capacity, per-node caps, or backlogs are exhausted, with the capacity
/// checks made on the same floating-point running sums. It is computed in
/// batches: the smallest-share stage takes its whole run of grants up to
/// the runner-up's share, and stages sharing one slot shape take whole
/// rounds at once (see docs/modeling.md).
class DrfAllocator {
 public:
  DrfAllocator(const ClusterSpec& cluster, const SchedulerConfig& config);

  /// Allocates containers among the given stages. The result has one entry
  /// per input stage; entries are in [0, remaining_tasks].
  std::vector<int> Allocate(const std::vector<StageDemand>& stages) const;

  /// Allocation-free variant for hot loops: writes the grants into
  /// `*granted` (resized to stages.size(), capacity reused).
  void Allocate(const std::vector<StageDemand>& stages,
                std::vector<int>* granted) const;

  /// Max concurrent tasks of a single uniform stage (the cluster-wide slot
  /// count for that container shape).
  int ClusterSlots(const SlotDemand& demand) const;

  /// Max concurrent tasks of the given shape on one node.
  int NodeSlots(const SlotDemand& demand) const;

 private:
  /// Grants when every stage with backlog has the same slot shape: rounds
  /// found by a water-fill over the backlogs. Returns false, granting
  /// nothing, when the shapes differ or the shares are too small to order
  /// grants by count.
  bool AllocateUniform(const std::vector<StageDemand>& stages, int task_cap,
                       std::vector<int>* granted) const;

  /// Grants in runs: the smallest-share stage takes grants until it no
  /// longer fits or its share passes the runner-up's.
  void AllocateRuns(const std::vector<StageDemand>& stages, int task_cap,
                    std::vector<int>* granted) const;

  double total_vcores_;
  double total_memory_;
  double node_vcores_;
  double node_memory_;
  int num_nodes_;
  int max_tasks_per_node_;
};

}  // namespace dagperf

#endif  // DAGPERF_SCHEDULER_DRF_H_
