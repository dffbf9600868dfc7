#ifndef DAGPERF_MODEL_SWEEP_H_
#define DAGPERF_MODEL_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_spec.h"
#include "common/parallel.h"
#include "common/status.h"
#include "dag/dag_workflow.h"
#include "model/incremental.h"
#include "model/state_estimator.h"
#include "model/task_time_cache.h"
#include "model/task_time_source.h"
#include "scheduler/drf.h"

namespace dagperf {

/// Batch what-if estimation — the sweep engine.
///
/// The paper's headline applications (job self-tuning, cloud capacity
/// planning, §I) are sweeps: many Estimate() calls over candidate knob
/// settings. EstimateBatch evaluates the candidates across a worker pool and
/// answers recurring task-time queries from a shared memo cache, turning the
/// estimator from "one prediction at a time" into a throughput-oriented
/// service core. Results are bit-identical to running the serial uncached
/// loop (see the determinism contract on TaskTimeMemo).

/// One candidate of a sweep: a workflow on a cluster. The workflow (and any
/// TaskTimeSource passed to EstimateBatch) must outlive the call.
struct SweepCandidate {
  const DagWorkflow* flow = nullptr;
  ClusterSpec cluster;
  /// Optional display name carried through to reports (CLI/bench output).
  std::string label;
};

struct SweepOptions {
  /// Worker threads: 1 evaluates serially on the calling thread (the
  /// baseline loop), 0 uses the process-wide default pool, > 1 runs on a
  /// dedicated pool of that size. Ignored when `pool` is set.
  int threads = 0;

  /// Answer repeated task-time queries from a memo cache.
  bool memoize = true;

  /// External memo reused across EstimateBatch calls (e.g. the rounds of an
  /// adaptive search); the caller owns the memo. When null, the candidates
  /// of one batch share a batch-local memo (most stages are unchanged
  /// between candidates of a knob sweep, so cross-candidate sharing is where
  /// the big hit rates come from).
  TaskTimeMemo* memo = nullptr;

  /// Key prefix distinguishing entries in an external memo when the batches
  /// sharing it differ in ways the estimation context does not capture
  /// (different node hardware, sources, or fixed overheads).
  std::string cache_scope;

  /// Incremental re-estimation (model/incremental.h): candidates sharing a
  /// workflow prefix resume from checkpointed estimator state instead of
  /// replaying it. Results stay bit-identical — resume restores the exact
  /// recorded state — so this only trades memory for throughput.
  bool incremental = true;

  /// External checkpoint store reused across EstimateBatch calls (the
  /// service wires its cross-request store here; the caller owns it). When
  /// null, an incremental batch uses a batch-local store so candidates
  /// still share prefixes within the batch. Entries are scoped by
  /// `cache_scope` — reuse the store across differing sources only with
  /// distinct scopes, exactly like the task-time memo.
  PrefixCheckpointStore* checkpoints = nullptr;

  /// Pool override; when set, `threads` is ignored.
  ThreadPool* pool = nullptr;

  /// Cooperative budget for the whole batch: candidates not yet started are
  /// skipped (their slot carries Status::Cancelled / DeadlineExceeded),
  /// candidates mid-estimate unwind at their next state boundary. Completed
  /// estimates are kept — EstimateBatch always returns the partial results.
  Budget budget;

  /// Per-candidate estimator options. The batch-level cancel/deadline are
  /// propagated into these (unless the caller set estimator-level ones), so
  /// a firing budget also unwinds the candidate currently estimating.
  EstimatorOptions estimator;
};

struct SweepStats {
  int candidates = 0;
  /// Candidates with a successful estimate.
  int completed = 0;
  /// Candidates that failed with a real error (invalid input, internal) —
  /// budget-related outcomes are counted separately below.
  int failures = 0;
  /// Candidates skipped or unwound by cancellation / the batch deadline.
  int cancelled = 0;
  int deadline_exceeded = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// hits / (hits + misses); 0 when the cache was off or unused.
  double cache_hit_rate = 0.0;
  /// Incremental re-estimation over this batch: candidates that resumed
  /// from a shared-prefix checkpoint / started from scratch, the total
  /// workflow states skipped by resuming, and checkpoints newly recorded.
  std::uint64_t prefix_hits = 0;
  std::uint64_t prefix_misses = 0;
  std::uint64_t resumed_states = 0;
  std::uint64_t checkpoints_stored = 0;
  /// Index of the smallest-makespan successful estimate (first on ties),
  /// -1 when every candidate failed.
  int best_index = -1;
  Duration best_makespan = Duration::Infinite();
};

struct SweepResult {
  /// Per-candidate estimates, in request order.
  std::vector<Result<DagEstimate>> estimates;
  SweepStats stats;
};

/// Estimates every request, fanning candidates across the pool and sharing
/// task-time work through the memo cache per `options`. When no budget
/// fires, the per-candidate results (order, values, errors) are
/// bit-identical to calling StateBasedEstimator::Estimate serially per
/// request without a cache. When cancellation or the deadline fires
/// mid-batch, already-finished candidates keep their results and every
/// unfinished slot carries the budget status — callers always get the
/// partial results plus per-outcome counts in SweepStats.
SweepResult EstimateBatch(const std::vector<SweepCandidate>& requests,
                          const SchedulerConfig& scheduler,
                          const TaskTimeSource& source,
                          const SweepOptions& options = {});

/// Compiles one single-job workflow per reducer count — the candidate set of
/// a reducer sweep. Fails on invalid counts (< 1) or uncompilable specs.
/// The returned flows back the EstimateRequests pointing at them.
Result<std::vector<DagWorkflow>> BuildReducerCandidates(
    const JobSpec& job, const std::vector<int>& reducer_counts);

}  // namespace dagperf

#endif  // DAGPERF_MODEL_SWEEP_H_
