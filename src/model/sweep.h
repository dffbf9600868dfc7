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

/// Straggler hedging for pooled sweeps (tail-latency control).
///
/// A candidate that runs past a quantile of recently observed candidate
/// latencies gets a *hedge*: a second evaluation of the same candidate
/// launched on the pool. The first result wins; the loser is cancelled via
/// its CancelToken and discarded. Because sources are deterministic and the
/// memo is bit-exact, the hedge computes the identical bits, so hedging
/// changes only latency, never results. The delay quantile comes from a
/// process-wide windowed latency histogram fed by every completed candidate
/// (obs::WindowedHistogram::RecordAlways — it fills with metrics disabled
/// too). Hedging needs a pool and is ignored on the serial path.
struct SweepHedgeOptions {
  bool enabled = false;
  /// Hedge a candidate once it runs past this quantile of the recent
  /// candidate-latency window.
  double quantile = 0.95;
  /// No hedging until the window holds at least this many completions —
  /// an empty or thin window has no meaningful tail.
  int min_samples = 8;
  /// Clamp on the computed delay: never hedge sooner than this (spawn cost
  /// would dominate) nor later (bounds worst-case straggler exposure).
  double min_delay_ms = 0.05;
  double max_delay_ms = 1000.0;
  /// Lookback into the latency window when computing the quantile.
  double window_seconds = 120.0;
};

struct SweepOptions {
  /// Worker threads: 1 evaluates serially on the calling thread (the
  /// baseline loop), 0 uses the process-wide default pool, > 1 runs on a
  /// dedicated pool of that size. Ignored when `pool` is set.
  int threads = 0;

  /// Answer repeated task-time queries from a memo cache.
  bool memoize = true;

  /// Share one cache across all candidates of the batch (most stages are
  /// unchanged between candidates of a knob sweep, so cross-candidate
  /// sharing is where the big hit rates come from). With memoize on but
  /// share_cache off, each candidate gets a private per-estimate cache.
  bool share_cache = true;

  /// External memo reused across EstimateBatch calls (e.g. the rounds of an
  /// adaptive search). Implies share_cache; the caller owns the memo.
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
  /// null and `share_cache` is on, an incremental batch uses a batch-local
  /// store so candidates still share prefixes within the batch. Entries are
  /// scoped by `cache_scope` — reuse the store across differing sources only
  /// with distinct scopes, exactly like the task-time memo.
  PrefixCheckpointStore* checkpoints = nullptr;

  /// Pool override; when set, `threads` is ignored.
  ThreadPool* pool = nullptr;

  /// Cooperative budget for the whole batch: candidates not yet started are
  /// skipped (their slot carries Status::Cancelled / DeadlineExceeded),
  /// candidates mid-estimate unwind at their next state boundary. Completed
  /// estimates are kept — EstimateBatch always returns the partial results.
  Budget budget;

  /// Re-attempt candidates that fail with a *retryable* error (see
  /// IsRetryable: transient resource-bound failures, not invalid input) up
  /// to this many extra times each. Attempts stop early once the batch
  /// budget fires. 0 = no retries.
  int max_retries = 0;

  /// Per-candidate estimator options. The batch-level cancel/deadline are
  /// propagated into these (unless the caller set estimator-level ones), so
  /// a firing budget also unwinds the candidate currently estimating.
  EstimatorOptions estimator;

  /// Straggler hedging (see SweepHedgeOptions). Off by default: it spends
  /// duplicate work for tail latency, a trade only serving paths want.
  SweepHedgeOptions hedge;
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
  /// Total retry attempts performed across all candidates.
  int retries = 0;
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
  /// Straggler hedging over this batch (SweepHedgeOptions): hedges actually
  /// submitted to the pool, hedges whose result won the race, and hedges
  /// that executed but lost (duplicate work spent). launched - won - wasted
  /// hedges were cancelled before they started.
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t hedges_wasted = 0;
  /// Index of the smallest-makespan successful estimate (first on ties),
  /// -1 when every candidate failed.
  int best_index = -1;
  Duration best_makespan = Duration::Infinite();
};

struct SweepResult {
  /// Per-candidate estimates, in request order.
  std::vector<Result<DagEstimate>> estimates;
  /// Wall-clock per candidate in milliseconds (retries and hedge races
  /// included), -1 for slots that never ran. For a hedge-won race this is
  /// the time until the winning copy settled — the result existed from that
  /// moment; the straggling primary unwinding afterwards is duplicated-work
  /// cost, visible in hedges_wasted/hedges_won, not latency. Benches read
  /// this to report candidate tail latency; it is measured unconditionally
  /// because timing two clock reads is noise next to an estimator call.
  std::vector<double> candidate_latency_ms;
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
