#include "model/sweep.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

#include "common/cancel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dagperf {

namespace {

/// Sweep-engine metrics (obs/metrics.h): cumulative candidate/failure
/// counts, the last batch's cache behaviour, and the memo hit-rate gauge the
/// CLI's --metrics-json surfaces next to `sweep --json` output.
struct SweepMetrics {
  obs::Counter& candidates;
  obs::Counter& failures;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Gauge& cache_hit_rate;
  obs::Counter& cancelled;
  obs::Counter& deadline_exceeded;

  SweepMetrics()
      : candidates(
            obs::MetricsRegistry::Default().GetCounter("sweep.candidates")),
        failures(obs::MetricsRegistry::Default().GetCounter("sweep.failures")),
        cache_hits(
            obs::MetricsRegistry::Default().GetCounter("sweep.cache_hits")),
        cache_misses(
            obs::MetricsRegistry::Default().GetCounter("sweep.cache_misses")),
        cache_hit_rate(
            obs::MetricsRegistry::Default().GetGauge("sweep.cache_hit_rate")),
        cancelled(obs::MetricsRegistry::Default().GetCounter("sweep.cancelled")),
        deadline_exceeded(obs::MetricsRegistry::Default().GetCounter(
            "sweep.deadline_exceeded")) {}
};

SweepMetrics& Metrics() {
  static SweepMetrics* metrics = new SweepMetrics();
  return *metrics;
}

Result<DagEstimate> EstimateOne(const SweepCandidate& request,
                                const SchedulerConfig& scheduler,
                                const TaskTimeSource& source,
                                const EstimatorOptions& estimator_options) {
  if (request.flow == nullptr) {
    return Status::InvalidArgument("sweep request has no workflow");
  }
  // The estimator is the firewall here: its constructor validates the
  // cluster (every violation, not just the first) and Estimate() validates
  // the flow, so an invalid candidate yields a full diagnostic.
  const StateBasedEstimator estimator(request.cluster, scheduler,
                                      estimator_options);
  return estimator.Estimate(*request.flow, source);
}

}  // namespace

SweepResult EstimateBatch(const std::vector<SweepCandidate>& requests,
                          const SchedulerConfig& scheduler,
                          const TaskTimeSource& source, const SweepOptions& options) {
  SweepResult result;
  result.stats.candidates = static_cast<int>(requests.size());
  if (requests.empty()) return result;

  // Cache wiring. An external memo wins; otherwise the batch shares a
  // batch-local memo.
  TaskTimeMemo* memo = nullptr;
  std::optional<TaskTimeMemo> local_memo;
  if (options.memoize) {
    memo = options.memo;
    if (memo == nullptr) memo = &local_memo.emplace();
  }
  const TaskTimeMemo::Stats before =
      memo != nullptr ? memo->stats() : TaskTimeMemo::Stats{};
  // One decorator serves every candidate: it holds only (source, memo,
  // scope) and is safe to share across the pool's workers.
  std::optional<MemoizedTaskTimeSource> cached;
  if (memo != nullptr) cached.emplace(source, memo, options.cache_scope);
  const TaskTimeSource& priced = cached ? *cached : source;

  // Checkpoint-store wiring mirrors the memo: an external store wins,
  // otherwise an incremental batch gets a batch-local store so candidates
  // still resume from each other's prefixes.
  PrefixCheckpointStore* store = nullptr;
  std::optional<PrefixCheckpointStore> local_store;
  if (options.incremental) {
    store = options.checkpoints;
    if (store == nullptr) store = &local_store.emplace();
  }
  const PrefixCheckpointStore::Stats cp_before =
      store != nullptr ? store->stats() : PrefixCheckpointStore::Stats{};

  // Batch-level budget propagates into each candidate's estimator (unless
  // the caller set estimator-level signals), so a firing budget also unwinds
  // the candidate currently mid-estimate, not just unstarted ones.
  EstimatorOptions estimator_options = options.estimator;
  estimator_options.budget = estimator_options.budget.MergedWith(options.budget);
  if (store != nullptr) {
    estimator_options.checkpoints = store;
    estimator_options.checkpoint_scope = options.cache_scope;
  }

  // Per-candidate global fingerprints, computed in the ordering block below
  // (before any evaluation) and handed to the estimator so it does not
  // re-serialise them for its checkpoint lookups; per-job fingerprints come
  // precomputed on each immutable flow. Empty when incremental is off.
  struct CandidateFingerprints {
    std::string global;
    std::vector<std::size_t> sig;  // hash(global), then per-job fp hashes.
  };
  std::vector<CandidateFingerprints> fingerprints;

  result.estimates.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    result.estimates.emplace_back(Status::Internal("not evaluated"));
  }
  // Which slots actually ran: under a firing budget, skipped slots keep the
  // placeholder and are stamped with the budget status below.
  std::vector<char> evaluated(requests.size(), 0);

  const auto evaluate = [&](size_t i) {
    std::optional<obs::ScopedSpan> span;
    if (obs::TraceRecorder::Default().enabled()) {
      const std::string& label = requests[i].label;
      span.emplace("candidate " +
                       (label.empty()
                            ? (requests[i].flow != nullptr ? requests[i].flow->name()
                                                           : std::to_string(i))
                            : label),
                   "sweep");
    }
    EstimatorOptions candidate_options = estimator_options;
    if (i < fingerprints.size() && !fingerprints[i].sig.empty()) {
      candidate_options.checkpoint_global_fp = &fingerprints[i].global;
    }
    result.estimates[i] =
        EstimateOne(requests[i], scheduler, priced, candidate_options);
    evaluated[i] = 1;
  };

  // Evaluation order. Results land in request-order slots regardless, and
  // each candidate's bits are order-independent (memo and checkpoints are
  // both bit-exact), so reordering only changes cache locality: with a
  // checkpoint store, sorting by structural fingerprint evaluates candidates
  // with shared workflow prefixes consecutively, maximising resume depth.
  //
  // The fingerprints are computed once per candidate here and passed through
  // to the estimator (EstimatorOptions::checkpoint_global_fp), which would
  // otherwise recompute the same bytes for its own checkpoint lookups — on a
  // warm dense neighborhood that recomputation is a double-digit fraction of
  // a resumed estimate. Ordering compares per-fingerprint hashes rather than
  // the multi-KB fingerprints themselves: any consistent order that keeps
  // equal prefixes adjacent clusters the candidates equally well.
  std::vector<size_t> order(requests.size());
  std::iota(order.begin(), order.end(), 0);
  if (store != nullptr) {
    fingerprints.resize(requests.size());
    const std::hash<std::string> hasher;
    for (size_t i = 0; i < requests.size(); ++i) {
      const DagWorkflow* flow = requests[i].flow;
      if (flow == nullptr) continue;
      CandidateFingerprints& fp = fingerprints[i];
      PrefixCheckpointStore::AppendGlobalFingerprint(
          options.cache_scope, requests[i].cluster, scheduler,
          estimator_options, &fp.global);
      fp.sig.reserve(flow->num_jobs() + 1);
      fp.sig.push_back(hasher(fp.global));
      for (JobId id = 0; id < flow->num_jobs(); ++id) {
        fp.sig.push_back(flow->job_fingerprint_hash(id));
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return std::lexicographical_compare(
          fingerprints[a].sig.begin(), fingerprints[a].sig.end(),
          fingerprints[b].sig.begin(), fingerprints[b].sig.end());
    });
  }

  // A dedicated pool larger than the machine is pure context-switch
  // overhead: oversubscribed workers time-slice one another without adding
  // throughput. Clamp to the hardware, and degrade to the serial loop when
  // that leaves a single worker.
  int effective_threads = options.threads;
  if (options.pool == nullptr && effective_threads > 1) {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0 && static_cast<unsigned>(effective_threads) > hw) {
      effective_threads = static_cast<int>(hw);
    }
  }

  Status budget_status = Status::Ok();
  if (options.pool == nullptr && effective_threads == 1) {
    for (const size_t i : order) {
      budget_status = options.budget.Check("sweep");
      if (!budget_status.ok()) break;
      evaluate(i);
    }
  } else {
    std::optional<ThreadPool> dedicated;
    ThreadPool* pool = options.pool;
    if (pool == nullptr && effective_threads > 1) {
      dedicated.emplace(effective_threads);
      pool = &*dedicated;
    }
    const bool shared = memo != nullptr || store != nullptr;
    size_t start = 0;
    if (shared) {
      // Prime the shared caches on the calling thread: one candidate fills
      // the memo/checkpoint entries the rest of the batch will hit, instead
      // of every worker racing to compute the same misses in parallel.
      budget_status = options.budget.Check("sweep");
      if (budget_status.ok()) {
        evaluate(order[0]);
        start = 1;
      }
    }
    if (budget_status.ok() && start < order.size()) {
      const size_t remaining = order.size() - start;
      // Warm cached candidates are microseconds of work; batch several per
      // pool task so dispatch overhead cannot swamp them (this is what keeps
      // parallel-cached throughput above serial-cached).
      size_t chunk = 1;
      if (shared) {
        const size_t workers = static_cast<size_t>(
            pool != nullptr ? pool->size() : DefaultPool().size());
        chunk = std::max<size_t>(1, remaining / (std::max<size_t>(workers, 1) * 4));
      }
      const std::int64_t num_chunks =
          static_cast<std::int64_t>((remaining + chunk - 1) / chunk);
      budget_status = ParallelFor(
          0, num_chunks,
          [&](std::int64_t c) {
            const size_t lo = start + static_cast<size_t>(c) * chunk;
            const size_t hi = std::min(order.size(), lo + chunk);
            for (size_t k = lo; k < hi; ++k) evaluate(order[k]);
          },
          options.budget, pool);
    }
  }
  if (!budget_status.ok()) {
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!evaluated[i]) result.estimates[i] = budget_status;
    }
  }

  for (size_t i = 0; i < result.estimates.size(); ++i) {
    const Result<DagEstimate>& estimate = result.estimates[i];
    if (!estimate.ok()) {
      switch (estimate.status().code()) {
        case ErrorCode::kCancelled:
          ++result.stats.cancelled;
          break;
        case ErrorCode::kDeadlineExceeded:
          ++result.stats.deadline_exceeded;
          break;
        default:
          ++result.stats.failures;
          break;
      }
      continue;
    }
    ++result.stats.completed;
    if (estimate->makespan < result.stats.best_makespan) {
      result.stats.best_makespan = estimate->makespan;
      result.stats.best_index = static_cast<int>(i);
    }
  }

  if (memo != nullptr) {
    const TaskTimeMemo::Stats after = memo->stats();
    result.stats.cache_hits = after.hits - before.hits;
    result.stats.cache_misses = after.misses - before.misses;
  }
  const std::uint64_t queries = result.stats.cache_hits + result.stats.cache_misses;
  result.stats.cache_hit_rate =
      queries == 0 ? 0.0
                   : static_cast<double>(result.stats.cache_hits) /
                         static_cast<double>(queries);

  if (store != nullptr) {
    const PrefixCheckpointStore::Stats cp_after = store->stats();
    result.stats.prefix_hits = cp_after.hits - cp_before.hits;
    result.stats.prefix_misses = cp_after.misses - cp_before.misses;
    result.stats.resumed_states = cp_after.resumed_states - cp_before.resumed_states;
    result.stats.checkpoints_stored = cp_after.inserts - cp_before.inserts;
  }

  SweepMetrics& metrics = Metrics();
  metrics.candidates.Add(static_cast<std::uint64_t>(result.stats.candidates));
  metrics.failures.Add(static_cast<std::uint64_t>(result.stats.failures));
  metrics.cache_hits.Add(result.stats.cache_hits);
  metrics.cache_misses.Add(result.stats.cache_misses);
  metrics.cache_hit_rate.Set(result.stats.cache_hit_rate);
  metrics.cancelled.Add(static_cast<std::uint64_t>(result.stats.cancelled));
  metrics.deadline_exceeded.Add(
      static_cast<std::uint64_t>(result.stats.deadline_exceeded));
  return result;
}

Result<std::vector<DagWorkflow>> BuildReducerCandidates(
    const JobSpec& job, const std::vector<int>& reducer_counts) {
  if (job.num_reduce_tasks == 0) {
    return Status::InvalidArgument(job.name + ": map-only job has no reducers");
  }
  std::vector<DagWorkflow> flows;
  flows.reserve(reducer_counts.size());
  for (int reducers : reducer_counts) {
    if (reducers < 1) return Status::InvalidArgument("candidate reducers < 1");
    JobSpec candidate = job;
    candidate.num_reduce_tasks = reducers;
    DagBuilder builder(job.name + "-r" + std::to_string(reducers));
    builder.AddJob(candidate);
    Result<DagWorkflow> flow = std::move(builder).Build();
    if (!flow.ok()) return flow.status();
    flows.push_back(std::move(flow).value());
  }
  return flows;
}

}  // namespace dagperf
