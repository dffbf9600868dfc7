#include "model/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/cancel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"

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
  obs::Counter& retries;
  obs::Counter& hedges_launched;
  obs::Counter& hedges_won;
  obs::Counter& hedges_wasted;

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
            "sweep.deadline_exceeded")),
        retries(obs::MetricsRegistry::Default().GetCounter("sweep.retries")),
        hedges_launched(obs::MetricsRegistry::Default().GetCounter(
            "sweep.hedges_launched")),
        hedges_won(
            obs::MetricsRegistry::Default().GetCounter("sweep.hedges_won")),
        hedges_wasted(obs::MetricsRegistry::Default().GetCounter(
            "sweep.hedges_wasted")) {}
};

SweepMetrics& Metrics() {
  static SweepMetrics* metrics = new SweepMetrics();
  return *metrics;
}

/// Process-wide window of recent candidate latencies (µs). Every completed
/// candidate of every batch records here (RecordAlways — the window is a
/// control input for the hedge delay, not telemetry, so it fills with
/// metrics disabled too); hedged batches read their delay quantile from it.
/// Sharing one window across batches is what lets the service's small
/// recurring sweeps accumulate enough samples to arm hedging at all.
obs::WindowedHistogram& HedgeLatencyWindow() {
  static obs::WindowedHistogram* window = new obs::WindowedHistogram();
  return *window;
}

/// One timer thread firing scheduled thunks after a delay; hedged batches
/// use it to launch the hedge once a candidate overstays its quantile.
/// Thunks run on the timer thread and must stay cheap (the hedge itself is
/// submitted to the worker pool). Shutdown() drops unfired thunks and joins;
/// after it returns no thunk is running or will run.
class HedgeScheduler {
 public:
  ~HedgeScheduler() { Shutdown(); }

  void After(double delay_us, std::function<void()> fn) {
    const double due_us = obs::MonotonicUs() + std::max(0.0, delay_us);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_) return;
      if (!thread_.joinable()) thread_ = std::thread([this] { Loop(); });
      queue_.push_back({due_us, std::move(fn)});
      std::push_heap(queue_.begin(), queue_.end(), Later);
    }
    wake_.notify_one();
  }

  void Shutdown() {
    std::thread timer;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
      queue_.clear();
      timer = std::move(thread_);
    }
    wake_.notify_all();
    if (timer.joinable()) timer.join();
  }

 private:
  struct Item {
    double due_us = 0.0;
    std::function<void()> fn;
  };
  static bool Later(const Item& a, const Item& b) { return a.due_us > b.due_us; }

  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopped_) {
      if (queue_.empty()) {
        wake_.wait(lock);
        continue;
      }
      const double now_us = obs::MonotonicUs();
      const double due_us = queue_.front().due_us;
      if (now_us < due_us) {
        wake_.wait_for(lock, std::chrono::duration<double, std::micro>(
                                 due_us - now_us));
        continue;
      }
      std::pop_heap(queue_.begin(), queue_.end(), Later);
      Item item = std::move(queue_.back());
      queue_.pop_back();
      lock.unlock();
      item.fn();
      lock.lock();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<Item> queue_;
  bool stopped_ = false;
  std::thread thread_;
};

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

  // Cache wiring. An external memo wins; otherwise a batch-local shared memo
  // or one private memo per candidate.
  TaskTimeMemo* shared_memo = options.memo;
  std::optional<TaskTimeMemo> local_memo;
  if (options.memoize && shared_memo == nullptr && options.share_cache) {
    local_memo.emplace();
    shared_memo = &*local_memo;
  }
  const TaskTimeMemo::Stats before =
      shared_memo != nullptr ? shared_memo->stats() : TaskTimeMemo::Stats{};

  // Checkpoint-store wiring mirrors the memo: an external store wins,
  // otherwise an incremental shared-cache batch gets a batch-local store so
  // candidates still resume from each other's prefixes.
  PrefixCheckpointStore* store = options.checkpoints;
  std::optional<PrefixCheckpointStore> local_store;
  if (options.incremental && store == nullptr && options.share_cache) {
    local_store.emplace();
    store = &*local_store;
  }
  if (!options.incremental) store = nullptr;
  const PrefixCheckpointStore::Stats cp_before =
      store != nullptr ? store->stats() : PrefixCheckpointStore::Stats{};

  std::vector<std::unique_ptr<TaskTimeMemo>> private_memos;
  if (options.memoize && shared_memo == nullptr) {
    private_memos.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      private_memos.push_back(std::make_unique<TaskTimeMemo>());
    }
  }

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

  std::atomic<int> retries{0};

  /// Hedging machinery, armed only in the pooled branch below (the serial
  /// path has no second worker to race). `pool` doubles as the armed flag.
  struct HedgeState {
    ThreadPool* pool = nullptr;
    std::atomic<std::uint64_t> launched{0};
    std::atomic<std::uint64_t> won{0};
    std::atomic<std::uint64_t> wasted{0};
    /// Hedge tasks submitted but not yet finished; the batch cannot return
    /// (or compute stats) while any hedge still references its state.
    std::atomic<int> outstanding{0};
    std::mutex mutex;
    std::condition_variable drained;
  };
  HedgeState hedge_state;
  HedgeScheduler hedge_timer;

  /// One evaluation attempt of candidate `i`. `attempt_cancel` (when set)
  /// is OR-ed into the budget so a hedge race can unwind the losing side
  /// without touching the batch budget.
  const auto once = [&](size_t i,
                        const CancelToken* attempt_cancel) -> Result<DagEstimate> {
    EstimatorOptions candidate_options = estimator_options;
    if (i < fingerprints.size() && !fingerprints[i].sig.empty()) {
      candidate_options.checkpoint_global_fp = &fingerprints[i].global;
    }
    if (attempt_cancel != nullptr) {
      candidate_options.budget.cancel = CancelToken::LinkedTo(
          {candidate_options.budget.cancel, *attempt_cancel});
    }
    if (!options.memoize) {
      return EstimateOne(requests[i], scheduler, source, candidate_options);
    }
    TaskTimeMemo* memo =
        shared_memo != nullptr ? shared_memo : private_memos[i].get();
    const MemoizedTaskTimeSource cached(source, memo, options.cache_scope);
    return EstimateOne(requests[i], scheduler, cached, candidate_options);
  };

  /// Delay before hedging, from the recent-latency window; < 0 disables
  /// (window too thin to know what "straggler" means yet).
  const auto hedge_delay_us = [&]() -> double {
    const obs::Histogram::Snapshot snap =
        HedgeLatencyWindow().Snap(options.hedge.window_seconds);
    const int min_samples = std::max(1, options.hedge.min_samples);
    if (snap.count < static_cast<std::uint64_t>(min_samples)) return -1.0;
    const double q_us = snap.Quantile(options.hedge.quantile);
    return std::clamp(q_us, options.hedge.min_delay_ms * 1e3,
                      std::max(options.hedge.min_delay_ms,
                               options.hedge.max_delay_ms) *
                          1e3);
  };

  /// First attempt at candidate `i`, hedged when armed: the primary runs
  /// inline; if it overstays the delay, a duplicate launches on the pool.
  /// First finished result settles the race and cancels the other side.
  /// Both sides compute identical bits (deterministic source, bit-exact
  /// memo), so which one wins is unobservable in the output.
  const auto attempt = [&](size_t i,
                           double* settled_us) -> Result<DagEstimate> {
    double delay_us = -1.0;
    if (hedge_state.pool != nullptr) delay_us = hedge_delay_us();
    if (delay_us < 0) return once(i, nullptr);

    struct Race {
      std::atomic<bool> settled{false};
      CancelToken primary_cancel = CancelToken::Cancellable();
      CancelToken hedge_cancel = CancelToken::Cancellable();
      std::mutex mutex;
      std::condition_variable done;
      bool hedge_done = false;
      std::optional<Result<DagEstimate>> hedge_result;
      /// When the hedge won: the instant its result settled the race. The
      /// candidate's answer exists from this moment; the straggling primary
      /// unwinding afterwards is duplicated-work cost, not result latency.
      double settle_us = 0.0;
    };
    auto race = std::make_shared<Race>();

    hedge_timer.After(delay_us, [&, race, i] {
      // Timer thread: launch the hedge unless the primary already settled.
      if (race->settled.load(std::memory_order_acquire)) return;
      hedge_state.outstanding.fetch_add(1, std::memory_order_relaxed);
      hedge_state.launched.fetch_add(1, std::memory_order_relaxed);
      hedge_state.pool->Submit([&, race, i] {
        Result<DagEstimate> hedged = Status::Cancelled("hedge superseded");
        bool ran = false;
        if (!race->settled.load(std::memory_order_acquire)) {
          ran = true;
          hedged = once(i, &race->hedge_cancel);
        }
        if (!race->settled.exchange(true, std::memory_order_acq_rel)) {
          // Hedge won: unwind the primary, publish the result.
          const double settle_us = obs::MonotonicUs();
          race->primary_cancel.Cancel();
          {
            std::lock_guard<std::mutex> lock(race->mutex);
            race->hedge_result = std::move(hedged);
            race->hedge_done = true;
            race->settle_us = settle_us;
          }
          race->done.notify_all();
        } else {
          if (ran) hedge_state.wasted.fetch_add(1, std::memory_order_relaxed);
          {
            std::lock_guard<std::mutex> lock(race->mutex);
            race->hedge_done = true;
          }
          race->done.notify_all();
        }
        if (hedge_state.outstanding.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          std::lock_guard<std::mutex> lock(hedge_state.mutex);
          hedge_state.drained.notify_all();
        }
      });
    });

    Result<DagEstimate> primary = once(i, &race->primary_cancel);
    if (!race->settled.exchange(true, std::memory_order_acq_rel)) {
      // Primary won; a hedge still queued skips itself, one mid-run unwinds
      // at its next state boundary. Either way its result is discarded.
      race->hedge_cancel.Cancel();
      return primary;
    }
    // The hedge settled first: its result is the candidate's result (the
    // primary unwound with kCancelled from the race token).
    std::unique_lock<std::mutex> lock(race->mutex);
    race->done.wait(lock, [&] { return race->hedge_done; });
    hedge_state.won.fetch_add(1, std::memory_order_relaxed);
    if (settled_us != nullptr) *settled_us = race->settle_us;
    return std::move(*race->hedge_result);
  };

  const auto evaluate = [&](size_t i) -> Result<DagEstimate> {
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
    const double eval_start_us = obs::MonotonicUs();
    double settled_us = -1.0;
    Result<DagEstimate> estimate = attempt(i, &settled_us);
    int attempts = 0;
    while (!estimate.ok() && IsRetryable(estimate.status().code()) &&
           attempts < options.max_retries && !options.budget.exhausted()) {
      ++attempts;
      retries.fetch_add(1, std::memory_order_relaxed);
      // Retries run unhedged: a retryable failure was not a straggler, and
      // re-arming the race would double the duplicated work bound.
      estimate = once(i, nullptr);
    }
    // A hedge-won race's latency ends when the winning copy settled, not
    // when the losing primary unwound: the answer existed from the settle,
    // and recording the straggler's unwind instead would also feed the very
    // tail hedging removed back into the delay-quantile control window.
    const double end_us = (attempts == 0 && estimate.ok() && settled_us > 0)
                              ? settled_us
                              : obs::MonotonicUs();
    const double elapsed_us = end_us - eval_start_us;
    result.candidate_latency_ms[i] = elapsed_us * 1e-3;
    if (estimate.ok()) HedgeLatencyWindow().RecordAlways(elapsed_us);
    return estimate;
  };

  result.estimates.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    result.estimates.emplace_back(Status::Internal("not evaluated"));
  }
  result.candidate_latency_ms.assign(requests.size(), -1.0);
  // Which slots actually ran: under a firing budget, skipped slots keep the
  // placeholder and are stamped with the budget status below.
  std::vector<char> evaluated(requests.size(), 0);

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
      if (budget_status.ok()) {
        budget_status = options.budget.Check("sweep");
      }
      if (!budget_status.ok()) break;
      result.estimates[i] = evaluate(i);
      evaluated[i] = 1;
    }
  } else {
    std::optional<ThreadPool> dedicated;
    ThreadPool* pool = options.pool;
    if (pool == nullptr && effective_threads > 1) {
      dedicated.emplace(effective_threads);
      pool = &*dedicated;
    }
    if (options.hedge.enabled && pool != nullptr) hedge_state.pool = pool;
    size_t start = 0;
    if (shared_memo != nullptr || store != nullptr) {
      // Prime the shared caches on the calling thread: one candidate fills
      // the memo/checkpoint entries the rest of the batch will hit, instead
      // of every worker racing to compute the same misses in parallel.
      budget_status = options.budget.Check("sweep");
      if (budget_status.ok()) {
        result.estimates[order[0]] = evaluate(order[0]);
        evaluated[order[0]] = 1;
        start = 1;
      }
    }
    if (budget_status.ok() && start < order.size()) {
      const size_t remaining = order.size() - start;
      // Warm cached candidates are microseconds of work; batch several per
      // pool task so dispatch overhead cannot swamp them (this is what keeps
      // parallel-cached throughput above serial-cached).
      size_t chunk = 1;
      if (shared_memo != nullptr || store != nullptr) {
        const size_t workers = static_cast<size_t>(
            pool != nullptr ? pool->size() : DefaultPool().size());
        chunk = std::max<size_t>(1, remaining / (std::max<size_t>(workers, 1) * 4));
      }
      const std::int64_t num_chunks =
          static_cast<std::int64_t>((remaining + chunk - 1) / chunk);
      const auto run_chunk = [&](std::int64_t c) {
        const size_t lo = start + static_cast<size_t>(c) * chunk;
        const size_t hi = std::min(order.size(), lo + chunk);
        for (size_t k = lo; k < hi; ++k) {
          result.estimates[order[k]] = evaluate(order[k]);
          evaluated[order[k]] = 1;
        }
      };
      if (hedge_state.pool == nullptr) {
        budget_status = ParallelFor(0, num_chunks, run_chunk, options.budget, pool);
      } else {
        // Hedged batches bypass ParallelFor: it parks one long-lived drainer
        // task per worker, so a hedge submitted mid-batch would queue behind
        // an entire chunk stream and fire only near batch end. Here each
        // pool task runs ONE chunk and requeues itself at the back of the
        // FIFO, so a hedge waits at most the chunks already in flight. The
        // calling thread claims chunks directly, which keeps a pool of one
        // worker deadlock-free exactly like ParallelFor's participation.
        std::atomic<std::int64_t> next_chunk{0};
        std::atomic<int> pumps{0};
        std::mutex done_mutex;
        std::condition_variable done_cv;
        std::mutex status_mutex;
        Status shared_status = Status::Ok();
        const auto process_one = [&]() -> bool {
          const std::int64_t c =
              next_chunk.fetch_add(1, std::memory_order_relaxed);
          if (c >= num_chunks) return false;
          Status st;
          {
            std::lock_guard<std::mutex> lock(status_mutex);
            st = shared_status;
          }
          if (st.ok()) {
            st = options.budget.Check("sweep");
            if (!st.ok()) {
              std::lock_guard<std::mutex> lock(status_mutex);
              if (shared_status.ok()) shared_status = st;
            }
          }
          // Once the budget fired, remaining chunks are claimed and dropped
          // (their slots keep the placeholder and are stamped below) — the
          // same partial-result semantics as the ParallelFor path.
          if (st.ok()) run_chunk(c);
          return true;
        };
        std::function<void()> pump = [&] {
          if (process_one()) {
            pool->Submit(pump);
          } else if (pumps.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(done_mutex);
            done_cv.notify_all();
          }
        };
        const int workers = std::max(1, pool->size());
        pumps.store(workers, std::memory_order_relaxed);
        for (int w = 0; w < workers; ++w) pool->Submit(pump);
        while (process_one()) {
        }
        {
          // pumps == 0 implies every claimed chunk finished: a pump only
          // exits on a claim past the end, which is ordered after its last
          // chunk completed; the caller's own chunks finished in the loop
          // above.
          std::unique_lock<std::mutex> lock(done_mutex);
          done_cv.wait(lock, [&] {
            return pumps.load(std::memory_order_acquire) == 0;
          });
        }
        {
          std::lock_guard<std::mutex> lock(status_mutex);
          budget_status = shared_status;
        }
      }
    }
    if (hedge_state.pool != nullptr) {
      // Quiesce hedging before anything below reads or frees batch state:
      // Shutdown() joins the timer (no further launches), then the drain
      // wait covers hedges already on the pool. After this, no leaked hedge
      // can outlive the batch — the chaos suite asserts exactly that.
      hedge_timer.Shutdown();
      std::unique_lock<std::mutex> lock(hedge_state.mutex);
      hedge_state.drained.wait(lock, [&] {
        return hedge_state.outstanding.load(std::memory_order_acquire) == 0;
      });
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
  result.stats.retries = retries.load(std::memory_order_relaxed);
  result.stats.hedges_launched =
      hedge_state.launched.load(std::memory_order_relaxed);
  result.stats.hedges_won = hedge_state.won.load(std::memory_order_relaxed);
  result.stats.hedges_wasted =
      hedge_state.wasted.load(std::memory_order_relaxed);

  if (shared_memo != nullptr) {
    const TaskTimeMemo::Stats after = shared_memo->stats();
    result.stats.cache_hits = after.hits - before.hits;
    result.stats.cache_misses = after.misses - before.misses;
  } else {
    for (const auto& memo : private_memos) {
      const TaskTimeMemo::Stats s = memo->stats();
      result.stats.cache_hits += s.hits;
      result.stats.cache_misses += s.misses;
    }
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
  metrics.retries.Add(static_cast<std::uint64_t>(result.stats.retries));
  metrics.hedges_launched.Add(result.stats.hedges_launched);
  metrics.hedges_won.Add(result.stats.hedges_won);
  metrics.hedges_wasted.Add(result.stats.hedges_wasted);
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
