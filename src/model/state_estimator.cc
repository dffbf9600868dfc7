#include "model/state_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "cluster/validate.h"
#include "common/arena.h"
#include "common/check.h"
#include "common/stats.h"
#include "dag/validate.h"
#include "model/incremental.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dagperf {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;

/// Estimator metric handles (obs/metrics.h); recording is gated on the
/// process-wide metrics flag, so holding them costs nothing when disabled.
struct EstimatorMetrics {
  obs::Counter& estimates;
  obs::Counter& states;
  obs::Histogram& task_time_query_us;
  obs::Gauge& states_per_sec;
  obs::Counter& deadline_exceeded;
  obs::Counter& cancelled;

  EstimatorMetrics()
      : estimates(obs::MetricsRegistry::Default().GetCounter(
            "estimator.estimates")),
        states(obs::MetricsRegistry::Default().GetCounter("estimator.states")),
        task_time_query_us(obs::MetricsRegistry::Default().GetHistogram(
            "estimator.task_time_query_us")),
        states_per_sec(obs::MetricsRegistry::Default().GetGauge(
            "estimator.states_per_sec")),
        deadline_exceeded(obs::MetricsRegistry::Default().GetCounter(
            "estimator.deadline_exceeded")),
        cancelled(obs::MetricsRegistry::Default().GetCounter(
            "estimator.cancelled")) {}
};

EstimatorMetrics& Metrics() {
  static EstimatorMetrics* metrics = new EstimatorMetrics();
  return *metrics;
}

/// Expected duration of a wave. Only the stage's FINAL wave pays the
/// straggler tail (expected max of the draws): mid-stage stragglers overlap
/// the next wave, so slots stay busy and the stage drains at the mean task
/// rate — the classic makespan approximation
///   S ~= (N - Delta)/Delta * mu + E[max of Delta].
double WaveTime(const NormalParams& dist, double wave_tasks, bool skew_aware,
                bool is_last_wave) {
  if (!skew_aware || !is_last_wave || dist.stddev <= 0 || wave_tasks <= 1.0) {
    return dist.mean;
  }
  const int n = static_cast<int>(std::lround(std::ceil(wave_tasks)));
  return ExpectedMaxOfNormal(dist.mean, dist.stddev, n);
}

/// Advances a stage (not_started pool + wave list) through its wave schedule
/// at parallelism `delta` for at most `dt_limit` seconds (infinity = run to
/// completion). Returns the simulated time consumed. Mutates its inputs.
double StepStage(double& not_started, std::vector<WaveState>& waves, int delta,
                 const NormalParams& dist, const EstimatorOptions& options,
                 double dt_limit) {
  if (delta <= 0) return dt_limit;
  const bool skew = options.skew_aware;

  if (options.wave_model == EstimatorOptions::WaveModel::kFluid) {
    // Continuous pool at the mean rate, plus the terminal tail once.
    const double rate = delta / std::max(dist.mean, 1e-12);
    double tail = 0.0;
    if (skew) {
      tail = WaveTime(dist, std::min<double>(delta, not_started), skew, true) -
             dist.mean;
    }
    const double to_finish = not_started / rate + tail;
    if (to_finish <= dt_limit + kEps) {
      not_started = 0.0;
      return to_finish;
    }
    not_started = std::max(0.0, not_started - dt_limit * rate);
    return dt_limit;
  }

  // Discrete waves. A parallelism drop (competitor arrival + preemption)
  // re-queues the newest waves' excess tasks.
  double active = 0.0;
  for (const auto& w : waves) active += w.size;
  while (active > delta + kEps && !waves.empty()) {
    WaveState& newest = waves.back();
    const double excess = std::min(newest.size, active - delta);
    newest.size -= excess;
    not_started += excess;
    active -= excess;
    if (newest.size <= kEps) waves.pop_back();
  }

  double elapsed = 0.0;
  int guard = 0;
  while (elapsed < dt_limit - kEps && (not_started > kEps || !waves.empty())) {
    DAGPERF_CHECK_MSG(++guard < 1000000, "wave stepping did not terminate");
    // Fill idle slots with new waves.
    active = 0.0;
    for (const auto& w : waves) active += w.size;
    if (not_started > kEps && active < delta - kEps) {
      WaveState wave;
      wave.size = std::min(not_started, delta - active);
      not_started -= wave.size;
      wave.is_last = not_started <= kEps;
      waves.push_back(wave);
      continue;
    }
    // Next wave completion.
    double next = kInf;
    for (const auto& w : waves) {
      const double t = WaveTime(dist, w.size, skew, w.is_last);
      next = std::min(next, t * (1.0 - w.frac));
    }
    if (next == kInf) break;  // No waves and nothing startable.
    const double step = std::min(next, dt_limit - elapsed);
    for (auto& w : waves) {
      const double t = WaveTime(dist, w.size, skew, w.is_last);
      w.frac += step / std::max(t, 1e-12);
    }
    elapsed += step;
    waves.erase(
        std::remove_if(waves.begin(), waves.end(),
                       [](const WaveState& w) { return w.frac >= 1.0 - kEps; }),
        waves.end());
  }
  return elapsed;
}

/// Per-estimate working state in SoA layout: one slot per (job, stage kind)
/// pair — slot 2*id is the map stage, 2*id+1 the reduce — with the scalar
/// arrays carved from a bump arena and every scratch vector reused across
/// states AND estimates. After a priming estimate at a given workflow size,
/// a warm estimate allocates nothing (see tests/alloc_regression_test.cc).
struct Workspace {
  Arena arena;
  int n = 0;      // Jobs.
  int slots = 0;  // 2 * n.

  // Per-slot arrays (arena-backed; profile == nullptr for absent reduces).
  const StageProfile** profile = nullptr;
  unsigned char* ready = nullptr;
  unsigned char* complete = nullptr;
  double* not_started = nullptr;
  double* start_time = nullptr;
  double* end_time = nullptr;
  // Per-job arrays.
  int* unfinished_parents = nullptr;
  unsigned char* done = nullptr;
  // Per-slot wave lists. std::vector (not arena) so capacity survives Reset;
  // grown monotonically, never shrunk.
  std::vector<std::vector<WaveState>> waves;

  // Per-state scratch, capacity reused.
  std::vector<int> running;  // Slot ids of this state's running stages.
  std::vector<StageDemand> demands;
  std::vector<int> delta;
  std::vector<size_t> context_slot;
  std::vector<NormalParams> dists;
  std::vector<Duration> task_times;  // Indexed like context.running.
  std::vector<NormalParams> task_dists;  // Ditto, skew-aware.
  std::vector<std::optional<TaskAttribution>> attributions;
  EstimationContext context;
  std::vector<WaveState> rest_waves;  // RestTime's non-mutating copy.

  // Checkpoint scratch. fp_global points at the global fingerprint in
  // effect for the current estimate — either the caller's precomputed one
  // (EstimatorOptions::checkpoint_global_fp) or the ws-owned buffer below.
  std::string global_fp;
  const std::string* fp_global = nullptr;
  std::string key;
  std::vector<JobId> done_ids;

  void Prepare(const DagWorkflow& flow) {
    n = flow.num_jobs();
    slots = 2 * n;
    arena.Reset();
    profile = arena.AllocateArray<const StageProfile*>(slots);
    ready = arena.AllocateArray<unsigned char>(slots);
    complete = arena.AllocateArray<unsigned char>(slots);
    not_started = arena.AllocateArray<double>(slots);
    start_time = arena.AllocateArray<double>(slots);
    end_time = arena.AllocateArray<double>(slots);
    unfinished_parents = arena.AllocateArray<int>(n);
    done = arena.AllocateArray<unsigned char>(n);
    if (static_cast<int>(waves.size()) < slots) waves.resize(slots);
    for (int s = 0; s < slots; ++s) waves[s].clear();
    for (JobId id = 0; id < n; ++id) {
      const JobProfile& job = flow.job(id);
      unfinished_parents[id] = static_cast<int>(flow.parents(id).size());
      const int ms = 2 * id;
      profile[ms] = &job.map;
      not_started[ms] = job.map.num_tasks;
      start_time[ms] = -1.0;
      if (job.has_reduce()) {
        profile[ms + 1] = &*job.reduce;
        not_started[ms + 1] = job.reduce->num_tasks;
        start_time[ms + 1] = -1.0;
      }
      // A job with no parents is a source: its map starts ready.
      if (flow.parents(id).empty()) ready[ms] = 1;
    }
  }

  double TasksOutstanding(int slot) const {
    double total = not_started[slot];
    for (const WaveState& w : waves[slot]) total += w.size;
    return total;
  }

  /// Remaining time of a slot at parallelism `delta` (does not mutate the
  /// slot: steps a scratch copy of its wave list).
  double RestTime(int slot, int delta, const NormalParams& dist,
                  const EstimatorOptions& options) {
    if (TasksOutstanding(slot) <= kEps) return 0.0;
    if (delta <= 0) return kInf;
    double ns = not_started[slot];
    rest_waves = waves[slot];
    return StepStage(ns, rest_waves, delta, dist, options, kInf);
  }
};

/// One workspace per thread, reused across estimates — the zero-allocation
/// steady state. The in_use flag guards against a TaskTimeSource that
/// re-enters Estimate() on the same thread (none in the library do, but a
/// user source could): the re-entrant call falls back to a heap workspace.
struct WorkspaceLease {
  static thread_local Workspace workspace;
  static thread_local bool in_use;

  Workspace* ws;
  std::unique_ptr<Workspace> fallback;

  WorkspaceLease() {
    if (!in_use) {
      in_use = true;
      ws = &workspace;
    } else {
      fallback = std::make_unique<Workspace>();
      ws = fallback.get();
    }
  }
  ~WorkspaceLease() {
    if (fallback == nullptr) in_use = false;
  }
};

thread_local Workspace WorkspaceLease::workspace;
thread_local bool WorkspaceLease::in_use = false;

/// Restores the estimator's dynamic state and partial output from `cp`.
/// The done/activated bookkeeping is recomputed against the resuming flow's
/// own structure, which is what makes resume valid across flows that share
/// the prefix but differ elsewhere (even in job count).
void RestoreCheckpoint(const EstimatorCheckpoint& cp, const DagWorkflow& flow,
                       Workspace& ws, DagEstimate& estimate, double* now,
                       int* state_index, int* unfinished) {
  *now = cp.now;
  *state_index = cp.next_state_index;
  for (size_t a = 0; a < cp.jobs.size(); ++a) {
    const JobId id = cp.jobs[a];
    for (int k = 0; k < 2; ++k) {
      const StageDynState& sd = cp.stage_state[2 * a + k];
      const int slot = 2 * id + k;
      ws.ready[slot] = sd.ready;
      ws.complete[slot] = sd.complete;
      ws.not_started[slot] = sd.not_started;
      ws.start_time[slot] = sd.start_time;
      ws.end_time[slot] = sd.end_time;
      ws.waves[slot].assign(cp.waves.begin() + sd.wave_begin,
                            cp.waves.begin() + sd.wave_begin + sd.wave_count);
    }
  }
  for (JobId id : cp.done) ws.done[id] = 1;
  *unfinished = ws.n - static_cast<int>(cp.done.size());
  // Parent counts against the restored done set — exactly the value the
  // decrements of a full replay would have left.
  for (JobId id = 0; id < ws.n; ++id) {
    int u = 0;
    for (JobId parent : flow.parents(id)) u += ws.done[parent] ? 0 : 1;
    ws.unfinished_parents[id] = u;
  }
  // The partial output: memcpy-speed assigns of trivially-copyable records.
  estimate.states = cp.states;
  estimate.running_pool = cp.running_pool;
  estimate.stages = cp.stages;
}

/// Captures the current state into the store, unless the store would not
/// keep it: a checkpoint for this boundary already exists (the common case
/// once one candidate has paved the prefix), or the store is full. Admits()
/// answers from the exact size, so neither case pays the capture copies.
void MaybeStoreCheckpoint(PrefixCheckpointStore& store, const DagWorkflow& flow,
                          Workspace& ws, const DagEstimate& estimate,
                          double now, int state_index) {
  ws.done_ids.clear();
  for (JobId id = 0; id < ws.n; ++id) {
    if (ws.done[id]) ws.done_ids.push_back(id);
  }
  if (!PrefixCheckpointStore::BuildKey(*ws.fp_global, flow, ws.done_ids.data(),
                                       ws.done_ids.size(), &ws.key)) {
    return;
  }
  std::size_t jobs = 0;
  std::size_t waves = 0;
  for (JobId id = 0; id < ws.n; ++id) {
    if (ws.unfinished_parents[id] != 0) continue;
    ++jobs;
    waves += ws.waves[2 * id].size() + ws.waves[2 * id + 1].size();
  }
  if (!store.Admits(ws.key, EstimatorCheckpoint::ByteSizeFor(
                                ws.key.size(), ws.done_ids.size(), jobs,
                                2 * jobs, waves, estimate.states.size(),
                                estimate.running_pool.size(),
                                estimate.stages.size()))) {
    return;
  }

  auto cp = std::make_shared<EstimatorCheckpoint>();
  cp->key = ws.key;
  cp->job_fingerprints = flow.shared_job_fingerprints();
  cp->done = ws.done_ids;
  cp->now = now;
  cp->next_state_index = state_index;
  cp->jobs.reserve(jobs);
  cp->stage_state.reserve(2 * jobs);
  cp->waves.reserve(waves);
  for (JobId id = 0; id < ws.n; ++id) {
    // unfinished_parents == 0 <=> every parent done <=> activated.
    if (ws.unfinished_parents[id] != 0) continue;
    cp->jobs.push_back(id);
    for (int k = 0; k < 2; ++k) {
      const int slot = 2 * id + k;
      StageDynState sd;
      sd.ready = ws.ready[slot];
      sd.complete = ws.complete[slot];
      sd.not_started = ws.not_started[slot];
      sd.start_time = ws.start_time[slot];
      sd.end_time = ws.end_time[slot];
      sd.wave_begin = static_cast<int>(cp->waves.size());
      sd.wave_count = static_cast<int>(ws.waves[slot].size());
      cp->waves.insert(cp->waves.end(), ws.waves[slot].begin(),
                       ws.waves[slot].end());
      cp->stage_state.push_back(sd);
    }
  }
  cp->states = estimate.states;
  cp->running_pool = estimate.running_pool;
  cp->stages = estimate.stages;
  store.Insert(std::move(cp));
}

}  // namespace

Result<StageSpanEstimate> DagEstimate::FindStage(JobId job, StageKind kind) const {
  for (const auto& s : stages) {
    if (s.job == job && s.kind == kind) return s;
  }
  return Status::NotFound("stage not found in estimate");
}

StateBasedEstimator::StateBasedEstimator(const ClusterSpec& cluster,
                                         const SchedulerConfig& scheduler,
                                         EstimatorOptions options)
    : cluster_(cluster), scheduler_(scheduler), options_(std::move(options)) {
  init_ = ValidateClusterSpec(cluster_).ToStatus("cluster");
  if (init_.ok()) allocator_.emplace(cluster_, scheduler_);
}

Status StateBasedEstimator::EstimateInto(const DagWorkflow& flow,
                                         const TaskTimeSource& source,
                                         DagEstimate* out) const {
  if (!init_.ok()) return init_;

  WorkspaceLease lease;
  Workspace& ws = *lease.ws;

  // Prefix-resume: fingerprint the flow and look for the deepest checkpoint
  // whose structural prefix matches. This runs *before* the validation
  // firewall on purpose: fingerprinting only serializes the flow's own specs
  // (safe on any constructed DagWorkflow), and a complete-result hit proves a
  // byte-identical (flow, cluster, scheduler, options) tuple already passed
  // validation when its entry was stored — so the hot re-estimation path can
  // return the stored result without re-validating or preparing a workspace.
  PrefixCheckpointStore* const store = options_.checkpoints;
  std::shared_ptr<const EstimatorCheckpoint> resume;
  if (store != nullptr) {
    // Job fingerprints are precomputed on the immutable flow; the global
    // fingerprint (scope, cluster, scheduler, options) is either supplied by
    // the caller (the sweep computes it once per candidate for ordering) or
    // serialised into workspace scratch here.
    if (options_.checkpoint_global_fp != nullptr) {
      ws.fp_global = options_.checkpoint_global_fp;
    } else {
      ws.global_fp.clear();
      PrefixCheckpointStore::AppendGlobalFingerprint(
          options_.checkpoint_scope, cluster_, scheduler_, options_,
          &ws.global_fp);
      ws.fp_global = &ws.global_fp;
    }
    resume = store->Lookup(flow, *ws.fp_global);
    if (resume != nullptr &&
        static_cast<int>(resume->done.size()) == flow.num_jobs()) {
      // Complete-result checkpoint: every job was done at the boundary, so
      // the stored partial output *is* the full estimate and `now` is the
      // makespan. Copying the SoA records is the whole cost.
      store->RecordResume(static_cast<int>(resume->states.size()));
      out->resumed_states = static_cast<int>(resume->states.size());
      out->states = resume->states;
      out->running_pool = resume->running_pool;
      out->stages = resume->stages;
      out->makespan = Duration(resume->now);
      Metrics().estimates.Add(1);
      return Status::Ok();
    }
  }

  // The validation firewall: reject malformed flows (non-finite demands,
  // out-of-range counts) with a full diagnostic before touching the state
  // machine, so nothing downstream needs to defend against them.
  if (Status valid = ValidateWorkflow(flow).ToStatus(flow.name()); !valid.ok()) {
    return valid;
  }
  const bool metrics_on = obs::MetricsEnabled();
  const double wall_start = metrics_on ? obs::MonotonicUs() : 0.0;
  obs::TraceRecorder& tracer = obs::TraceRecorder::Default();
  std::optional<obs::ScopedSpan> estimate_span;
  if (tracer.enabled()) {
    estimate_span.emplace(tracer, "estimate " + flow.name(), "estimator");
  }

  ws.Prepare(flow);
  const int n = ws.n;
  int unfinished = n;

  DagEstimate& estimate = *out;
  estimate.makespan = Duration(0);
  estimate.resumed_states = 0;
  estimate.states.clear();
  estimate.running_pool.clear();
  estimate.stages.clear();

  double now = 0.0;
  int state_index = 1;

  // Partial prefix-resume: continue from the deepest matching checkpoint
  // found above instead of replaying the shared prefix.
  if (resume != nullptr) {
    RestoreCheckpoint(*resume, flow, ws, estimate, &now, &state_index,
                      &unfinished);
    store->RecordResume(static_cast<int>(resume->states.size()));
    estimate.resumed_states = static_cast<int>(resume->states.size());
  }

  while (unfinished > 0) {
    if (state_index > options_.max_states) {
      return Status::Internal(flow.name() + ": state limit exceeded");
    }
    // Cooperative budget poll at the state boundary — the estimator's
    // natural step granularity. Inert token + never-deadline reduce this to
    // a pointer test and a constant compare.
    if (options_.budget.exhausted()) {
      const Status budget = options_.budget.Check("estimate " + flow.name());
      if (budget.code() == ErrorCode::kDeadlineExceeded) {
        Metrics().deadline_exceeded.Add(1);
      } else {
        Metrics().cancelled.Add(1);
      }
      return budget;
    }
    std::optional<obs::ScopedSpan> state_span;
    if (tracer.enabled()) {
      state_span.emplace(tracer, "state " + std::to_string(state_index),
                         "estimator");
    }

    // (1) The set of running stages in this state (slot order == the
    // original job-id-then-kind order).
    ws.running.clear();
    for (int slot = 0; slot < ws.slots; ++slot) {
      if (ws.profile[slot] == nullptr) continue;
      if (ws.ready[slot] && !ws.complete[slot] &&
          ws.TasksOutstanding(slot) > kEps) {
        ws.running.push_back(slot);
      }
    }
    const size_t num_running = ws.running.size();
    if (num_running == 0) {
      return Status::Internal(flow.name() + ": no runnable stage but jobs remain");
    }

    // (2) Degree of parallelism per running stage (DRF).
    ws.demands.clear();
    for (const int slot : ws.running) {
      StageDemand d;
      d.slot = ws.profile[slot]->slot;
      d.remaining_tasks =
          static_cast<int>(std::ceil(ws.TasksOutstanding(slot) - kEps));
      ws.demands.push_back(d);
    }
    allocator_->Allocate(ws.demands, &ws.delta);

    // (3) Task times under this state's contention (BOE or profile).
    ws.context.running.clear();
    ws.context_slot.assign(num_running, SIZE_MAX);
    for (size_t i = 0; i < num_running; ++i) {
      if (ws.delta[i] <= 0) continue;
      ParallelStage ps;
      ps.stage = ws.profile[ws.running[i]];
      ps.tasks_per_node = static_cast<double>(ws.delta[i]) / cluster_.num_nodes;
      ws.context_slot[i] = ws.context.running.size();
      ws.context.running.push_back(ps);
    }
    ws.dists.assign(num_running, NormalParams{});
    if (options_.attribute_bottlenecks) {
      ws.attributions.assign(num_running, std::nullopt);
    } else {
      ws.attributions.clear();
    }
    // The running set and Δ are fixed for the whole state, so one batched
    // query prices every running stage (for BOE, one contention solve):
    // point estimates skew-unaware, distributions skew-aware.
    if (!ws.context.running.empty()) {
      const double query_start = metrics_on ? obs::MonotonicUs() : 0.0;
      if (options_.skew_aware) {
        source.TaskTimeDists(ws.context, &ws.task_dists);
      } else {
        source.TaskTimes(ws.context, &ws.task_times);
      }
      if (metrics_on) {
        Metrics().task_time_query_us.Record(obs::MonotonicUs() - query_start);
      }
    }
    for (size_t i = 0; i < num_running; ++i) {
      if (ws.context_slot[i] == SIZE_MAX) continue;
      ws.context.query = ws.context_slot[i];
      if (options_.skew_aware) {
        ws.dists[i] = ws.task_dists[ws.context_slot[i]];
      } else {
        ws.dists[i] = {ws.task_times[ws.context_slot[i]].seconds(), 0.0};
      }
      if (options_.attribute_bottlenecks) {
        ws.attributions[i] = source.Attribution(ws.context);
      }
      if (options_.node_speed_cv > 0) {
        // A task's duration scales with 1/speed of its host. For log-normal
        // speed with mean 1 and coefficient of variation cv:
        //   E[1/speed] = 1 + cv^2 and CV[1/speed] = cv,
        // so the mean inflates and node variance joins the tail dispersion.
        const double cv = options_.node_speed_cv;
        const double slowdown = 1.0 + cv * cv;
        const double node_sd = ws.dists[i].mean * slowdown * cv;
        ws.dists[i].mean *= slowdown;
        ws.dists[i].stddev = std::sqrt(
            ws.dists[i].stddev * ws.dists[i].stddev * slowdown * slowdown +
            node_sd * node_sd);
      }
      // A NaN task time would silently corrupt the arg-min below (NaN fails
      // every comparison); a negative one would move time backwards. Either
      // means the task-time source misbehaved on inputs the firewall let
      // through — fail loudly instead of estimating garbage.
      if (std::isnan(ws.dists[i].mean) || ws.dists[i].mean < 0) {
        return Status::InvalidArgument(
            flow.name() + ": task-time source returned bad task time " +
            std::to_string(ws.dists[i].mean) + " for stage " +
            ws.profile[ws.running[i]]->name);
      }
      // Stage start is when it first receives containers.
      if (ws.start_time[ws.running[i]] < 0) ws.start_time[ws.running[i]] = now;
    }

    // (4) Earliest stage completion. The arg-min stage ends the state and
    // is therefore the state's critical-path segment.
    double dt = kInf;
    int critical = -1;
    for (size_t i = 0; i < num_running; ++i) {
      const double rest =
          ws.RestTime(ws.running[i], ws.delta[i], ws.dists[i], options_);
      if (rest < dt) {
        dt = rest;
        critical = static_cast<int>(i);
      }
    }
    if (dt == kInf) {
      return Status::Internal(flow.name() + ": no stage can make progress");
    }
    dt = std::max(dt, 0.0);

    // Record the state into the flat SoA output.
    StateEstimate state;
    state.index = state_index++;
    state.start = now;
    state.duration = dt;
    state.critical = critical;
    state.running_begin = static_cast<int>(estimate.running_pool.size());
    state.running_count = static_cast<int>(num_running);
    for (size_t i = 0; i < num_running; ++i) {
      RunningStageEstimate rse;
      rse.job = ws.running[i] >> 1;
      rse.kind = (ws.running[i] & 1) ? StageKind::kReduce : StageKind::kMap;
      rse.parallelism = ws.delta[i];
      rse.task_time_s = ws.dists[i].mean;
      if (options_.attribute_bottlenecks && ws.attributions[i].has_value()) {
        rse.has_attribution = true;
        rse.bottleneck = ws.attributions[i]->bottleneck;
        for (Resource r : kAllResources) {
          rse.utilization[r] = ws.attributions[i]->UtilizationShare(r);
        }
      }
      estimate.running_pool.push_back(rse);
    }
    estimate.states.push_back(state);
    Metrics().states.Add(1);

    // (5) Advance everyone and transition.
    now += dt;
    for (size_t i = 0; i < num_running; ++i) {
      const int slot = ws.running[i];
      StepStage(ws.not_started[slot], ws.waves[slot], ws.delta[i], ws.dists[i],
                options_, dt);
    }
    bool job_completed = false;
    for (size_t i = 0; i < num_running; ++i) {
      const int slot = ws.running[i];
      if (ws.complete[slot] || ws.TasksOutstanding(slot) > kEps) continue;
      ws.complete[slot] = 1;
      ws.end_time[slot] = now;
      const JobId job = slot >> 1;
      const StageKind kind = (slot & 1) ? StageKind::kReduce : StageKind::kMap;
      estimate.stages.push_back({job, kind, ws.start_time[slot], ws.end_time[slot]});
      if (kind == StageKind::kMap && ws.profile[2 * job + 1] != nullptr) {
        ws.ready[2 * job + 1] = 1;
      } else {
        ws.done[job] = 1;
        job_completed = true;
        --unfinished;
        for (JobId child : flow.children(job)) {
          if (--ws.unfinished_parents[child] == 0) {
            ws.ready[2 * child] = 1;
          }
        }
      }
    }
    // A job-completion boundary: checkpoint for later candidates sharing
    // this prefix (skipped cheaply when the boundary is already stored).
    if (store != nullptr && job_completed) {
      MaybeStoreCheckpoint(*store, flow, ws, estimate, now, state_index);
    }
  }

  estimate.makespan = Duration(now);
  Metrics().estimates.Add(1);
  if (metrics_on) {
    const double elapsed_s = (obs::MonotonicUs() - wall_start) * 1e-6;
    if (elapsed_s > 0) {
      Metrics().states_per_sec.Set(
          static_cast<double>(estimate.states.size()) / elapsed_s);
    }
  }
  return Status::Ok();
}

Result<DagEstimate> StateBasedEstimator::Estimate(const DagWorkflow& flow,
                                                  const TaskTimeSource& source) const {
  DagEstimate estimate;
  if (Status status = EstimateInto(flow, source, &estimate); !status.ok()) {
    return status;
  }
  return estimate;
}

}  // namespace dagperf
