#ifndef DAGPERF_SERVICE_SERVICE_H_
#define DAGPERF_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster_spec.h"
#include "common/cancel.h"
#include "common/parallel.h"
#include "common/status.h"
#include "dag/dag_workflow.h"
#include "model/explain.h"
#include "model/state_estimator.h"
#include "model/sweep.h"
#include "model/task_time_source.h"
#include "obs/request_record.h"
#include "obs/slo.h"
#include "resilience/circuit_breaker.h"
#include "resilience/overload.h"
#include "resilience/watchdog.h"
#include "scheduler/drf.h"
#include "service/request.h"
#include "service/tenancy.h"

namespace dagperf {

/// The estimation service — the paper's headline applications (job
/// self-tuning, capacity planning, §I) are recurring streams of estimate
/// queries, not one-shot CLI runs. EstimationService turns the estimator
/// into a long-lived, warm, concurrent entry point: it owns the worker
/// pool, keeps one PrefixCheckpointStore alive across requests (scoped per
/// registered cluster so hardware changes never alias), holds a registry of
/// loaded workflows and clusters, and admits requests through a bounded
/// queue that sheds load with Status::ResourceExhausted instead of building
/// unbounded backlog. The NDJSON wire protocol on top lives in
/// service/protocol.h; transports (stdio, TCP) in service/server.h.

/// Construction-time service knobs.
struct ServiceOptions {
  /// Worker threads; 0 sizes to the hardware concurrency.
  int threads = 0;

  /// Admission bound: requests submitted while this many are already queued
  /// or executing are shed with Status::ResourceExhausted (clients retry
  /// with backoff — the code is retryable). Must be >= 1.
  int max_queue_depth = 256;

  /// Deadline applied to requests that carry none (0 = unbounded). A serving
  /// deployment should set this: one pathological query must not occupy a
  /// worker forever.
  double default_deadline_seconds = 0.0;

  /// Base estimator knobs (wave model, skew awareness, ...) shared by every
  /// request; per-request fields (budget, attribution) are overlaid.
  EstimatorOptions estimator;

  SchedulerConfig scheduler;

  /// Watchdog backstop: a request still running after `watchdog_multiple x
  /// its deadline` has its token fired and fails with DEADLINE_EXCEEDED —
  /// the hard bound for work stuck somewhere that is not polling its budget.
  /// 0 disables; requests with no deadline are never watched. Must be >= 1
  /// when set (the cooperative check should always win first).
  double watchdog_multiple = 0.0;

  /// Consecutive failures (INTERNAL / DEADLINE_EXCEEDED / UNAVAILABLE) that
  /// open a per-cluster circuit breaker; while open, requests against that
  /// cluster fail fast with UNAVAILABLE{retryable}. 0 disables (library
  /// default — `dagperf serve` turns it on). Breaker state is mirrored to
  /// the obs gauge "resilience.breaker_state[.<cluster>]".
  int breaker_failure_threshold = 0;

  /// Cooldown before an open breaker probes again.
  double breaker_open_seconds = 1.0;

  /// Serving objectives the SLO tracker burns against (inert by default —
  /// windows still fill, burn rates stay 0). `dagperf serve` maps
  /// --slo-p99-ms / --slo-availability here.
  obs::SloObjectives slo;

  /// Flight-recorder geometry (ring capacity, exemplar slots).
  obs::FlightRecorderOptions flight;

  /// Overload protection (resilience/overload.h): when > 0, a CoDel-style
  /// controller watches queue sojourn against this target (ms) and walks
  /// the brownout ladder — shedding expensive cold work with retryable
  /// RESOURCE_EXHAUSTED + retry_after_ms, then degrading answers. 0
  /// disables the controller entirely (library default — `dagperf serve`
  /// maps --overload-target-ms here).
  double overload_target_sojourn_ms = 0.0;

  /// Remaining controller knobs (interval, escalate/recover counts, retry
  /// floor); its target_sojourn_ms is overridden by the field above.
  resilience::OverloadOptions overload;

  /// Cold requests whose flow has at least this many jobs classify as
  /// "expensive" for cost-aware shedding (a fast pre-estimate: the
  /// state-count and task-time query volume both scale with job count).
  int expensive_job_threshold = 12;

  /// max_states cap applied to every estimate at brownout level >= 2; a
  /// capped-out estimate fails with retryable RESOURCE_EXHAUSTED (never
  /// kInternal, so brownout can't open the cluster breaker).
  int brownout_max_states = 2048;

  /// Warm-state snapshot file (model/snapshot.h). When set, Drain/Shutdown
  /// serialise the prefix-checkpoint store here immediately before
  /// the warm-state reset, so a restarted shard restores its warmth with
  /// LoadSnapshot instead of serving a cold-cache latency cliff. `dagperf
  /// serve --snapshot-dir` maps here (plus periodic saves).
  std::string snapshot_path;

  /// Identity of this process within a multi-shard fleet (router/router.h);
  /// echoed in the stats verb so the router's health probes and stats
  /// fan-out can attribute responses. "" outside shard mode. `dagperf serve
  /// --shard-id` maps here.
  std::string shard_id;
};

/// Monotonic service counters plus the checkpoint store's cumulative
/// behaviour.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Requests rejected at admission (queue full).
  std::uint64_t shed = 0;
  /// Requests whose budget expired while they sat in the queue.
  std::uint64_t expired_in_queue = 0;
  /// Requests the watchdog had to cancel (hard wall-clock bound).
  std::uint64_t watchdog_fired = 0;
  /// How many times the warm state (checkpoints) was reset — rates computed
  /// from the store stats below never span a reset: both are read inside
  /// the same epoch. Drain/Shutdown bump this once.
  std::uint64_t stats_epoch = 0;
  int queue_depth = 0;
  bool draining = false;
  /// Shard-mode readiness: true while the service is accepting work
  /// (= !draining). The router's health probes readmit a restarted shard
  /// only once its stats report ready.
  bool ready = true;
  /// ServiceOptions::shard_id, echoed for fleet attribution.
  std::string shard_id;
  int workflows = 0;
  int clusters = 0;
  /// The cross-request prefix-checkpoint store (incremental re-estimation).
  PrefixCheckpointStore::Stats incremental;
  /// Per-tenant accounting (stats verb "tenants" array), name-ordered.
  std::vector<TenantRegistry::TenantStats> tenants;
  /// Brownout ladder level right now (0 = healthy; absent controller = 0).
  int overload_level = 0;
  /// Requests the overload controller shed (subset of `shed`).
  std::uint64_t overload_shed = 0;
  /// Singleflight coalescing: computations whose answer was fanned out to
  /// at least one attached waiter, and requests served by attaching
  /// (`coalesce_attached` requests ran zero estimator states). Completed
  /// work this epoch that actually computed =
  /// completed - coalesce_attached.
  std::uint64_t coalesce_leaders = 0;
  std::uint64_t coalesce_attached = 0;
};

class EstimationService {
 public:
  explicit EstimationService(ServiceOptions options = {});
  /// Drains (waits for in-flight work) before tearing the pool down.
  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  /// Registers a workflow under `name` after running it through the
  /// validation firewall (dag/validate.h) — the service never holds a flow
  /// a request could fail validation on. Re-registering a name replaces it
  /// for future requests; submitted requests keep the version they
  /// resolved.
  Status RegisterWorkflow(const std::string& name, DagWorkflow flow);

  /// Registers a cluster under `name` (validated). Each cluster owns its
  /// BOE model and task-time source; its checkpoints are scoped by the
  /// cluster name so differing node hardware never aliases in the store.
  Status RegisterCluster(const std::string& name, const ClusterSpec& cluster);

  /// Points a registered cluster's task-time queries at a caller-owned
  /// source (profile-driven serving, test doubles). The source must be
  /// thread-safe and deterministic (TaskTimeSource contract) and must
  /// outlive the service. `scope` keys its checkpoints; pass a fresh scope
  /// when the source's answers differ from the BOE source's.
  Status RegisterSource(const std::string& cluster, const TaskTimeSource* source,
                        const std::string& scope);

  /// The entry point: submits one EstimateRequest — a single estimate or,
  /// when the request carries a SweepNodes list, a sweep — and resolves to
  /// the matching half of EstimateResponse. Never blocks on estimation: the
  /// returned future is either already failed (shed / draining) or will be
  /// fulfilled by a worker. Safe from any thread. Names resolve here, once.
  /// Identical concurrent single estimates coalesce onto one computation
  /// (bit-exact; semantics in docs/performance.md) unless the request opts
  /// out (EstimateRequest::WithoutCoalescing). A sweep holds one admission
  /// slot; its candidates fan out across the same pool and share a
  /// batch-local memo and the persistent checkpoint store.
  std::future<Result<EstimateResponse>> Submit(EstimateRequest request);

  /// Graceful shutdown: stops admitting (subsequent Submits fail with
  /// FailedPrecondition), waits for every queued and in-flight request to
  /// fulfil its future, and returns how many were in flight when the drain
  /// began. Idempotent.
  Result<int> Drain();

  /// What a bounded shutdown observed (the `dagperf serve` SIGTERM path).
  struct ShutdownReport {
    /// Queue depth when shutdown began.
    int inflight_at_shutdown = 0;
    /// Requests still running when the grace period expired — their tokens
    /// were fired and their futures carry UNAVAILABLE{retryable}.
    int cancelled = 0;
    double waited_seconds = 0.0;
    /// Everything drained inside the grace period; nothing was cancelled.
    bool graceful = false;
  };

  /// Drain with a bound: stops admission, waits up to `grace_seconds` for
  /// in-flight requests to finish on their own, then fires the service-wide
  /// shutdown token — every remaining request unwinds cooperatively and its
  /// future resolves to UNAVAILABLE{retryable} ("retry against a healthy
  /// server"). Every submitted future is fulfilled either way; the pool is
  /// quiesced on return. Idempotent.
  ShutdownReport Shutdown(double grace_seconds);

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  ServiceStats Stats() const;

  /// The last-N-requests ring + pinned exemplars + breaker/watchdog events.
  /// Dump it via obs::FlightRecorder::ToJson (the protocol's
  /// {"op":"flightrecorder"} verb and `serve --flight-out` do).
  const obs::FlightRecorder& flight_recorder() const { return flight_; }
  obs::FlightRecorder& flight_recorder() { return flight_; }

  /// Windowed latency/error/deadline telemetry per op class with burn rates
  /// against ServiceOptions::slo.
  const obs::SloTracker& slo_tracker() const { return slo_; }

  /// Clears the warm state (prefix checkpoints and their counters) and
  /// bumps the stats epoch (ServiceStats::stats_epoch, obs counter
  /// "stats.reset_epoch"), so no exported rate ever mixes pre- and
  /// post-reset counters. Drain/Shutdown call this
  /// once after the pool quiesces; it is also safe to call on a live service
  /// (requests in flight simply start cold).
  void ResetWarmState();

  /// Serialises the warm state (prefix checkpoints) to `path` via
  /// model/snapshot.h; logs a flight event either way. Drain/Shutdown call
  /// this automatically (before the warm-state reset) when
  /// ServiceOptions::snapshot_path is set; `dagperf serve` also calls it
  /// periodically.
  Status SaveSnapshot(const std::string& path);

  /// Restores warm state from a snapshot file. Corrupt or stale snapshots
  /// are rejected with a diagnostic and the service simply stays cold —
  /// restoring is always optional. Call before serving traffic.
  Status LoadSnapshot(const std::string& path);

  /// Restores only the snapshot entries belonging to `scope` (the
  /// cluster-scope prefix checkpoint keys start with — see
  /// PrefixCheckpointStore::AppendGlobalFingerprint). The scope must be
  /// registered on this service (RegisterCluster / RegisterSource):
  /// importing a snapshot for a scope this shard does not own is NOT_FOUND
  /// and leaves the warm state untouched. Like LoadSnapshot, the merge is
  /// first-wins: entries already computed locally are never overwritten by
  /// snapshot entries.
  Status LoadSnapshotForScope(const std::string& path,
                              const std::string& scope);

  /// The overload controller; nullptr when overload control is disabled
  /// (ServiceOptions::overload_target_sojourn_ms == 0).
  resilience::OverloadController* overload_controller() {
    return overload_.get();
  }

 private:
  struct ClusterEntry;
  struct CoalesceGroup;
  struct Call;

  /// The submission path behind Submit. `done` is invoked exactly once —
  /// synchronously for rejected requests, from a worker (or a coalesced
  /// leader's worker) otherwise.
  void SubmitImpl(EstimateRequest request,
                  std::function<void(Result<EstimateResponse>)> done);

  /// The one place a request's outcome is accounted and delivered: for an
  /// admitted request the tenant's completion, the completed/failed
  /// counters and the slot release; for every request the flight and SLO
  /// records; then `call.done`. A coalesce leader passes its `group`, whose
  /// waiters resolve (through Finish each) before the leader's own callback.
  void Finish(Call& call, Result<EstimateResponse> result, double exec_ms,
              const std::shared_ptr<CoalesceGroup>& group = nullptr);

  /// A request's workflow and cluster as resolved at submission.
  struct Resolved {
    std::shared_ptr<const DagWorkflow> flow;
    /// The registered name, or the inline flow's own name.
    std::string workflow;
    std::shared_ptr<const ClusterEntry> cluster;
  };

  /// Resolves the request's workflow and cluster under the registry lock;
  /// SubmitImpl calls it once and carries the result on the Call.
  Result<Resolved> Resolve(const EstimateRequest& request) const;

  /// The spec and estimator options a single estimate runs with at brownout
  /// `level` (node override, explain, brownout overlay, checkpoint scope).
  /// Execute, CoalesceKey and ClassifyCost all derive from it.
  struct EffectiveInputs {
    ClusterSpec spec;
    EstimatorOptions options;
  };
  EffectiveInputs Effective(const EstimateRequest& request,
                            const ClusterEntry& entry, int level) const;

  /// Cost classes the fast pre-estimate sorts requests into for overload
  /// shedding: warm work (checkpoint-backed, never shed), cheap cold
  /// work (shed only at the top of the ladder), expensive cold work (first
  /// to go).
  enum class CostClass { kWarm, kCheap, kExpensive };

  /// Fast pre-classification at brownout `level` >= 1: a sweep is always
  /// expensive (many estimates on one slot, so brownout sheds batch
  /// capacity planning first); an estimate is warm if the checkpoint store
  /// holds its complete result under the key it would run with at `level`,
  /// expensive if cold with >= expensive_job_threshold jobs. Resolution
  /// failures come out kCheap — the real error surfaces downstream.
  CostClass ClassifyCost(const EstimateRequest& request,
                         const Result<Resolved>& resolved, int level) const;

  /// Admission control; on success the caller owns one global queue slot
  /// AND one queued slot of `call.tenant` (released together). Rejections
  /// carry retry_after_ms. Order: global queue bound, chaos seam, overload
  /// controller, tenant fair share.
  Status Admit(const Call& call, const EstimateRequest& request);
  void ReleaseSlot();

  /// retry_after_ms hint for shed responses: the controller's ladder-scaled
  /// hint when overload control is on, else a queue-fullness-scaled base.
  double RetryAfterHintMs() const;

  /// Runs one single estimate on a worker thread (slot already held),
  /// dequeued at `start_us`; a failure carries its cancel cause
  /// (MapCancelCause). The call's record (when observability is armed)
  /// accumulates the request's attribution: states executed, path class,
  /// breaker interaction. `group`
  /// (null when the request is not a coalesce leader) arms the group-abandon
  /// poll: the execution unwinds once every attached caller has cancelled.
  Result<EstimateResponse> Execute(const EstimateRequest& request, Call& call,
                                   double start_us,
                                   const std::shared_ptr<CoalesceGroup>& group);

  /// Runs one sweep on a worker thread (slot already held): candidates fan
  /// out across the service pool, share a batch-local memo and resume from
  /// the persistent checkpoint store. Cancelled candidates surface per
  /// candidate inside the result.
  Result<EstimateResponse> ExecuteSweep(const EstimateRequest& request,
                                        Call& call, double start_us);

  /// The coalesce key of a single-estimate request: the same value
  /// fingerprint the prefix-checkpoint store keys on (scope + cluster bits +
  /// scheduler + level-0 effective estimator options + per-job workflow
  /// bytes) plus the resolved names and the explain flag. Empty when the
  /// request cannot be keyed: a sweep, or unresolvable names (the leader
  /// path surfaces the error).
  std::string CoalesceKey(const EstimateRequest& request,
                          const Result<Resolved>& resolved) const;

  /// Resolves every waiter of a finished leader: each gets its own status
  /// (own budget first, then the leader outcome mapped per-waiter) and its
  /// own accounting; runs on the leader's worker, outside the coalesce lock.
  void FulfillWaiters(const std::shared_ptr<CoalesceGroup>& group,
                      const Result<EstimateResponse>& leader_result);

  /// The per-cluster breaker (created lazily); nullptr when breakers are
  /// disabled. Entries are never destroyed while the service lives.
  resilience::CircuitBreaker* BreakerFor(const std::string& cluster);

  /// Rewrites a kCancelled result by cause: shutdown-token fired ->
  /// UNAVAILABLE{retryable}; watchdog fired (caller's token untouched) ->
  /// DEADLINE_EXCEEDED; a genuine caller cancel stays kCancelled. A watchdog
  /// fire is flagged on `record` (when armed) and logged as a flight event.
  Status MapCancelCause(const Status& status, const CancelToken& caller_cancel,
                        obs::RequestRecord* record);

  ServiceOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  PrefixCheckpointStore checkpoints_;

  /// Per-tenant accounting + DRF fair-share admission (created in the ctor
  /// after max_queue_depth is clamped; never null).
  std::unique_ptr<TenantRegistry> tenants_;

  /// CoDel-style overload controller; null when disabled.
  std::unique_ptr<resilience::OverloadController> overload_;

  /// Guards registries (shared: request resolution; unique: registration).
  mutable std::shared_mutex registry_mutex_;
  std::map<std::string, std::shared_ptr<const DagWorkflow>> workflows_;
  std::map<std::string, std::shared_ptr<const ClusterEntry>> clusters_;

  /// Taken shared around every Submit (admission + pool enqueue), unique by
  /// Drain before it waits — so no Submit races ThreadPool::Wait.
  mutable std::shared_mutex admission_mutex_;
  std::atomic<bool> draining_{false};

  /// Singleflight table: key -> the in-flight computation for that value.
  /// A group is inserted by its leader before the pool enqueue and erased
  /// by the leader's worker before waiters are fulfilled, so a request
  /// observing the entry always attaches to a computation that will still
  /// resolve it. All group state is guarded by this mutex.
  mutable std::mutex coalesce_mutex_;
  std::unordered_map<std::string, std::shared_ptr<CoalesceGroup>> coalesce_;

  /// Fired by Shutdown once the grace period expires; linked (never merged)
  /// into every request's token so a caller's own cancel stays a distinct
  /// signal.
  CancelToken shutdown_cancel_ = CancelToken::Cancellable();

  /// Hard wall-clock backstop (created in the ctor when watchdog_multiple
  /// > 0); fires request tokens, never joins threads.
  std::unique_ptr<resilience::Watchdog> watchdog_;

  mutable std::mutex breakers_mutex_;
  std::map<std::string, std::unique_ptr<resilience::CircuitBreaker>> breakers_;

  /// Request observability (tentpole of the obs layer): ids link records to
  /// trace spans; the recorder and SLO tracker consume completed records.
  obs::FlightRecorder flight_;
  obs::SloTracker slo_;
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::uint64_t> stats_epoch_{0};
  /// Ensures the drain-path ResetWarmState runs once even though Drain,
  /// Shutdown, and the destructor can all reach it.
  std::atomic<bool> drain_reset_done_{false};

  std::atomic<int> queue_depth_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> expired_in_queue_{0};
  std::atomic<std::uint64_t> watchdog_fired_{0};
  std::atomic<std::uint64_t> coalesce_leaders_{0};
  std::atomic<std::uint64_t> coalesce_attached_{0};
};

}  // namespace dagperf

#endif  // DAGPERF_SERVICE_SERVICE_H_
