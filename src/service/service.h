#ifndef DAGPERF_SERVICE_SERVICE_H_
#define DAGPERF_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
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
#include "resilience/overload.h"
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
  /// kInternal: the cap is the server's doing, so the client may retry).
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
  /// Admitted requests answered on the submitting thread: single estimates
  /// whose complete result the checkpoint store held (a copy), so they
  /// skipped the pool queue.
  std::uint64_t served_inline = 0;
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
  /// the matching half of EstimateResponse. Safe from any thread. Names
  /// resolve here, once. A single estimate whose complete result the
  /// checkpoint store already holds is a copy: it runs on the calling
  /// thread and the returned future is ready on return
  /// (ServiceStats::served_inline). Everything else never blocks on
  /// estimation: the future is either already failed (draining /
  /// unresolvable names / shed) or will be fulfilled by a worker. A repeat
  /// of an earlier estimate resumes from the checkpoint store. A sweep holds
  /// one admission slot; its candidates fan out across the same pool and
  /// share a batch-local memo and the persistent checkpoint store.
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

  /// The last-N-requests ring + pinned exemplars + service events (drain,
  /// shutdown, snapshot, brownout transitions).
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
  struct Call;

  /// The submission path behind Submit. `done` is invoked exactly once —
  /// synchronously for rejected requests and warm single estimates (Call::
  /// warm), from a worker otherwise.
  void SubmitImpl(EstimateRequest request,
                  std::function<void(Result<EstimateResponse>)> done);

  /// Runs one admitted request to its answer: tenant execute-start, the
  /// overload sojourn sample (pooled requests only), Execute or
  /// ExecuteSweep, Finish. SubmitImpl calls it on the submitting thread for
  /// a warm request and hands it to the pool for everything else.
  void Run(const EstimateRequest& request, Call& call);

  /// The one place a request's outcome is delivered: for an admitted
  /// request the tenant's completion, the completed/failed counters and the
  /// slot release; for every request the flight and SLO records; then
  /// `call.done`. (SubmitImpl counts an unresolvable request as failed.)
  void Finish(Call& call, Result<EstimateResponse> result, double exec_ms);

  /// A request's workflow and cluster as resolved at submission.
  struct Resolved {
    std::shared_ptr<const DagWorkflow> flow;
    /// The registered name, or the inline flow's own name.
    std::string workflow;
    std::shared_ptr<const ClusterEntry> cluster;
  };

  /// Resolves the request's workflow and cluster under the registry lock;
  /// SubmitImpl calls it once, answers a failure at once, and carries the
  /// resolution on the Call.
  Result<Resolved> Resolve(const EstimateRequest& request) const;

  /// The spec and estimator options a single estimate runs with at brownout
  /// `level` (node override, explain, brownout overlay, checkpoint scope).
  /// ProbeWarm and Execute both derive from it.
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

  /// Fast pre-classification for brownout levels >= 1: a sweep is always
  /// expensive (many estimates on one slot, so brownout sheds batch
  /// capacity planning first); an estimate is warm when ProbeWarm found its
  /// complete result, expensive if cold with >= expensive_job_threshold
  /// jobs.
  CostClass ClassifyCost(const EstimateRequest& request,
                         const Call& call) const;

  /// The one warm probe of a single estimate, at the brownout level read at
  /// submission (Call::level): builds the global checkpoint fingerprint of
  /// the options it would run with into Call::global_fp and sets Call::warm
  /// when the store holds the complete result under it. Sweeps are never
  /// probed.
  void ProbeWarm(const EstimateRequest& request, Call& call) const;

  /// Admission control; on success the caller owns one global queue slot
  /// AND one queued slot of `call.tenant` (released together). Rejections
  /// carry retry_after_ms. Order: global queue bound, chaos seam, overload
  /// controller (at Call::level), tenant fair share.
  Status Admit(const Call& call, const EstimateRequest& request);
  void ReleaseSlot();

  /// retry_after_ms hint for shed responses: the controller's ladder-scaled
  /// hint when overload control is on, else a queue-fullness-scaled base.
  double RetryAfterHintMs() const;

  /// Runs one single estimate (slot already held), started at `start_us`
  /// on a worker or, when warm, on the submitting thread. A warm request
  /// runs at Call::level, the level its probe used; a queued one reads the
  /// level when it starts and reuses Call::global_fp when that level is
  /// still Call::level. A failure carries its cancel cause
  /// (MapCancelCause). The call's record (when observability is armed)
  /// accumulates the request's attribution: states executed, path class.
  Result<EstimateResponse> Execute(const EstimateRequest& request, Call& call,
                                   double start_us);

  /// Runs one sweep on a worker thread (slot already held): candidates fan
  /// out across the service pool, share a batch-local memo and resume from
  /// the persistent checkpoint store. Cancelled candidates surface per
  /// candidate inside the result.
  Result<EstimateResponse> ExecuteSweep(const EstimateRequest& request,
                                        Call& call, double start_us);

  /// Rewrites a kCancelled result fired by the shutdown token into
  /// UNAVAILABLE{retryable} ("retry against a healthy server"); a caller's
  /// own cancel stays kCancelled.
  Status MapCancelCause(const Status& status) const;

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

  /// Taken shared around every Submit (admission + pool enqueue, or the
  /// whole run of a warm request), unique by Drain before it waits — so no
  /// Submit races ThreadPool::Wait and a drain also waits out inline runs.
  mutable std::shared_mutex admission_mutex_;
  std::atomic<bool> draining_{false};

  /// Fired by Shutdown once the grace period expires; linked (never merged)
  /// into every request's token so a caller's own cancel stays a distinct
  /// signal.
  CancelToken shutdown_cancel_ = CancelToken::Cancellable();

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
  std::atomic<std::uint64_t> served_inline_{0};
};

}  // namespace dagperf

#endif  // DAGPERF_SERVICE_SERVICE_H_
