#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>
#include <utility>

#include "boe/boe_model.h"
#include "cluster/validate.h"
#include "dag/validate.h"
#include "model/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/fault.h"

namespace dagperf {

namespace {

/// Service metric handles (obs/metrics.h); recording is gated on the
/// process-wide metrics flag, so holding them is free when disabled.
struct ServiceMetrics {
  obs::Counter& submitted;
  obs::Counter& completed;
  obs::Counter& failed;
  obs::Counter& shed;
  obs::Counter& expired_in_queue;
  /// Per-request cost-class attribution: how each served request got its
  /// answer — full replay, checkpoint resume, or by attaching to another
  /// request's in-flight computation.
  obs::Counter& path_full_replay;
  obs::Counter& path_incremental;
  obs::Counter& path_coalesced;
  /// Warm-state reset epochs (drain/shutdown); rates exported next to this
  /// counter are always computed within one epoch.
  obs::Counter& reset_epoch;
  obs::Gauge& queue_depth;
  obs::Histogram& latency_us;
  obs::Histogram& queue_wait_us;

  ServiceMetrics()
      : submitted(obs::MetricsRegistry::Default().GetCounter("service.submitted")),
        completed(obs::MetricsRegistry::Default().GetCounter("service.completed")),
        failed(obs::MetricsRegistry::Default().GetCounter("service.failed")),
        shed(obs::MetricsRegistry::Default().GetCounter("service.shed")),
        expired_in_queue(obs::MetricsRegistry::Default().GetCounter(
            "service.expired_in_queue")),
        path_full_replay(obs::MetricsRegistry::Default().GetCounter(
            "service.path.full_replay")),
        path_incremental(obs::MetricsRegistry::Default().GetCounter(
            "service.path.incremental")),
        path_coalesced(obs::MetricsRegistry::Default().GetCounter(
            "service.path.coalesced")),
        reset_epoch(
            obs::MetricsRegistry::Default().GetCounter("stats.reset_epoch")),
        queue_depth(obs::MetricsRegistry::Default().GetGauge("service.queue_depth")),
        latency_us(
            obs::MetricsRegistry::Default().GetHistogram("service.latency_us")),
        queue_wait_us(obs::MetricsRegistry::Default().GetHistogram(
            "service.queue_wait_us")) {}
};

ServiceMetrics& Metrics() {
  static ServiceMetrics* metrics = new ServiceMetrics();
  return *metrics;
}

/// Chaos seams (resilience/fault.h): service.admit injects admission
/// rejections after a slot was legitimately granted; service.execute injects
/// estimator-path failures — the errors the per-cluster breaker and the
/// protocol's retryable flag exist for.
resilience::FaultPoint& AdmitFault() {
  static resilience::FaultPoint& point =
      resilience::FaultInjector::Default().GetPoint("service.admit");
  return point;
}

resilience::FaultPoint& ExecuteFault() {
  static resilience::FaultPoint& point =
      resilience::FaultInjector::Default().GetPoint("service.execute");
  return point;
}

/// TaskTimeSource decorator arming coalesce-group abandonment: every 64th
/// compute query (a batched TaskTimes() counts one per stage it prices)
/// runs `poll` (which fires the group's abandon token once every attached
/// caller has cancelled). CancelToken carries no callbacks,
/// so abandonment has to be discovered by polling — and the task-time path
/// is the only place a leader reliably visits often, with a period that
/// keeps the poll off the hot path. Only compute-bound executions poll:
/// checkpoint-resumed ones finish before abandonment could matter.
class AbandonPollSource : public TaskTimeSource {
 public:
  AbandonPollSource(const TaskTimeSource& inner, std::function<void()> poll)
      : inner_(inner), poll_(std::move(poll)) {}

  Duration TaskTime(const EstimationContext& context) const override {
    MaybePoll();
    return inner_.TaskTime(context);
  }

  void TaskTimes(const EstimationContext& context,
                 std::vector<Duration>* out) const override {
    MaybePoll(context.running.size());
    inner_.TaskTimes(context, out);
  }

  NormalParams TaskTimeDist(const EstimationContext& context) const override {
    MaybePoll();
    return inner_.TaskTimeDist(context);
  }

  std::optional<TaskAttribution> Attribution(
      const EstimationContext& context) const override {
    return inner_.Attribution(context);
  }

 private:
  void MaybePoll(std::uint64_t queries = 1) const {
    const std::uint64_t before =
        queries_.fetch_add(queries, std::memory_order_relaxed);
    if ((before >> 6) != ((before + queries) >> 6)) poll_();
  }

  const TaskTimeSource& inner_;
  std::function<void()> poll_;
  mutable std::atomic<std::uint64_t> queries_{0};
};

}  // namespace

/// One submitted request's bookkeeping, from submission to its answer.
struct EstimationService::Call {
  std::function<void(Result<EstimateResponse>)> done;
  /// Canonical tenant name (TenantRegistry::Canonical).
  std::string tenant;
  /// Resolved once at submission; every later step reads this.
  Result<Resolved> resolved = Status::Internal("unresolved");
  /// The caller's raw token, so completion can tell a caller cancel from
  /// the shutdown signal (MapCancelCause).
  CancelToken caller_cancel;
  obs::RequestRecord record;
  /// Request observability was armed at submission (obs::MetricsEnabled).
  bool observe = false;
  /// Holds an admission slot (global + tenant) until Finish releases it.
  bool admitted = false;
  double submit_us = 0.0;
};

/// One in-flight singleflight computation: the leader's abandon signal, the
/// caller tokens of every member, and the requests parked on the result.
/// Mutable state is guarded by EstimationService::coalesce_mutex_.
struct EstimationService::CoalesceGroup {
  /// One attached request, parked until the leader resolves.
  struct Waiter {
    Call call;
    /// The waiter's own signals (caller cancel + shutdown link + deadline)
    /// — what fulfilment checks before handing over the leader's answer.
    Budget budget;
  };

  std::string key;
  /// Fired once every member (leader + waiters) has cancelled — the only
  /// signal that aborts the shared computation short of shutdown. Cancelling
  /// one waiter never cancels the leader unless it is the last live caller.
  CancelToken abandon = CancelToken::Cancellable();
  /// Caller tokens of every member, leader first.
  std::vector<CancelToken> member_cancels;
  std::vector<Waiter> waiters;
};

/// One registered cluster: its spec, its BOE model, and the task-time
/// source requests are priced with. The source defaults to the entry's own
/// BOE source and can be repointed via RegisterSource (profile-driven
/// serving). Immutable after registration — replacement swaps the shared_ptr
/// while in-flight requests keep theirs.
struct EstimationService::ClusterEntry {
  std::string name;
  ClusterSpec spec;
  BoeModel model;
  BoeTaskTimeSource boe_source;
  /// The active source (points at `boe_source` unless repointed) and the
  /// scope its checkpoints are keyed under.
  const TaskTimeSource* source;
  std::string scope;

  ClusterEntry(std::string entry_name, const ClusterSpec& cluster)
      : name(std::move(entry_name)),
        spec(cluster),
        model(cluster.node),
        boe_source(model, Duration::Seconds(1)),
        source(&boe_source),
        scope(name) {}

  ClusterEntry(const ClusterEntry&) = delete;
  ClusterEntry& operator=(const ClusterEntry&) = delete;
};

EstimationService::EstimationService(ServiceOptions options)
    : options_(std::move(options)),
      flight_(options_.flight),
      slo_(options_.slo) {
  int threads = options_.threads;
  if (threads <= 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  options_.threads = threads;
  options_.max_queue_depth = std::max(1, options_.max_queue_depth);
  if (options_.watchdog_multiple > 0) {
    options_.watchdog_multiple = std::max(1.0, options_.watchdog_multiple);
    resilience::WatchdogOptions watchdog_options;
    watchdog_options.counter_name = "service.watchdog_cancels";
    watchdog_ = std::make_unique<resilience::Watchdog>(watchdog_options);
  }
  TenantRegistry::Options tenant_options;
  tenant_options.capacity_slots = options_.max_queue_depth;
  tenants_ = std::make_unique<TenantRegistry>(tenant_options);
  if (options_.overload_target_sojourn_ms > 0) {
    resilience::OverloadOptions overload_options = options_.overload;
    overload_options.target_sojourn_ms = options_.overload_target_sojourn_ms;
    overload_ =
        std::make_unique<resilience::OverloadController>(overload_options);
    // Ladder transitions into the flight recorder, same as breaker
    // transitions: the overload gauge only shows the current level, but a
    // post-mortem needs the escalation/recovery sequence with its timing.
    overload_->SetTransitionCallback([this](int from, int to) {
      flight_.AddEvent("overload", "brownout level " + std::to_string(from) +
                                       " -> " + std::to_string(to));
    });
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  RegisterCluster("default", ClusterSpec::PaperCluster());
}

EstimationService::~EstimationService() { Drain(); }

Status EstimationService::RegisterWorkflow(const std::string& name,
                                           DagWorkflow flow) {
  if (name.empty()) {
    return Status::InvalidArgument("workflow name must be non-empty");
  }
  // Validate at the door: a registered flow is served many times, so the
  // firewall runs once here instead of surfacing per-request.
  if (Status valid = ValidateWorkflow(flow).ToStatus(name); !valid.ok()) {
    return valid;
  }
  auto shared = std::make_shared<const DagWorkflow>(std::move(flow));
  std::unique_lock lock(registry_mutex_);
  workflows_[name] = std::move(shared);
  return Status::Ok();
}

Status EstimationService::RegisterCluster(const std::string& name,
                                          const ClusterSpec& cluster) {
  if (name.empty()) {
    return Status::InvalidArgument("cluster name must be non-empty");
  }
  if (Status valid = ValidateClusterSpec(cluster).ToStatus(name); !valid.ok()) {
    return valid;
  }
  auto entry = std::make_shared<ClusterEntry>(name, cluster);
  std::unique_lock lock(registry_mutex_);
  clusters_[name] = std::move(entry);
  return Status::Ok();
}

Status EstimationService::RegisterSource(const std::string& cluster,
                                         const TaskTimeSource* source,
                                         const std::string& scope) {
  if (source == nullptr) {
    return Status::InvalidArgument("source must be non-null");
  }
  std::unique_lock lock(registry_mutex_);
  auto it = clusters_.find(cluster);
  if (it == clusters_.end()) {
    return Status::NotFound("cluster not registered: " + cluster);
  }
  // Rebuild the entry so in-flight requests keep the one they resolved.
  auto entry = std::make_shared<ClusterEntry>(cluster, it->second->spec);
  entry->source = source;
  entry->scope = scope;
  it->second = std::move(entry);
  return Status::Ok();
}

Result<EstimationService::Resolved> EstimationService::Resolve(
    const EstimateRequest& request) const {
  Resolved resolved;
  if (request.flow != nullptr) {
    resolved.flow = request.flow;
    resolved.workflow = request.flow->name();
  } else if (request.workflow.empty()) {
    return Status::InvalidArgument("request names no workflow");
  }
  const std::string cluster =
      request.cluster.empty() ? std::string("default") : request.cluster;
  std::shared_lock lock(registry_mutex_);
  if (resolved.flow == nullptr) {
    auto it = workflows_.find(request.workflow);
    if (it == workflows_.end()) {
      return Status::NotFound("workflow not registered: " + request.workflow);
    }
    resolved.flow = it->second;
    resolved.workflow = request.workflow;
  }
  auto it = clusters_.find(cluster);
  if (it == clusters_.end()) {
    return Status::NotFound("cluster not registered: " + cluster);
  }
  resolved.cluster = it->second;
  return resolved;
}

EstimationService::EffectiveInputs EstimationService::Effective(
    const EstimateRequest& request, const ClusterEntry& entry,
    int level) const {
  EffectiveInputs effective{entry.spec, options_.estimator};
  if (request.nodes > 0) effective.spec.num_nodes = request.nodes;
  EstimatorOptions& options = effective.options;
  options.attribute_bottlenecks =
      request.explain || options.attribute_bottlenecks;
  // Brownout overlay (the resilience/overload.h ladder): level >= 1 drops
  // bottleneck attribution, level >= 2 additionally caps the state budget.
  if (level >= 1) options.attribute_bottlenecks = false;
  if (level >= 2 && (options.max_states <= 0 ||
                     options.max_states > options_.brownout_max_states)) {
    options.max_states = options_.brownout_max_states;
  }
  // Checkpoints are scoped by the cluster entry so hardware never aliases
  // (the cluster bits are part of the key too, so re-registration can
  // never resume from stale state).
  options.checkpoint_scope = entry.scope;
  return effective;
}

EstimationService::CostClass EstimationService::ClassifyCost(
    const EstimateRequest& request, const Result<Resolved>& resolved,
    int level) const {
  if (request.is_sweep()) return CostClass::kExpensive;
  if (!resolved.ok()) return CostClass::kCheap;
  // Warm means the store holds the complete answer under the exact key the
  // request would run with now: the estimate is then a copy.
  const EffectiveInputs effective =
      Effective(request, *resolved->cluster, level);
  std::string global_fp;
  PrefixCheckpointStore::AppendGlobalFingerprint(
      effective.options.checkpoint_scope, effective.spec, options_.scheduler,
      effective.options, &global_fp);
  if (checkpoints_.HoldsCompleteResult(*resolved->flow, global_fp)) {
    return CostClass::kWarm;
  }
  return resolved->flow->num_jobs() >= options_.expensive_job_threshold
             ? CostClass::kExpensive
             : CostClass::kCheap;
}

double EstimationService::RetryAfterHintMs() const {
  if (overload_ != nullptr) return overload_->RetryAfterMs();
  // No controller: scale a base hint by queue fullness so a nearly-full
  // server spreads its retry storm wider than a briefly-full one.
  const double fullness =
      static_cast<double>(queue_depth_.load(std::memory_order_relaxed)) /
      static_cast<double>(options_.max_queue_depth);
  return 25.0 * (1.0 + std::clamp(fullness, 0.0, 1.0));
}

Status EstimationService::Admit(const Call& call,
                                const EstimateRequest& request) {
  // Claim a slot optimistically; back out when the bound is exceeded. The
  // transient overshoot is invisible (competing claimants also back out).
  const int depth = queue_depth_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (depth > options_.max_queue_depth) {
    queue_depth_.fetch_sub(1, std::memory_order_acq_rel);
    shed_.fetch_add(1, std::memory_order_relaxed);
    Metrics().shed.Add(1);
    tenants_->OnShed(call.tenant);
    return Status::ResourceExhausted(
               "admission queue full (" +
               std::to_string(options_.max_queue_depth) +
               " deep): retry with backoff")
        .WithRetryAfterMs(RetryAfterHintMs());
  }
  // Chaos seam: an injected rejection releases the slot it was granted, so
  // conservation (admitted == released) holds under any schedule.
  if (Status injected = resilience::InjectAt(AdmitFault()); !injected.ok()) {
    queue_depth_.fetch_sub(1, std::memory_order_acq_rel);
    return injected;
  }
  // Cost-aware overload shedding: the controller drops expensive cold work
  // first and warm work never (brownout exists to keep serving it). Level 0
  // sheds nothing, so only a raised level pays for the classification.
  const int level = overload_ != nullptr ? overload_->level() : 0;
  const CostClass cost = level >= 1
                             ? ClassifyCost(request, call.resolved, level)
                             : CostClass::kCheap;
  if (level >= 1 && overload_->ShouldShed(cost == CostClass::kWarm,
                                          cost == CostClass::kExpensive)) {
    queue_depth_.fetch_sub(1, std::memory_order_acq_rel);
    shed_.fetch_add(1, std::memory_order_relaxed);
    Metrics().shed.Add(1);
    overload_->RecordShed();
    tenants_->OnShed(call.tenant);
    return Status::ResourceExhausted(
               "overloaded (brownout level " +
               std::to_string(overload_->level()) + "): shedding " +
               (cost == CostClass::kExpensive ? "expensive" : "cold") +
               " work, retry with backoff")
        .WithRetryAfterMs(overload_->RetryAfterMs());
  }
  // Tenant fair share (DRF) last, so a lone tenant sees exactly the global
  // queue-bound behaviour and only contended multi-tenant load diverges.
  if (Status fair = tenants_->Admit(call.tenant); !fair.ok()) {
    queue_depth_.fetch_sub(1, std::memory_order_acq_rel);
    shed_.fetch_add(1, std::memory_order_relaxed);
    Metrics().shed.Add(1);
    fair.set_retry_after_ms(RetryAfterHintMs());
    return fair;
  }
  Metrics().queue_depth.Set(depth);
  return Status::Ok();
}

void EstimationService::ReleaseSlot() {
  const int depth = queue_depth_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  Metrics().queue_depth.Set(depth);
}

Result<EstimateResponse> EstimationService::Execute(
    const EstimateRequest& request, Call& call, double start_us,
    const std::shared_ptr<CoalesceGroup>& group) {
  obs::RequestRecord* record = call.observe ? &call.record : nullptr;
  const int brownout = overload_ != nullptr ? overload_->level() : 0;
  // A request can spend its whole budget waiting in the queue; detect that
  // here so an expired request costs a check, not an estimate.
  if (request.budget.exhausted()) {
    Status status = request.budget.Check("serve " + request.workflow);
    if (status.code() == ErrorCode::kDeadlineExceeded) {
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      Metrics().expired_in_queue.Add(1);
      if (record != nullptr) record->expired_in_queue = true;
    }
    return MapCancelCause(status, call.caller_cancel, record);
  }

  if (!call.resolved.ok()) return call.resolved.status();
  const Resolved& resolved = *call.resolved;
  const std::string& workflow_name = resolved.workflow;
  const ClusterEntry& entry = *resolved.cluster;

  // The breaker gates the estimation path only — resolution failures above
  // are client errors and never open it. Every Allow() below is matched by
  // exactly one Record() on the way out.
  resilience::CircuitBreaker* breaker = BreakerFor(entry.name);
  if (breaker != nullptr) {
    if (Status allowed = breaker->Allow(); !allowed.ok()) {
      if (record != nullptr) record->breaker_rejected = true;
      return allowed;
    }
  }

  Result<WorkflowEstimate> result = [&]() -> Result<WorkflowEstimate> {
    if (Status injected = resilience::InjectAt(ExecuteFault()); !injected.ok()) {
      return injected;
    }

    std::optional<obs::ScopedSpan> span;
    if (obs::TraceRecorder::Default().enabled()) {
      span.emplace("serve " + workflow_name, "service");
      // Links the span to its RequestRecord in flight-recorder dumps.
      if (record != nullptr) {
        span->AddArg("request_id", static_cast<double>(record->id));
      }
    }

    // The level read here, not at submission: checkpoints this run stores
    // are keyed by the options it runs with. Degraded answers are tagged
    // below so clients can re-query later.
    EffectiveInputs effective = Effective(request, entry, brownout);
    effective.options.budget = request.budget;
    // The warm path: the estimator resumes recurring workflows from the
    // service-lifetime checkpoint store.
    effective.options.checkpoints = &checkpoints_;
    // A coalesce leader computes for every attached caller: its execution
    // token observes the group's abandon signal instead of its own caller's
    // cancel, and this decorator is what eventually fires that signal once
    // every member has walked away.
    std::optional<AbandonPollSource> polled;
    const TaskTimeSource* source = entry.source;
    if (group != nullptr) {
      polled.emplace(*entry.source, [this, group] {
        std::lock_guard<std::mutex> lock(coalesce_mutex_);
        for (const CancelToken& member : group->member_cancels) {
          if (!member.cancelled()) return;
        }
        group->abandon.Cancel();
      });
      source = &*polled;
    }
    const StateBasedEstimator estimator(effective.spec, options_.scheduler,
                                        effective.options);
    Result<DagEstimate> estimate = estimator.Estimate(*resolved.flow, *source);
    if (!estimate.ok()) {
      Status status = estimate.status();
      // A brownout state cap is the server's doing, not the workflow's:
      // rewrite the estimator's kInternal into retryable RESOURCE_EXHAUSTED
      // (with a retry hint) before the breaker sees it, so brownout never
      // opens the cluster breaker.
      if (brownout >= 2 && status.code() == ErrorCode::kInternal &&
          status.message().find("state limit exceeded") != std::string::npos) {
        return Status::ResourceExhausted(
                   "brownout (level " + std::to_string(brownout) +
                   ") state cap hit for " + workflow_name +
                   ": retry when the server recovers")
            .WithRetryAfterMs(RetryAfterHintMs());
      }
      return status;
    }

    WorkflowEstimate served;
    served.estimate = std::move(estimate).value();
    if (request.explain && brownout < 1) {
      served.critical_path = CriticalPath(served.estimate);
    }
    served.flow = resolved.flow;
    served.workflow = workflow_name;
    served.cluster = entry.name;
    served.degraded = brownout >= 1;
    served.degrade_level = brownout;
    const double end_us = obs::MonotonicUs();
    served.queue_wait_ms = (start_us - call.submit_us) * 1e-3;
    served.service_ms = (end_us - start_us) * 1e-3;
    Metrics().queue_wait_us.Record(start_us - call.submit_us);
    Metrics().latency_us.Record(end_us - call.submit_us);
    if (record != nullptr) {
      record->states = static_cast<std::uint32_t>(served.estimate.states.size());
      record->resumed_states =
          static_cast<std::uint32_t>(served.estimate.resumed_states);
      if (record->resumed_states > 0) {
        record->path = obs::RequestPath::kIncremental;
        Metrics().path_incremental.Add(1);
      } else {
        record->path = obs::RequestPath::kFullReplay;
        Metrics().path_full_replay.Add(1);
      }
    }
    return served;
  }();

  // kCancelled is neutral to the breaker (Record releases the probe slot
  // without judging the path); the shutdown/watchdog rewrite happens after
  // this record, so a shutdown burst cannot open it.
  if (breaker != nullptr) breaker->Record(result.status());
  if (!result.ok()) {
    return MapCancelCause(result.status(), call.caller_cancel, record);
  }
  EstimateResponse response;
  response.estimate = std::move(result).value();
  return response;
}

Result<EstimateResponse> EstimationService::ExecuteSweep(
    const EstimateRequest& request, Call& call, double start_us) {
  if (!call.resolved.ok()) return call.resolved.status();
  const Resolved& resolved = *call.resolved;
  const ClusterEntry& entry = *resolved.cluster;
  std::vector<SweepCandidate> candidates;
  candidates.reserve(request.nodes_list.size());
  for (int nodes : request.nodes_list) {
    ClusterSpec spec = entry.spec;
    spec.num_nodes = nodes;
    candidates.push_back({resolved.flow.get(), spec,
                          resolved.workflow + "@" + std::to_string(nodes)});
  }
  // The candidates share a batch-local memo (SweepOptions::memo stays null)
  // and resume from the service-lifetime checkpoint store.
  SweepOptions sweep_options;
  sweep_options.cache_scope = entry.scope;
  sweep_options.checkpoints = &checkpoints_;
  // Candidates fan out across the service pool; the worker running this
  // sweep participates (ParallelFor is nest-safe), so a sweep uses idle
  // capacity without a second pool.
  sweep_options.pool = pool_.get();
  sweep_options.budget = request.budget;
  sweep_options.estimator = options_.estimator;
  EstimateResponse response;
  ServiceSweepResult& result = response.sweep.emplace();
  result.sweep =
      EstimateBatch(candidates, options_.scheduler, *entry.source, sweep_options);
  result.nodes_list = request.nodes_list;
  result.workflow = resolved.workflow;
  result.cluster = entry.name;
  result.service_ms = (obs::MonotonicUs() - start_us) * 1e-3;
  if (call.observe) {
    const SweepStats& stats = result.sweep.stats;
    obs::RequestRecord& record = call.record;
    record.resumed_states = static_cast<std::uint32_t>(stats.resumed_states);
    record.path = stats.resumed_states > 0 ? obs::RequestPath::kIncremental
                                           : obs::RequestPath::kFullReplay;
  }
  return response;
}

resilience::CircuitBreaker* EstimationService::BreakerFor(
    const std::string& cluster) {
  if (options_.breaker_failure_threshold <= 0) return nullptr;
  std::lock_guard<std::mutex> lock(breakers_mutex_);
  std::unique_ptr<resilience::CircuitBreaker>& slot = breakers_[cluster];
  if (slot == nullptr) {
    resilience::CircuitBreakerOptions breaker_options;
    breaker_options.failure_threshold = options_.breaker_failure_threshold;
    breaker_options.open_seconds = options_.breaker_open_seconds;
    breaker_options.gauge_name =
        cluster == "default" ? "resilience.breaker_state"
                             : "resilience.breaker_state." + cluster;
    // Transition history into the flight recorder: the gauge above only
    // shows the last write, but a post-mortem needs the open/half-open/close
    // sequence with its timing. Runs under the breaker mutex — AddEvent only
    // takes the recorder's own (leaf) mutex, so no ordering cycle.
    breaker_options.on_transition = [this, cluster](
                                        resilience::BreakerState from,
                                        resilience::BreakerState to) {
      flight_.AddEvent("breaker", cluster + ": " +
                                      resilience::BreakerStateName(from) +
                                      " -> " +
                                      resilience::BreakerStateName(to));
    };
    slot = std::make_unique<resilience::CircuitBreaker>(breaker_options);
  }
  return slot.get();
}

Status EstimationService::MapCancelCause(const Status& status,
                                         const CancelToken& caller_cancel,
                                         obs::RequestRecord* record) {
  if (status.code() != ErrorCode::kCancelled) return status;
  if (shutdown_cancel_.cancelled()) {
    return Status::Unavailable(
        "service shut down before completion: retry against a healthy server");
  }
  if (!caller_cancel.cancelled()) {
    // Only the watchdog could have fired the request-scoped token.
    watchdog_fired_.fetch_add(1, std::memory_order_relaxed);
    if (record != nullptr) {
      record->watchdog_fired = true;
      // Cancelled requests are exactly the ones a post-mortem needs: pin the
      // fire as a structured event next to the (error-exemplared) record.
      flight_.AddEvent("watchdog",
                       std::string(record->workflow) + "@" + record->cluster +
                           ": hard wall-clock bound exceeded");
    }
    return Status::DeadlineExceeded(
        "cancelled by watchdog: exceeded the hard wall-clock bound (" +
        std::to_string(options_.watchdog_multiple) + "x deadline)");
  }
  return status;
}

std::string EstimationService::CoalesceKey(
    const EstimateRequest& request, const Result<Resolved>& resolved) const {
  if (request.is_sweep() || !resolved.ok()) return std::string();
  const ClusterEntry& entry = *resolved->cluster;

  // The inputs Execute derives at level 0 (requests coalesce only there):
  // two requests with equal keys run the estimator over identical inputs
  // and produce identical bits.
  const EffectiveInputs effective = Effective(request, entry, 0);

  std::string key;
  key.reserve(256);
  // Resolved names are part of the served answer (WorkflowEstimate carries
  // them), so structurally identical flows under different names never
  // coalesce into a response naming the wrong one.
  key += entry.name;
  key += '\x1f';
  key += resolved->workflow;
  key += '\x1f';
  key += request.explain ? '\1' : '\0';
  PrefixCheckpointStore::AppendGlobalFingerprint(
      effective.options.checkpoint_scope, effective.spec, options_.scheduler,
      effective.options, &key);
  const DagWorkflow& dag = *resolved->flow;
  for (JobId id = 0; id < dag.num_jobs(); ++id) {
    PrefixCheckpointStore::AppendJobFingerprint(dag, id, &key);
  }
  return key;
}

void EstimationService::FulfillWaiters(
    const std::shared_ptr<CoalesceGroup>& group,
    const Result<EstimateResponse>& leader_result) {
  std::vector<CoalesceGroup::Waiter> waiters;
  {
    // Erase before fulfilling: a request that finds the entry always
    // attaches to a computation that will still resolve it.
    std::lock_guard<std::mutex> lock(coalesce_mutex_);
    coalesce_.erase(group->key);
    waiters = std::move(group->waiters);
  }
  if (waiters.empty()) return;
  coalesce_leaders_.fetch_add(1, std::memory_order_relaxed);
  const double now_us = obs::MonotonicUs();
  for (CoalesceGroup::Waiter& waiter : waiters) {
    Call& call = waiter.call;
    obs::RequestRecord* record = call.observe ? &call.record : nullptr;
    Result<EstimateResponse> result = [&]() -> Result<EstimateResponse> {
      // The waiter's own budget first: its cancel/deadline outcome is its
      // own regardless of how the leader fared.
      if (waiter.budget.exhausted()) {
        return MapCancelCause(
            waiter.budget.Check("serve " + call.resolved->workflow),
            call.caller_cancel, record);
      }
      if (leader_result.ok()) {
        EstimateResponse copy = leader_result.value();
        copy.estimate->coalesced = true;
        // The waiter's timing is its own: it waited from its submission to
        // this fulfilment and ran zero estimator states.
        copy.estimate->queue_wait_ms = (now_us - call.submit_us) * 1e-3;
        copy.estimate->service_ms = 0.0;
        return copy;
      }
      const ErrorCode code = leader_result.status().code();
      if (code == ErrorCode::kCancelled ||
          code == ErrorCode::kDeadlineExceeded) {
        // The leader died of its own budget (or the watchdog) — nothing
        // about the value itself. The waiter's own run would have carried
        // on, so resolve it retryable instead of inheriting the cancel.
        return Status::Unavailable(
                   "coalesced computation for " + call.resolved->workflow +
                   " was cancelled before completing: retry")
            .WithRetryAfterMs(RetryAfterHintMs());
      }
      // Deterministic failures (invalid input, state limits, breaker) would
      // be bit-identical on a re-run: propagate as-is.
      return leader_result.status();
    }();

    // A waiter is accounted like a normal request with zero execution: the
    // tenant EMA sees free work and its records carry its own wait.
    tenants_->OnExecuteStart(call.tenant);
    if (result.ok()) Metrics().path_coalesced.Add(1);
    if (record != nullptr) {
      record->start_us = now_us;
      if (result.ok()) record->path = obs::RequestPath::kCoalesced;
    }
    Finish(call, std::move(result), 0.0);
  }
}

void EstimationService::Finish(Call& call, Result<EstimateResponse> result,
                               double exec_ms,
                               const std::shared_ptr<CoalesceGroup>& group) {
  if (call.admitted) {
    // Execution time only (not queue wait): the EMA this feeds prices the
    // tenant's future admissions, and waiting is not the tenant's cost.
    tenants_->OnDone(call.tenant, result.ok(), exec_ms);
    if (result.ok()) {
      completed_.fetch_add(1, std::memory_order_relaxed);
      Metrics().completed.Add(1);
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
      Metrics().failed.Add(1);
    }
  }
  if (call.observe) {
    obs::RequestRecord& record = call.record;
    record.end_us = obs::MonotonicUs();
    const ErrorCode code = result.status().code();
    if (!call.admitted) {
      // Synchronous rejections (draining / shed) still leave a record:
      // error rates and the flight recorder must see the requests that
      // never ran.
      record.start_us = record.end_us;
      record.shed = code == ErrorCode::kResourceExhausted;
    }
    record.ok = result.ok();
    record.outcome_code = static_cast<std::uint8_t>(code);
    record.deadline_met =
        !record.had_deadline || code != ErrorCode::kDeadlineExceeded;
    flight_.Record(record);
    slo_.RecordOutcome(obs::OpClassFor(record.op), record.total_us() * 1e-3,
                       record.ok, record.had_deadline, record.deadline_met);
  }
  if (call.admitted) ReleaseSlot();
  // Waiters resolve before the leader's own callback: attached requests
  // were submitted earlier and should not queue behind the leader's
  // continuation.
  if (group != nullptr) FulfillWaiters(group, result);
  call.done(std::move(result));
}

void EstimationService::SubmitImpl(
    EstimateRequest request,
    std::function<void(Result<EstimateResponse>)> done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Metrics().submitted.Add(1);

  Call call;
  call.done = std::move(done);
  // Request observability is armed with the metrics flag: when off, the
  // record stays a dead object and every recording site is skipped — the
  // disarmed cost is this one relaxed load (plus the zero-init).
  call.observe = obs::MetricsEnabled();
  if (call.observe) {
    call.record.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    call.record.set_op(request.is_sweep()  ? "sweep"
                       : request.explain ? "explain"
                                         : "estimate");
    call.record.set_workflow(request.workflow);
    call.record.set_cluster(request.cluster);
    call.record.submit_us = obs::MonotonicUs();
  }

  // Shared lock: many Submits run concurrently; Drain's unique lock ensures
  // no Submit is between the draining check and the pool enqueue when the
  // pool starts waiting.
  std::shared_lock admission(admission_mutex_);
  if (draining_.load(std::memory_order_acquire)) {
    Finish(call, Status::FailedPrecondition("service is draining"), 0.0);
    return;
  }
  call.tenant = TenantRegistry::Canonical(request.tenant);
  call.resolved = Resolve(request);
  if (call.observe && call.resolved.ok()) {
    call.record.set_workflow(call.resolved->workflow);
    call.record.set_cluster(call.resolved->cluster->name);
  }
  if (Status admitted = Admit(call, request); !admitted.ok()) {
    Finish(call, std::move(admitted), 0.0);
    return;
  }
  call.admitted = true;

  if (options_.default_deadline_seconds > 0 && request.budget.deadline.never()) {
    request.budget.deadline =
        Deadline::AfterSeconds(options_.default_deadline_seconds);
  }
  call.record.had_deadline = !request.budget.deadline.never();
  call.caller_cancel = request.budget.cancel;

  // Singleflight: attach to an identical in-flight computation instead of
  // queueing a duplicate. The waiter keeps its admission slot (it is real
  // load until answered) but never takes a pool task — the leader's worker
  // resolves it. Skipped under brownout: degraded answers are shaped by the
  // ladder level at execution time, which identical requests submitted at
  // different moments need not share. A sweep has no coalesce key.
  std::shared_ptr<CoalesceGroup> group;
  if (request.coalesce && (overload_ == nullptr || overload_->level() == 0)) {
    std::string key = CoalesceKey(request, call.resolved);
    if (!key.empty()) {
      std::lock_guard<std::mutex> lock(coalesce_mutex_);
      auto it = coalesce_.find(key);
      if (it != coalesce_.end()) {
        CoalesceGroup::Waiter waiter;
        waiter.budget.cancel =
            CancelToken::LinkedTo({call.caller_cancel, shutdown_cancel_});
        waiter.budget.deadline = request.budget.deadline;
        call.submit_us = obs::MonotonicUs();
        it->second->member_cancels.push_back(call.caller_cancel);
        waiter.call = std::move(call);
        it->second->waiters.push_back(std::move(waiter));
        coalesce_attached_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      group = std::make_shared<CoalesceGroup>();
      group->key = std::move(key);
      group->member_cancels.push_back(call.caller_cancel);
      coalesce_.emplace(group->key, group);
    }
  }

  // Request-scoped token: what the watchdog fires and the execution polls.
  // An uncoalesced request observes its caller's cancel and the service-wide
  // shutdown signal; a coalesce leader computes for the whole group, so it
  // observes the group-abandon signal (all members cancelled) instead of its
  // own caller alone. Cancelling the execution token never propagates to
  // the caller's token, so MapCancelCause can still tell the signals apart.
  request.budget.cancel = CancelToken::LinkedTo(
      {group != nullptr ? group->abandon : call.caller_cancel,
       shutdown_cancel_});
  // Only single estimates are watched: a sweep is many estimates, each
  // already bounded by the shared budget.
  std::uint64_t watch_id = 0;
  if (watchdog_ != nullptr && !request.is_sweep() &&
      !request.budget.deadline.never()) {
    watch_id = watchdog_->Watch(
        request.budget.cancel,
        request.budget.deadline.remaining_seconds() * options_.watchdog_multiple);
  }

  call.submit_us = obs::MonotonicUs();
  pool_->Submit([this, request = std::move(request), call = std::move(call),
                 watch_id, group]() mutable {
    tenants_->OnExecuteStart(call.tenant);
    const double start_us = obs::MonotonicUs();
    if (call.observe) call.record.start_us = start_us;
    // Feed the overload controller the queue sojourn every dequeued request
    // observed — including ones about to expire; their wait is exactly the
    // signal the controller exists to see.
    if (overload_ != nullptr) {
      overload_->ObserveSojourn((start_us - call.submit_us) * 1e-3, start_us);
    }
    Result<EstimateResponse> result =
        request.is_sweep() ? ExecuteSweep(request, call, start_us)
                           : Execute(request, call, start_us, group);
    const double exec_ms = (obs::MonotonicUs() - start_us) * 1e-3;
    if (watch_id != 0) watchdog_->Unwatch(watch_id);
    Finish(call, std::move(result), exec_ms, group);
  });
}

std::future<Result<EstimateResponse>> EstimationService::Submit(
    EstimateRequest request) {
  auto promise = std::make_shared<std::promise<Result<EstimateResponse>>>();
  std::future<Result<EstimateResponse>> future = promise->get_future();
  SubmitImpl(std::move(request), [promise](Result<EstimateResponse> result) {
    promise->set_value(std::move(result));
  });
  return future;
}

void EstimationService::ResetWarmState() {
  checkpoints_.Clear();
  stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  Metrics().reset_epoch.Add(1);
  // Re-set the queue-depth gauge: drain-path sheds can leave it at a stale
  // depth.
  Metrics().queue_depth.Set(queue_depth_.load(std::memory_order_relaxed));
}

Status EstimationService::SaveSnapshot(const std::string& path) {
  SnapshotStats snapshot_stats;
  Status status = SaveWarmSnapshot(path, checkpoints_, &snapshot_stats);
  if (status.ok()) {
    static obs::Counter& saves =
        obs::MetricsRegistry::Default().GetCounter("service.snapshot_saves");
    saves.Add(1);
    flight_.AddEvent("snapshot",
                     "saved " + std::to_string(snapshot_stats.checkpoints) +
                         " checkpoints (" +
                         std::to_string(snapshot_stats.bytes) + " bytes)");
  } else {
    flight_.AddEvent("snapshot", "save failed: " + status.message());
  }
  return status;
}

Status EstimationService::LoadSnapshot(const std::string& path) {
  SnapshotStats snapshot_stats;
  Status status = LoadWarmSnapshot(path, &checkpoints_, &snapshot_stats);
  if (status.ok()) {
    static obs::Counter& loads =
        obs::MetricsRegistry::Default().GetCounter("service.snapshot_loads");
    loads.Add(1);
    flight_.AddEvent("snapshot",
                     "restored " + std::to_string(snapshot_stats.checkpoints) +
                         " checkpoints");
  } else {
    flight_.AddEvent("snapshot", "restore rejected: " + status.message());
  }
  return status;
}

Status EstimationService::LoadSnapshotForScope(const std::string& path,
                                               const std::string& scope) {
  {
    std::shared_lock lock(registry_mutex_);
    if (std::none_of(clusters_.begin(), clusters_.end(),
                     [&scope](const auto& named) {
                       return named.second->scope == scope;
                     })) {
      // A shard must not warm up state it cannot serve: keys for an
      // unregistered scope would sit dead in the store forever.
      const Status status = Status::NotFound(
          "snapshot scope '" + scope + "' is not registered on this service");
      flight_.AddEvent("snapshot", "scoped restore rejected: " +
                                       status.message());
      return status;
    }
  }
  SnapshotStats snapshot_stats;
  Status status =
      LoadWarmSnapshotForScope(path, scope, &checkpoints_, &snapshot_stats);
  if (status.ok()) {
    static obs::Counter& loads =
        obs::MetricsRegistry::Default().GetCounter("service.snapshot_loads");
    loads.Add(1);
    flight_.AddEvent("snapshot", "restored scope '" + scope + "': " +
                                     std::to_string(snapshot_stats.checkpoints) +
                                     " checkpoints");
  } else {
    flight_.AddEvent("snapshot",
                     "scoped restore rejected: " + status.message());
  }
  return status;
}

Result<int> EstimationService::Drain() {
  {
    // Unique lock: every in-flight Submit finishes its pool enqueue before
    // the flag flips, so Wait() below observes all of them and the
    // ThreadPool "no Submit after Wait" contract holds.
    std::unique_lock admission(admission_mutex_);
    draining_.store(true, std::memory_order_release);
  }
  const int inflight = queue_depth_.load(std::memory_order_acquire);
  pool_->Wait();
  if (!drain_reset_done_.exchange(true, std::memory_order_acq_rel)) {
    flight_.AddEvent("drain", "pool quiesced with " +
                                  std::to_string(inflight) +
                                  " in flight; warm state reset");
    // Snapshot before the reset wipes the warmth — best-effort: a failed
    // save is a flight event and a cold next boot, never a failed drain.
    if (!options_.snapshot_path.empty()) {
      (void)SaveSnapshot(options_.snapshot_path);
    }
    ResetWarmState();
  }
  return inflight;
}

EstimationService::ShutdownReport EstimationService::Shutdown(
    double grace_seconds) {
  ShutdownReport report;
  const double start_us = obs::MonotonicUs();
  {
    // Same ordering contract as Drain: every in-flight Submit finishes its
    // pool enqueue before the flag flips.
    std::unique_lock admission(admission_mutex_);
    draining_.store(true, std::memory_order_release);
  }
  report.inflight_at_shutdown = queue_depth_.load(std::memory_order_acquire);
  const Deadline grace = Deadline::AfterSeconds(std::max(0.0, grace_seconds));
  while (queue_depth_.load(std::memory_order_acquire) > 0 && !grace.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  report.cancelled = queue_depth_.load(std::memory_order_acquire);
  report.graceful = report.cancelled == 0;
  if (!report.graceful) {
    // Grace expired with work still running: fire the service-wide token.
    // Every remaining request unwinds at its next budget poll and its
    // future resolves (via MapCancelCause) to UNAVAILABLE{retryable}.
    shutdown_cancel_.Cancel();
  }
  pool_->Wait();
  report.waited_seconds = (obs::MonotonicUs() - start_us) * 1e-6;
  if (!drain_reset_done_.exchange(true, std::memory_order_acq_rel)) {
    flight_.AddEvent("shutdown",
                     report.graceful
                         ? "graceful: all in-flight work drained"
                         : "grace expired: cancelled " +
                               std::to_string(report.cancelled) + " request" +
                               (report.cancelled == 1 ? "" : "s"));
    if (!options_.snapshot_path.empty()) {
      (void)SaveSnapshot(options_.snapshot_path);
    }
    ResetWarmState();
  }
  return report;
}

ServiceStats EstimationService::Stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  stats.watchdog_fired = watchdog_fired_.load(std::memory_order_relaxed);
  stats.stats_epoch = stats_epoch_.load(std::memory_order_relaxed);
  stats.coalesce_leaders = coalesce_leaders_.load(std::memory_order_relaxed);
  stats.coalesce_attached = coalesce_attached_.load(std::memory_order_relaxed);
  stats.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  stats.draining = draining_.load(std::memory_order_relaxed);
  stats.ready = !stats.draining;
  stats.shard_id = options_.shard_id;
  {
    std::shared_lock lock(registry_mutex_);
    stats.workflows = static_cast<int>(workflows_.size());
    stats.clusters = static_cast<int>(clusters_.size());
  }
  stats.incremental = checkpoints_.stats();
  stats.tenants = tenants_->Stats();
  if (overload_ != nullptr) {
    const resilience::OverloadController::Stats overload = overload_->stats();
    stats.overload_level = overload.level;
    stats.overload_shed = overload.shed;
  }
  return stats;
}

}  // namespace dagperf
