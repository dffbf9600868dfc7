#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <mutex>
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
  obs::Counter& served_inline;
  /// Per-request cost-class attribution: how each served request got its
  /// answer — full replay or checkpoint resume.
  obs::Counter& path_full_replay;
  obs::Counter& path_incremental;
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
        served_inline(obs::MetricsRegistry::Default().GetCounter(
            "service.served_inline")),
        path_full_replay(obs::MetricsRegistry::Default().GetCounter(
            "service.path.full_replay")),
        path_incremental(obs::MetricsRegistry::Default().GetCounter(
            "service.path.incremental")),
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
/// estimator-path failures, so chaos tests and bench_resilience can drive
/// the error paths, the protocol's retryable flag and slot conservation.
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

}  // namespace

/// One submitted request's bookkeeping, from submission to its answer.
struct EstimationService::Call {
  std::function<void(Result<EstimateResponse>)> done;
  /// Canonical tenant name (TenantRegistry::Canonical).
  std::string tenant;
  /// Resolved once at submission; every later step reads this.
  Resolved resolved;
  obs::RequestRecord record;
  /// Request observability was armed at submission (obs::MetricsEnabled).
  bool observe = false;
  /// Holds an admission slot (global + tenant) until Finish releases it.
  bool admitted = false;
  /// The brownout level read once at submission: admission sheds at it,
  /// `global_fp` is built at it, and a warm request runs at it.
  int level = 0;
  /// Single estimates only (ProbeWarm): the global checkpoint fingerprint
  /// of the options the request runs with at `level`, and whether the store
  /// held the complete result under it. A warm request is a copy, so it
  /// runs on the submitting thread instead of the pool.
  std::string global_fp;
  bool warm = false;
  double submit_us = 0.0;
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
  TenantRegistry::Options tenant_options;
  tenant_options.capacity_slots = options_.max_queue_depth;
  tenants_ = std::make_unique<TenantRegistry>(tenant_options);
  if (options_.overload_target_sojourn_ms > 0) {
    resilience::OverloadOptions overload_options = options_.overload;
    overload_options.target_sojourn_ms = options_.overload_target_sojourn_ms;
    overload_ =
        std::make_unique<resilience::OverloadController>(overload_options);
    // Ladder transitions into the flight recorder: the overload gauge only
    // shows the current level, but a post-mortem needs the
    // escalation/recovery sequence with its timing.
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

void EstimationService::ProbeWarm(const EstimateRequest& request,
                                  Call& call) const {
  if (request.is_sweep()) return;
  // Warm means the store holds the complete answer under the exact key the
  // request would run with now: the estimate is then a copy.
  const EffectiveInputs effective =
      Effective(request, *call.resolved.cluster, call.level);
  PrefixCheckpointStore::AppendGlobalFingerprint(
      effective.options.checkpoint_scope, effective.spec, options_.scheduler,
      effective.options, &call.global_fp);
  call.warm = checkpoints_.HoldsCompleteResult(*call.resolved.flow,
                                               call.global_fp);
}

EstimationService::CostClass EstimationService::ClassifyCost(
    const EstimateRequest& request, const Call& call) const {
  if (request.is_sweep()) return CostClass::kExpensive;
  if (call.warm) return CostClass::kWarm;
  return call.resolved.flow->num_jobs() >= options_.expensive_job_threshold
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
  // sheds nothing; the classification reuses the submission's warm probe.
  const CostClass cost = ClassifyCost(request, call);
  if (call.level >= 1 && overload_->ShouldShed(cost == CostClass::kWarm,
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
    const EstimateRequest& request, Call& call, double start_us) {
  obs::RequestRecord* record = call.observe ? &call.record : nullptr;
  // A queued request runs at the level current when it starts. An inline
  // one runs at the level its warm probe used: the store holds its complete
  // result under that key, and a level moved in between would turn the copy
  // into a cold estimate on the submitting thread, outside the pool's bound.
  int brownout = call.level;
  if (!call.warm) brownout = overload_ != nullptr ? overload_->level() : 0;
  // A request can spend its whole budget waiting in the queue; detect that
  // here so an expired request costs a check, not an estimate.
  if (request.budget.exhausted()) {
    Status status = request.budget.Check("serve " + request.workflow);
    if (status.code() == ErrorCode::kDeadlineExceeded) {
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      Metrics().expired_in_queue.Add(1);
      if (record != nullptr) record->expired_in_queue = true;
    }
    return MapCancelCause(status);
  }

  const Resolved& resolved = call.resolved;
  const std::string& workflow_name = resolved.workflow;
  const ClusterEntry& entry = *resolved.cluster;

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

  // Checkpoints this run stores are keyed by the options it runs with, at
  // `brownout`. Degraded answers are tagged below so clients can re-query
  // later.
  EffectiveInputs effective = Effective(request, entry, brownout);
  effective.options.budget = request.budget;
  // Submission already fingerprinted these options for its warm probe;
  // reuse the bytes unless the level moved in between.
  if (brownout == call.level) {
    effective.options.checkpoint_global_fp = &call.global_fp;
  }
  // The warm path: the estimator resumes recurring workflows from the
  // service-lifetime checkpoint store.
  effective.options.checkpoints = &checkpoints_;
  const StateBasedEstimator estimator(effective.spec, options_.scheduler,
                                      effective.options);
  Result<DagEstimate> estimate =
      estimator.Estimate(*resolved.flow, *entry.source);
  if (!estimate.ok()) {
    Status status = estimate.status();
    // A brownout state cap is the server's doing, not the workflow's:
    // rewrite the estimator's kInternal into retryable RESOURCE_EXHAUSTED
    // (with a retry hint), so the client knows the same request can
    // succeed once the server recovers.
    if (brownout >= 2 && status.code() == ErrorCode::kInternal &&
        status.message().find("state limit exceeded") != std::string::npos) {
      return Status::ResourceExhausted(
                 "brownout (level " + std::to_string(brownout) +
                 ") state cap hit for " + workflow_name +
                 ": retry when the server recovers")
          .WithRetryAfterMs(RetryAfterHintMs());
    }
    return MapCancelCause(status);
  }

  EstimateResponse response;
  WorkflowEstimate& served = response.estimate.emplace();
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
  return response;
}

Result<EstimateResponse> EstimationService::ExecuteSweep(
    const EstimateRequest& request, Call& call, double start_us) {
  const Resolved& resolved = call.resolved;
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

Status EstimationService::MapCancelCause(const Status& status) const {
  if (status.code() == ErrorCode::kCancelled && shutdown_cancel_.cancelled()) {
    return Status::Unavailable(
        "service shut down before completion: retry against a healthy server");
  }
  return status;
}

void EstimationService::Finish(Call& call, Result<EstimateResponse> result,
                               double exec_ms) {
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
      // Synchronous rejections (draining / unresolvable / shed) still leave
      // a record: error rates and the flight recorder must see the requests
      // that never ran.
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
  // no Submit is between the draining check and the pool enqueue (or inside
  // an inline run) when the pool starts waiting.
  std::shared_lock admission(admission_mutex_);
  if (draining_.load(std::memory_order_acquire)) {
    Finish(call, Status::FailedPrecondition("service is draining"), 0.0);
    return;
  }
  call.tenant = TenantRegistry::Canonical(request.tenant);
  // An unresolvable name is the client's error and costs a registry probe:
  // it is answered here, before admission, so it holds no slot, takes no
  // pool task and feeds no tenant accounting. It still counts as failed.
  Result<Resolved> resolved = Resolve(request);
  if (!resolved.ok()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    Metrics().failed.Add(1);
    Finish(call, resolved.status(), 0.0);
    return;
  }
  call.resolved = std::move(resolved).value();
  if (call.observe) {
    call.record.set_workflow(call.resolved.workflow);
    call.record.set_cluster(call.resolved.cluster->name);
  }
  call.level = overload_ != nullptr ? overload_->level() : 0;
  ProbeWarm(request, call);
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

  // Request-scoped token, what the estimator polls: it observes the
  // caller's cancel and the service-wide shutdown signal. Firing shutdown
  // never propagates to the caller's token.
  request.budget.cancel =
      CancelToken::LinkedTo({request.budget.cancel, shutdown_cancel_});

  call.submit_us = obs::MonotonicUs();
  // Where the request runs, decided once: a warm estimate is a copy of a
  // stored result, cheaper than the two thread hand-offs the pool would add
  // around it, so it runs to completion here (still under the shared
  // admission lock, which a drain waits out). Everything else queues.
  if (call.warm) {
    served_inline_.fetch_add(1, std::memory_order_relaxed);
    Metrics().served_inline.Add(1);
    if (call.observe) call.record.served_inline = true;
    Run(request, call);
    return;
  }
  pool_->Submit([this, request = std::move(request),
                 call = std::move(call)]() mutable { Run(request, call); });
}

void EstimationService::Run(const EstimateRequest& request, Call& call) {
  tenants_->OnExecuteStart(call.tenant);
  const double start_us = obs::MonotonicUs();
  if (call.observe) call.record.start_us = start_us;
  // Feed the overload controller the queue sojourn every dequeued request
  // observed — including ones about to expire; their wait is exactly the
  // signal the controller exists to see. An inline answer never queued: its
  // zero sojourns would pin each interval's minimum at 0 and hide a
  // standing cold backlog, so it feeds nothing.
  if (overload_ != nullptr && !call.warm) {
    overload_->ObserveSojourn((start_us - call.submit_us) * 1e-3, start_us);
  }
  Result<EstimateResponse> result = request.is_sweep()
                                        ? ExecuteSweep(request, call, start_us)
                                        : Execute(request, call, start_us);
  const double exec_ms = (obs::MonotonicUs() - start_us) * 1e-3;
  Finish(call, std::move(result), exec_ms);
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
  stats.served_inline = served_inline_.load(std::memory_order_relaxed);
  stats.stats_epoch = stats_epoch_.load(std::memory_order_relaxed);
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
