#ifndef DAGPERF_SERVICE_REQUEST_H_
#define DAGPERF_SERVICE_REQUEST_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "dag/dag_workflow.h"
#include "model/explain.h"
#include "model/state_estimator.h"
#include "model/sweep.h"

namespace dagperf {

/// The service's request/response vocabulary: one typed request
/// (EstimateRequest) that prices one configuration or sweeps a candidate
/// list, and one response union (EstimateResponse).

/// A served estimate: the model output plus resolved names and the
/// service-side timing the caller would otherwise have to measure.
struct WorkflowEstimate {
  DagEstimate estimate;
  /// Filled when EstimateRequest::explain was set.
  std::vector<CriticalSegment> critical_path;
  /// The flow that was estimated (registered or caller-supplied) — kept so
  /// renderers (protocol explain reports) can name jobs without a second
  /// registry lookup.
  std::shared_ptr<const DagWorkflow> flow;
  std::string workflow;
  std::string cluster;
  double queue_wait_ms = 0.0;
  double service_ms = 0.0;
  /// True when the answer was produced under brownout (level >= 1): the
  /// estimate is still the paper's model, but attribution may be absent and
  /// the state budget may have been capped. Wire field "degraded".
  bool degraded = false;
  /// Brownout ladder level the request executed at (0 = healthy).
  int degrade_level = 0;
};

/// A served cluster-size sweep (capacity planning): one estimate per
/// requested node count, priced on one service turn.
struct ServiceSweepResult {
  SweepResult sweep;
  std::vector<int> nodes_list;
  std::string workflow;
  std::string cluster;
  double service_ms = 0.0;
};

/// One estimate query. A request starts from a workflow (registered name
/// or inline flow) and is refined by chaining; calling SweepNodes with a
/// non-empty list makes it a sweep. The fields are what the service reads.
///
///   auto response = service.Submit(
///       EstimateRequest::For("daily-etl").OnCluster("prod")
///           .WithDeadline(0.5).WithExplain());
struct EstimateRequest {
  /// A request against a registered workflow name.
  static EstimateRequest For(std::string workflow) {
    EstimateRequest request;
    request.workflow = std::move(workflow);
    return request;
  }

  /// A request carrying its own workflow (shared ownership: the flow must
  /// stay alive for the async execution, and shared_ptr makes that so).
  static EstimateRequest For(std::shared_ptr<const DagWorkflow> flow) {
    EstimateRequest request;
    request.flow = std::move(flow);
    return request;
  }

  EstimateRequest& OnCluster(std::string name) {
    cluster = std::move(name);
    return *this;
  }

  EstimateRequest& AsTenant(std::string name) {
    tenant = std::move(name);
    return *this;
  }

  EstimateRequest& WithNodes(int count) {
    nodes = count;
    return *this;
  }

  /// Sweep mode: price every node count in `list`. A non-empty list makes
  /// this request a sweep (EstimateResponse::sweep is filled).
  EstimateRequest& SweepNodes(std::vector<int> list) {
    nodes_list = std::move(list);
    return *this;
  }

  /// Deadline `seconds` from submission (<= 0 keeps the budget's deadline).
  EstimateRequest& WithDeadline(double seconds) {
    if (seconds > 0) budget.deadline = Deadline::AfterSeconds(seconds);
    return *this;
  }

  EstimateRequest& WithCancel(CancelToken cancel) {
    budget.cancel = std::move(cancel);
    return *this;
  }

  EstimateRequest& WithExplain(bool value = true) {
    explain = value;
    return *this;
  }

  /// Whether SweepNodes was given candidates: decides which half of the
  /// response the service fills.
  bool is_sweep() const { return !nodes_list.empty(); }

  /// Exactly one of `workflow` (a registered name) or `flow` must be set.
  std::string workflow;
  std::shared_ptr<const DagWorkflow> flow;

  /// Registered cluster name; empty selects "default".
  std::string cluster;

  /// Tenant the request is accounted and fair-shared under (wire field
  /// "tenant"); empty selects "default". See service/tenancy.h.
  std::string tenant;

  /// When > 0, overrides the cluster's node count for this request only.
  /// Cheap: node hardware (and thus the BOE model and checkpoint scope) is
  /// unchanged; the node count is part of every checkpoint key.
  int nodes = 0;

  std::vector<int> nodes_list;

  /// Per-request budget; merged with the service's default deadline. Polled
  /// at admission, at dequeue (a request can expire while queued), and per
  /// estimator state.
  Budget budget;

  /// Attribute bottlenecks and derive the critical path (explain verb).
  bool explain = false;
};

/// What Submit resolves to: exactly one of the two members is
/// engaged, matching EstimateRequest::is_sweep() of the request that
/// produced it.
struct EstimateResponse {
  std::optional<WorkflowEstimate> estimate;
  std::optional<ServiceSweepResult> sweep;

  bool is_sweep() const { return sweep.has_value(); }
};

}  // namespace dagperf

#endif  // DAGPERF_SERVICE_REQUEST_H_
