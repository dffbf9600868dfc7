#include "layers.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "boe/boe_model.h"
#include "cluster/cluster_spec.h"
#include "common/json.h"
#include "dag/spec_io.h"
#include "dag/validate.h"
#include "model/incremental.h"
#include "model/state_estimator.h"
#include "model/sweep.h"
#include "model/task_time_cache.h"
#include "model/task_time_source.h"
#include "service/protocol.h"
#include "service/service.h"
#include "workloads/suite.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using dagperf::DagWorkflow;
using dagperf::Json;

double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

// The BOE source `dagperf serve` prices its default cluster with.
struct BoeSource {
  dagperf::BoeModel model{dagperf::ClusterSpec::PaperCluster().node};
  dagperf::BoeTaskTimeSource source{model, dagperf::Duration::Seconds(1)};
};

dagperf::ClusterSpec ClusterWith(int nodes) {
  dagperf::ClusterSpec spec = dagperf::ClusterSpec::PaperCluster();
  spec.num_nodes = nodes;
  return spec;
}

double DirectMakespan(const DagWorkflow& flow, int nodes,
                      const dagperf::TaskTimeSource& source) {
  const dagperf::StateBasedEstimator estimator(ClusterWith(nodes),
                                               dagperf::SchedulerConfig{});
  dagperf::Result<dagperf::DagEstimate> estimate = estimator.Estimate(flow, source);
  return estimate.ok() ? estimate.value().makespan.seconds() : std::nan("");
}

const std::vector<DagWorkflow>& SuiteFlows() {
  static const std::vector<DagWorkflow> flows = [] {
    std::vector<DagWorkflow> out;
    dagperf::Result<std::vector<dagperf::NamedFlow>> suite =
        dagperf::TableThreeSuite(1.0);
    for (dagperf::NamedFlow& f : suite.value()) {
      out.push_back(std::move(f.flow));
    }
    return out;
  }();
  return flows;
}

std::shared_ptr<const DagWorkflow> InlineFlow(const std::string& line) {
  dagperf::Result<Json> parsed = Json::Parse(line);
  if (!parsed.ok() || parsed.value().Get("flow") == nullptr) return nullptr;
  dagperf::Result<DagWorkflow> flow =
      dagperf::WorkflowFromJson(*parsed.value().Get("flow"));
  if (!flow.ok()) return nullptr;
  return std::make_shared<const DagWorkflow>(std::move(flow).value());
}

// Times every task-time query of the estimator it wraps.
class TimingSource : public dagperf::TaskTimeSource {
 public:
  explicit TimingSource(const dagperf::TaskTimeSource& base) : base_(base) {}

  dagperf::Duration TaskTime(const dagperf::EstimationContext& context) const override {
    const Clock::time_point t0 = Clock::now();
    const dagperf::Duration d = base_.TaskTime(context);
    us_ += UsSince(t0);
    ++calls_;
    return d;
  }
  dagperf::NormalParams TaskTimeDist(
      const dagperf::EstimationContext& context) const override {
    const Clock::time_point t0 = Clock::now();
    const dagperf::NormalParams p = base_.TaskTimeDist(context);
    us_ += UsSince(t0);
    ++calls_;
    return p;
  }
  std::optional<dagperf::TaskAttribution> Attribution(
      const dagperf::EstimationContext& context) const override {
    return base_.Attribution(context);
  }

  double us() const { return us_; }
  std::uint64_t calls() const { return calls_; }
  void Reset() {
    us_ = 0.0;
    calls_ = 0;
  }

 private:
  const dagperf::TaskTimeSource& base_;
  mutable double us_ = 0.0;
  mutable std::uint64_t calls_ = 0;
};

// An in-process service set up like `dagperf serve --threads 2`.
std::unique_ptr<dagperf::EstimationService> MakeService() {
  dagperf::ServiceOptions options;
  options.threads = 2;
  auto service = std::make_unique<dagperf::EstimationService>(options);
  for (std::size_t i = 0; i < SuiteFlows().size(); ++i) {
    (void)service->RegisterWorkflow(SuiteNames()[i], SuiteFlows()[i]);
  }
  return service;
}

dagperf::EstimateRequest Lower(const Request& r,
                               std::shared_ptr<const DagWorkflow> inline_flow) {
  dagperf::EstimateRequest req =
      inline_flow != nullptr ? dagperf::EstimateRequest::For(std::move(inline_flow))
                             : dagperf::EstimateRequest::For(SuiteNames()[r.flow]);
  if (r.window > 0) {
    std::vector<int> nodes;
    for (int k = 0; k < r.window; ++k) nodes.push_back(r.nodes + k);
    req.SweepNodes(std::move(nodes));
  } else {
    req.WithNodes(r.nodes);
  }
  return req;
}

}  // namespace

std::size_t VerifyAnswers(const Workload& workload, const LoadResult& load,
                          int threads, std::string* first_mismatch) {
  const BoeSource boe;
  // Named flows: one reference per (flow, nodes) key.
  std::map<std::pair<int, int>, double> named;
  if (!workload.inline_flow) {
    for (std::size_t i = 0; i < load.ops.size(); ++i) {
      const Request& r = workload.requests[i];
      if (load.ops[i].state != OpState::kOk) continue;
      for (int k = 0; k < std::max(1, r.window); ++k) {
        named.emplace(std::make_pair(r.flow, r.nodes + k), 0.0);
      }
    }
    for (auto& [key, value] : named) {
      value = DirectMakespan(SuiteFlows()[key.first], key.second, boe.source);
    }
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> mismatches{0};
  std::mutex first_mutex;
  const auto check = [&](std::size_t i) {
    const Request& r = workload.requests[i];
    const OpRecord& op = load.ops[i];
    if (op.state != OpState::kOk) return;
    std::string why;
    if (workload.inline_flow) {
      std::shared_ptr<const DagWorkflow> flow = InlineFlow(r.line);
      const double want =
          flow != nullptr ? DirectMakespan(*flow, r.nodes, boe.source) : std::nan("");
      if (!SameBits(want, op.makespan_s)) {
        why = "cold request " + std::to_string(i);
      }
    } else if (r.window > 0) {
      for (int k = 0; k < r.window; ++k) {
        const CandidateAnswer& c = load.candidates[op.first_candidate + k];
        const double want = named.at({r.flow, r.nodes + k});
        if (!c.ok || !SameBits(want, c.makespan_s)) {
          why = "sweep request " + std::to_string(i) + " candidate " +
                std::to_string(r.nodes + k);
          break;
        }
      }
    } else if (!SameBits(named.at({r.flow, r.nodes}), op.makespan_s)) {
      why = "request " + std::to_string(i) + " (" + SuiteNames()[r.flow] + ", " +
            std::to_string(r.nodes) + " nodes)";
    }
    if (!why.empty()) {
      if (mismatches.fetch_add(1) == 0) {
        std::lock_guard<std::mutex> lock(first_mutex);
        *first_mismatch = why + " differs from the direct estimate";
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = cursor.fetch_add(1)) < load.ops.size();) {
        check(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return mismatches.load();
}

std::map<std::string, double> ProbeLayers(const Workload& workload,
                                          const LoadResult& load,
                                          std::size_t sample,
                                          dagperf::obs::TraceRecorder* trace) {
  // Two services see the same stream in the same order, so each call finds
  // the stores as warm as the other: one is driven through the protocol,
  // the other through Submit directly.
  std::unique_ptr<dagperf::EstimationService> via_protocol = MakeService();
  std::unique_ptr<dagperf::EstimationService> via_submit = MakeService();
  dagperf::Protocol protocol(via_protocol.get());
  for (const Request& r : workload.prime) {
    (void)protocol.HandleLine(r.line);
    (void)via_submit->Submit(Lower(r, nullptr)).get();
  }

  const BoeSource boe;
  TimingSource timed(boe.source);
  dagperf::TaskTimeMemo sweep_memo;
  dagperf::PrefixCheckpointStore sweep_checkpoints;

  std::vector<double> parse_us, handle_us, dump_us, submit_us, from_json_us,
      validate_us, estimate_us, self_us, task_time_us, calls, batch_us;
  // Runs `call` inside a span named after the public function it enters and
  // returns its wall time in microseconds.
  const auto timed_span = [trace](const char* name, const char* layer,
                                  const auto& call) {
    const Clock::time_point t0 = Clock::now();
    {
      dagperf::obs::ScopedSpan span(*trace, name, layer);
      call();
    }
    return UsSince(t0);
  };

  for (std::size_t i = 0; i < load.ops.size() && parse_us.size() < sample; ++i) {
    if (load.ops[i].state != OpState::kOk) continue;
    const Request& r = workload.requests[i];

    std::string answer;
    const double handled = timed_span("Protocol::HandleLine", "protocol",
                                      [&] { answer = protocol.HandleLine(r.line); });
    dagperf::Result<Json> answer_json = Json::Parse(answer);
    if (!answer_json.ok()) continue;
    const Json* result = answer_json.value().Get("result");
    const double waited_ms =
        result == nullptr ? 0.0
                          : result->GetNumber("queue_wait_ms", 0.0) +
                                result->GetNumber("service_ms", 0.0);
    handle_us.push_back(handled - waited_ms * 1e3);
    dump_us.push_back(timed_span("Json::DumpCompact", "protocol", [&] {
      answer = answer_json.value().DumpCompact();
    }));

    std::optional<dagperf::Result<Json>> request_json;
    parse_us.push_back(timed_span("Json::Parse", "protocol",
                                  [&] { request_json = Json::Parse(r.line); }));

    std::shared_ptr<const DagWorkflow> flow;
    if (workload.inline_flow) {
      std::optional<dagperf::Result<DagWorkflow>> parsed;
      from_json_us.push_back(timed_span("WorkflowFromJson", "dag", [&] {
        parsed = dagperf::WorkflowFromJson(*request_json->value().Get("flow"));
      }));
      if (!parsed->ok()) continue;
      flow = std::make_shared<const DagWorkflow>(std::move(*parsed).value());
      validate_us.push_back(timed_span("ValidateWorkflow", "dag", [&] {
        (void)dagperf::ValidateWorkflow(*flow);
      }));
    }

    submit_us.push_back(timed_span("EstimationService::Submit", "service", [&] {
      (void)via_submit->Submit(Lower(r, flow)).get();
    }));

    // The model layers without any store: every task time is computed.
    const DagWorkflow& direct_flow = flow != nullptr ? *flow : SuiteFlows()[r.flow];
    timed.Reset();
    const double estimated =
        timed_span("StateBasedEstimator::Estimate", "model.estimator", [&] {
          for (int k = 0; k < std::max(1, r.window); ++k) {
            (void)DirectMakespan(direct_flow, r.nodes + k, timed);
          }
        });
    estimate_us.push_back(estimated);
    task_time_us.push_back(timed.us());
    self_us.push_back(estimated - timed.us());
    calls.push_back(static_cast<double>(timed.calls()));

    if (r.window > 0) {
      std::vector<dagperf::SweepCandidate> candidates;
      for (int k = 0; k < r.window; ++k) {
        dagperf::SweepCandidate c;
        c.flow = &direct_flow;
        c.cluster = ClusterWith(r.nodes + k);
        candidates.push_back(std::move(c));
      }
      // Stores kept across requests, as the service keeps its own.
      dagperf::SweepOptions options;
      options.threads = 1;
      options.memo = &sweep_memo;
      options.checkpoints = &sweep_checkpoints;
      options.cache_scope = "default";
      batch_us.push_back(timed_span("EstimateBatch", "model.sweep", [&] {
        (void)dagperf::EstimateBatch(candidates, dagperf::SchedulerConfig{},
                                     boe.source, options);
      }));
    }
  }

  return {
      {"protocol.parse_us", Median(parse_us)},
      {"protocol.handle_us", Median(handle_us)},
      {"protocol.dump_us", Median(dump_us)},
      {"service.submit_us", Median(submit_us)},
      {"dag.from_json_us", Median(from_json_us)},
      {"dag.validate_us", Median(validate_us)},
      {"model.estimator.estimate_us", Median(estimate_us)},
      {"model.estimator.self_us", Median(self_us)},
      {"boe.task_time_us", Median(task_time_us)},
      {"boe.task_time_calls_per_op", Median(calls)},
      {"model.sweep.batch_us", Median(batch_us)},
      {"probe.requests", static_cast<double>(parse_us.size())},
  };
}

}  // namespace perfbench
