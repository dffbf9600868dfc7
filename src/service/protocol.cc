#include "service/protocol.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "dag/spec_io.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "workload/job_profile.h"

namespace dagperf {

namespace {

/// The error line {"error":{..},"id":..,"ok":false}, keys sorted.
std::string ErrorResponseWithCode(const Json* id, std::string_view code,
                                  bool retryable, std::string_view message,
                                  double retry_after_ms = 0.0) {
  std::string line;
  JsonWriter w(line);
  w.BeginObject().Key("error").BeginObject();
  w.Key("code").String(code).Key("message").String(message);
  // Server-paced backoff hint (overload / fair-share sheds). Emitted only
  // when the server actually set one, so existing error shapes are stable.
  if (retry_after_ms > 0) w.Key("retry_after_ms").Number(retry_after_ms);
  w.Key("retryable").Bool(retryable).EndObject();
  if (id != nullptr) w.Key("id").Value(*id);
  w.Key("ok").Bool(false).EndObject();
  return line;
}

std::string ErrorResponse(const Json* id, const Status& status) {
  return ErrorResponseWithCode(id, ErrorCodeName(status.code()),
                               IsRetryable(status.code()), status.message(),
                               status.retry_after_ms());
}

/// The explicit-null id for responses to lines that never yielded a request
/// object — clients matching pipelined replies by id see the slot consumed.
const Json& NullId() {
  static const Json* null_id = new Json();
  return *null_id;
}

/// The success line {"id":..,"ok":true,"result":..}, keys sorted;
/// `write_result` writes the result value.
template <typename WriteResult>
std::string OkResponseWith(const Json* id, const WriteResult& write_result) {
  std::string line;
  JsonWriter w(line);
  w.BeginObject();
  if (id != nullptr) w.Key("id").Value(*id);
  w.Key("ok").Bool(true).Key("result");
  write_result(w);
  w.EndObject();
  return line;
}

std::string OkResponse(const Json* id, const Json& result) {
  return OkResponseWith(id, [&result](JsonWriter& w) { w.Value(result); });
}

void WriteStageSpans(JsonWriter& w, const DagWorkflow& flow,
                     const DagEstimate& estimate) {
  w.BeginArray();
  for (const StageSpanEstimate& span : estimate.stages) {
    w.BeginObject()
        .Key("end_s").Number(span.end)
        .Key("job").String(flow.job(span.job).name)
        .Key("kind").String(StageKindName(span.kind))
        .Key("start_s").Number(span.start)
        .EndObject();
  }
  w.EndArray();
}

/// An estimate / explain result object, keys sorted.
void WriteEstimate(JsonWriter& w, const WorkflowEstimate& served, bool explain) {
  w.BeginObject();
  w.Key("cluster").String(served.cluster);
  if (explain) {
    w.Key("critical_path").BeginArray();
    for (const CriticalSegment& segment : served.critical_path) {
      w.BeginObject()
          .Key("duration_s").Number(segment.duration)
          .Key("job").String(served.flow->job(segment.job).name)
          .Key("kind").String(StageKindName(segment.kind))
          .Key("start_s").Number(segment.start)
          .EndObject();
    }
    w.EndArray();
  }
  // Brownout tag: the answer is still the paper's model, but attribution may
  // be absent and the state budget capped. Emitted only when set, so the
  // healthy response shape is unchanged.
  if (served.degraded) {
    w.Key("degrade_level").Number(served.degrade_level);
    w.Key("degraded").Bool(true);
  }
  w.Key("makespan_s").Number(served.estimate.makespan.seconds());
  w.Key("queue_wait_ms").Number(served.queue_wait_ms);
  w.Key("service_ms").Number(served.service_ms);
  w.Key("stages");
  WriteStageSpans(w, *served.flow, served.estimate);
  w.Key("states").Number(static_cast<double>(served.estimate.states.size()));
  w.Key("workflow").String(served.workflow);
  w.EndObject();
}

/// A sweep result object, keys sorted.
void WriteSweep(JsonWriter& w, const ServiceSweepResult& served) {
  const SweepStats& stats = served.sweep.stats;
  w.BeginObject();
  if (stats.best_index >= 0 &&
      stats.best_index < static_cast<int>(served.nodes_list.size())) {
    w.Key("best").BeginObject()
        .Key("makespan_s").Number(stats.best_makespan.seconds())
        .Key("nodes").Number(served.nodes_list[stats.best_index])
        .EndObject();
  }
  w.Key("candidates").BeginArray();
  for (std::size_t i = 0; i < served.sweep.estimates.size(); ++i) {
    const Result<DagEstimate>& estimate = served.sweep.estimates[i];
    w.BeginObject();
    if (estimate.ok()) {
      w.Key("makespan_s").Number(estimate.value().makespan.seconds());
    } else {
      w.Key("code").String(ErrorCodeName(estimate.status().code()));
      w.Key("message").String(estimate.status().message());
    }
    if (i < served.nodes_list.size()) {
      w.Key("nodes").Number(served.nodes_list[i]);
    }
    w.Key("ok").Bool(estimate.ok());
    w.EndObject();
  }
  w.EndArray();
  w.Key("cluster").String(served.cluster);
  w.Key("service_ms").Number(served.service_ms);
  w.Key("stats").BeginObject()
      .Key("cache_hit_rate").Number(stats.cache_hit_rate)
      .Key("cancelled").Number(stats.cancelled)
      .Key("completed").Number(stats.completed)
      .Key("deadline_exceeded").Number(stats.deadline_exceeded)
      .Key("failures").Number(stats.failures);
  w.Key("incremental").BeginObject()
      .Key("checkpoints_stored")
      .Number(static_cast<double>(stats.checkpoints_stored))
      .Key("prefix_hits").Number(static_cast<double>(stats.prefix_hits))
      .Key("prefix_misses").Number(static_cast<double>(stats.prefix_misses))
      .Key("resumed_states").Number(static_cast<double>(stats.resumed_states))
      .EndObject();
  w.EndObject();  // stats
  w.Key("workflow").String(served.workflow);
  w.EndObject();
}

Json StatsToJson(const ServiceStats& stats) {
  Json result = Json::MakeObject();
  result.Set("submitted", Json::MakeNumber(static_cast<double>(stats.submitted)));
  result.Set("completed", Json::MakeNumber(static_cast<double>(stats.completed)));
  result.Set("failed", Json::MakeNumber(static_cast<double>(stats.failed)));
  result.Set("shed", Json::MakeNumber(static_cast<double>(stats.shed)));
  result.Set("expired_in_queue",
             Json::MakeNumber(static_cast<double>(stats.expired_in_queue)));
  result.Set("served_inline",
             Json::MakeNumber(static_cast<double>(stats.served_inline)));
  result.Set("queue_depth", Json::MakeNumber(stats.queue_depth));
  result.Set("draining", Json::MakeBool(stats.draining));
  // Shard-mode fields: the router's health probes key readmission off
  // `ready`, and the stats fan-out attributes responses by `shard_id`
  // (only emitted when the process was launched with an identity).
  result.Set("ready", Json::MakeBool(stats.ready));
  if (!stats.shard_id.empty()) {
    result.Set("shard_id", Json::MakeString(stats.shard_id));
  }
  // Which warm-state epoch the incremental rates below belong to — bumped
  // whenever a drain resets the checkpoint store, so clients never mix
  // pre- and post-drain hit rates.
  result.Set("stats_epoch",
             Json::MakeNumber(static_cast<double>(stats.stats_epoch)));
  result.Set("workflows", Json::MakeNumber(stats.workflows));
  result.Set("clusters", Json::MakeNumber(stats.clusters));
  Json incremental = Json::MakeObject();
  incremental.Set("hits",
                  Json::MakeNumber(static_cast<double>(stats.incremental.hits)));
  incremental.Set(
      "misses", Json::MakeNumber(static_cast<double>(stats.incremental.misses)));
  incremental.Set(
      "inserts", Json::MakeNumber(static_cast<double>(stats.incremental.inserts)));
  incremental.Set(
      "resumed_states",
      Json::MakeNumber(static_cast<double>(stats.incremental.resumed_states)));
  incremental.Set(
      "entries", Json::MakeNumber(static_cast<double>(stats.incremental.entries)));
  incremental.Set(
      "bytes", Json::MakeNumber(static_cast<double>(stats.incremental.bytes)));
  incremental.Set("hit_rate", Json::MakeNumber(stats.incremental.hit_rate()));
  result.Set("incremental", std::move(incremental));
  Json tenants = Json::MakeArray();
  for (const TenantRegistry::TenantStats& tenant : stats.tenants) {
    Json t = Json::MakeObject();
    t.Set("name", Json::MakeString(tenant.name));
    t.Set("inflight", Json::MakeNumber(tenant.inflight));
    t.Set("queued", Json::MakeNumber(tenant.queued));
    t.Set("submitted",
          Json::MakeNumber(static_cast<double>(tenant.submitted)));
    t.Set("completed",
          Json::MakeNumber(static_cast<double>(tenant.completed)));
    t.Set("failed", Json::MakeNumber(static_cast<double>(tenant.failed)));
    t.Set("shed_total",
          Json::MakeNumber(static_cast<double>(tenant.shed_total)));
    t.Set("cpu_ms", Json::MakeNumber(tenant.cpu_ms));
    t.Set("ema_cost_ms", Json::MakeNumber(tenant.ema_cost_ms));
    tenants.Append(std::move(t));
  }
  result.Set("tenants", std::move(tenants));
  Json overload = Json::MakeObject();
  overload.Set("level", Json::MakeNumber(stats.overload_level));
  overload.Set("shed",
               Json::MakeNumber(static_cast<double>(stats.overload_shed)));
  result.Set("overload", std::move(overload));
  return result;
}

Json WindowReportToJson(const obs::SloTracker::WindowReport& w) {
  Json j = Json::MakeObject();
  j.Set("window_s", Json::MakeNumber(w.window_seconds));
  j.Set("count", Json::MakeNumber(static_cast<double>(w.count)));
  j.Set("errors", Json::MakeNumber(static_cast<double>(w.errors)));
  j.Set("rps", Json::MakeNumber(w.rps));
  j.Set("p50_ms", Json::MakeNumber(w.p50_ms));
  j.Set("p99_ms", Json::MakeNumber(w.p99_ms));
  j.Set("mean_ms", Json::MakeNumber(w.mean_ms));
  j.Set("error_rate", Json::MakeNumber(w.error_rate));
  j.Set("deadline_hit_rate", Json::MakeNumber(w.deadline_hit_rate));
  j.Set("frac_over_objective", Json::MakeNumber(w.frac_over_objective));
  j.Set("availability_burn", Json::MakeNumber(w.availability_burn));
  j.Set("latency_burn", Json::MakeNumber(w.latency_burn));
  return j;
}

Json SloReportToJson(const obs::SloTracker::Report& report) {
  Json result = Json::MakeObject();
  Json objectives = Json::MakeObject();
  objectives.Set("p99_ms", Json::MakeNumber(report.objectives.p99_ms));
  objectives.Set("availability",
                 Json::MakeNumber(report.objectives.availability));
  result.Set("objectives", std::move(objectives));
  Json total = Json::MakeArray();
  for (const auto& window : report.total) {
    total.Append(WindowReportToJson(window));
  }
  result.Set("total", std::move(total));
  Json by_class = Json::MakeObject();
  for (const auto& cls : report.by_class) {
    Json windows = Json::MakeArray();
    for (const auto& window : cls.windows) {
      windows.Append(WindowReportToJson(window));
    }
    by_class.Set(obs::OpClassName(cls.op), std::move(windows));
  }
  result.Set("by_class", std::move(by_class));
  return result;
}

/// Whether `value` is an integer in [lo, INT_MAX], checked before any cast
/// to int (casting an out-of-range double is undefined behaviour).
bool IntegerIn(double value, int lo) {
  return value >= lo && value <= std::numeric_limits<int>::max() &&
         value == std::floor(value);
}

/// Whether every number inside `value` is finite.
bool AllFinite(const Json& value) {
  switch (value.type()) {
    case Json::Type::kNumber:
      return std::isfinite(value.AsNumber());
    case Json::Type::kArray:
      for (const Json& element : value.AsArray()) {
        if (!AllFinite(element)) return false;
      }
      return true;
    case Json::Type::kObject:
      for (const auto& [key, member] : value.AsObject()) {
        if (!AllFinite(member)) return false;
      }
      return true;
    default:
      return true;
  }
}

}  // namespace

bool Protocol::ParseRequestLine(const std::string& line, Json* request,
                                std::string* error_line) {
  Result<Json> parsed = Json::Parse(line);
  if (!parsed.ok()) {
    // Malformed JSON is a protocol-level failure, not a service error: the
    // stable code PARSE_ERROR (never retryable — resending the same bytes
    // cannot help) with an explicit null id, so a pipelining client sees
    // the response slot consumed instead of a silent skip.
    *error_line = ErrorResponseWithCode(&NullId(), "PARSE_ERROR", false,
                                        parsed.status().message());
    return false;
  }
  if (parsed.value().type() != Json::Type::kObject) {
    *error_line =
        ErrorResponse(&NullId(),
                      Status::InvalidArgument("request must be a JSON object"));
    return false;
  }
  // The id is echoed verbatim; an infinite one (an overflowing literal such
  // as 1e400) has no JSON spelling, so the answer could not be parsed.
  if (const Json* id = parsed.value().Get("id");
      id != nullptr && !AllFinite(*id)) {
    *error_line = ErrorResponse(
        &NullId(), Status::InvalidArgument(
                       "\"id\" must not hold a number beyond the double range"));
    return false;
  }
  *request = std::move(parsed).value();
  return true;
}

namespace {

/// Reads the fields every estimate/explain/sweep line shares (workflow /
/// inline flow / cluster / tenant / budget) into `*out`. Returns non-Ok on
/// a malformed inline flow or field type.
Status FillRequestCommon(const Json& request, EstimateRequest* out) {
  out->workflow = request.GetString("workflow", "");
  out->cluster = request.GetString("cluster", "");
  out->tenant = request.GetString("tenant", "");
  if (const Json* inline_flow = request.Get("flow"); inline_flow != nullptr) {
    Result<DagWorkflow> parsed = WorkflowFromJson(*inline_flow);
    if (!parsed.ok()) return parsed.status();
    out->flow = std::make_shared<const DagWorkflow>(std::move(parsed).value());
  }
  if (out->workflow.empty() && out->flow == nullptr) {
    return Status::InvalidArgument(
        "request must carry \"workflow\" (a registered name) or an inline "
        "\"flow\" document");
  }
  if (!out->workflow.empty() && out->flow != nullptr) {
    return Status::InvalidArgument(
        "\"workflow\" and \"flow\" are mutually exclusive");
  }
  const double deadline_s = request.GetNumber("deadline_s", 0.0);
  if (deadline_s < 0) {
    return Status::InvalidArgument("\"deadline_s\" must be >= 0");
  }
  out->budget = Budget::Within(deadline_s);
  return Status::Ok();
}

}  // namespace

Protocol::Protocol(EstimationService* service) : service_(service) {}

std::string Protocol::HandleLine(const std::string& line) {
  ++requests_handled_;
  Json request;
  std::string error_line;
  if (!ParseRequestLine(line, &request, &error_line)) return error_line;
  return HandleRequest(request);
}

void Protocol::HandleLineStreaming(const std::string& line,
                                   const LineSink& sink) {
  ++requests_handled_;
  Json request;
  std::string error_line;
  if (!ParseRequestLine(line, &request, &error_line)) {
    sink(error_line);
    return;
  }
  if (request.GetString("op", "") == "watch") {
    RunWatch(request, request.Get("id"), sink, /*single_frame=*/false);
    return;
  }
  sink(HandleRequest(request));
}

std::string Protocol::HandleRequest(const Json& request) {
  const Json* id = request.Get("id");
  const std::string op = request.GetString("op", "");

  if (op == "estimate" || op == "explain" || op == "sweep") {
    EstimateRequest estimate;
    if (Status common = FillRequestCommon(request, &estimate); !common.ok()) {
      return ErrorResponse(id, common);
    }
    if (op == "sweep") {
      const Json* nodes_list = request.Get("nodes_list");
      if (nodes_list == nullptr || nodes_list->type() != Json::Type::kArray) {
        return ErrorResponse(id, Status::InvalidArgument(
                                     "sweep requires a \"nodes_list\" array"));
      }
      // An empty list would submit a single estimate; reject it here.
      if (nodes_list->AsArray().empty()) {
        return ErrorResponse(id, Status::InvalidArgument(
                                     "\"nodes_list\" must not be empty"));
      }
      for (const Json& entry : nodes_list->AsArray()) {
        if (entry.type() != Json::Type::kNumber ||
            !IntegerIn(entry.AsNumber(), 1)) {
          return ErrorResponse(id, Status::InvalidArgument(
                                       "\"nodes_list\" entries must be "
                                       "integers >= 1"));
        }
        estimate.nodes_list.push_back(static_cast<int>(entry.AsNumber()));
      }
    } else {
      const double nodes = request.GetNumber("nodes", 0.0);
      if (!IntegerIn(nodes, 0)) {
        return ErrorResponse(
            id, Status::InvalidArgument("\"nodes\" must be a non-negative "
                                        "integer"));
      }
      estimate.nodes = static_cast<int>(nodes);
      estimate.explain = op == "explain";
      // "coalesce" (in-flight coalescing, retired in 5.0) is accepted and
      // ignored, like "hedge" since 2.0.
    }
    Result<EstimateResponse> served = service_->Submit(std::move(estimate)).get();
    if (!served.ok()) return ErrorResponse(id, served.status());
    return OkResponseWith(id, [&](JsonWriter& w) {
      if (served.value().is_sweep()) {
        WriteSweep(w, *served.value().sweep);
      } else {
        WriteEstimate(w, *served.value().estimate, op == "explain");
      }
    });
  }

  if (op == "stats") {
    return OkResponse(id, StatsToJson(service_->Stats()));
  }

  if (op == "slo") {
    const obs::SloTracker::Report report = service_->slo_tracker().Snapshot();
    // Refresh the slo.* gauges alongside the report so a Prometheus scrape
    // racing this verb sees the same windowed figures.
    service_->slo_tracker().PublishGauges(report);
    return OkResponse(id, SloReportToJson(report));
  }

  if (op == "flightrecorder") {
    // FlightRecorder serialises itself (obs sits below common and cannot
    // use common/json); round-trip through the parser to splice the dump
    // into the response document.
    Result<Json> dump = Json::Parse(service_->flight_recorder().ToJson());
    if (!dump.ok()) {
      return ErrorResponse(id, Status::Internal("flight recorder dump: " +
                                                dump.status().message()));
    }
    return OkResponse(id, dump.value());
  }

  if (op == "metrics") {
    const std::string format = request.GetString("format", "json");
    if (format == "prom") {
      Json result = Json::MakeObject();
      result.Set("content_type",
                 Json::MakeString("text/plain; version=0.0.4; charset=utf-8"));
      result.Set("text", Json::MakeString(obs::WritePrometheusText()));
      return OkResponse(id, result);
    }
    if (format != "json") {
      return ErrorResponse(id,
                           Status::InvalidArgument(
                               "\"format\" must be \"json\" or \"prom\""));
    }
    Result<Json> parsed = Json::Parse(obs::MetricsRegistry::Default().ToJson());
    if (!parsed.ok()) {
      return ErrorResponse(id, Status::Internal("metrics snapshot: " +
                                                parsed.status().message()));
    }
    return OkResponse(id, parsed.value());
  }

  if (op == "watch") {
    // One-shot entry point: a single frame, immediately. Streaming happens
    // only through HandleLineStreaming, where the transport can observe
    // backpressure and disconnects.
    std::string frame;
    RunWatch(request, id,
             [&frame](const std::string& response_line) {
               frame = response_line;
               return true;
             },
             /*single_frame=*/true);
    return frame;
  }

  if (op == "drain") {
    Result<int> inflight = service_->Drain();
    if (!inflight.ok()) return ErrorResponse(id, inflight.status());
    drain_requested_ = true;
    Json result = Json::MakeObject();
    result.Set("drained", Json::MakeBool(true));
    result.Set("inflight", Json::MakeNumber(inflight.value()));
    return OkResponse(id, result);
  }

  return ErrorResponse(
             id, Status::InvalidArgument(
                     op.empty()
                         ? "request carries no \"op\""
                         : "unknown op \"" + op +
                               "\" (estimate|explain|sweep|stats|slo|"
                               "flightrecorder|metrics|watch|drain)"));
}

void Protocol::RunWatch(const Json& request, const Json* id,
                        const LineSink& sink, bool single_frame) {
  const double interval_raw = request.GetNumber("interval_ms", 1000.0);
  if (interval_raw < 0) {
    sink(ErrorResponse(id, Status::InvalidArgument(
                               "\"interval_ms\" must be >= 0")));
    return;
  }
  const double interval_ms = std::min(60000.0, std::max(10.0, interval_raw));
  const double count_raw = request.GetNumber("count", 0.0);
  // Below 2^64, so the cast to the frame counter is defined.
  if (count_raw < 0 || count_raw >= 18446744073709551616.0 ||
      count_raw != std::floor(count_raw)) {
    sink(ErrorResponse(id, Status::InvalidArgument(
                               "\"count\" must be a non-negative integer "
                               "(0 = unbounded)")));
    return;
  }
  const std::uint64_t max_frames = static_cast<std::uint64_t>(count_raw);
  std::uint64_t seq = 0;
  for (;;) {
    ++seq;  // Frames are 1-based: "seq":1 is the first frame of the stream.
    const obs::SloTracker::Report report = service_->slo_tracker().Snapshot();
    service_->slo_tracker().PublishGauges(report);
    Json frame = Json::MakeObject();
    frame.Set("seq", Json::MakeNumber(static_cast<double>(seq)));
    frame.Set("ts_us", Json::MakeNumber(obs::MonotonicUs()));
    frame.Set("stats", StatsToJson(service_->Stats()));
    frame.Set("slo_10s", WindowReportToJson(report.total[0]));
    frame.Set("slo_1m", WindowReportToJson(report.total[1]));
    if (!sink(OkResponse(id, frame))) return;
    if (single_frame) return;
    if (max_frames != 0 && seq >= max_frames) return;
    if (service_->draining()) return;
    // Sleep in short slices so a drain cuts the subscription off promptly
    // instead of holding shutdown hostage for a full interval.
    double remaining_ms = interval_ms;
    while (remaining_ms > 0.0) {
      const double slice_ms = std::min(remaining_ms, 50.0);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(slice_ms));
      remaining_ms -= slice_ms;
      if (service_->draining()) return;
    }
  }
}

std::string Protocol::TransportErrorLine(const Status& status,
                                         const Json* id) {
  return ErrorResponse(id == nullptr ? &NullId() : id, status);
}

}  // namespace dagperf
