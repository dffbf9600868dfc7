// dagperf command-line tool: simulate and estimate the library's named
// workflows, export traces, run parallelism sweeps, and tune jobs — without
// writing C++.
//
// Usage:
//   dagperf list
//   dagperf export   --flow NAME [--out FILE.json]
//   dagperf simulate --flow NAME|--spec FILE.json [--scale S] [--nodes N]
//                    [--seed K] [--json FILE] [--csv FILE] [--chrome FILE]
//   dagperf estimate --flow NAME|--spec FILE.json [--scale S] [--nodes N]
//                    [--variant boe|mean|median|normal] [--deadline-seconds D]
//   dagperf explain  --flow NAME|--spec FILE.json [--scale S] [--nodes N]
//                    [--json FILE] [--deadline-seconds D]
//   dagperf compare  --flow NAME|--spec FILE.json [--scale S] [--nodes N]
//   dagperf sweep    --job WC|TS|TSC|TS2R|TS3R [--input-gb G] [--baseline R]
//   dagperf sweep    --job J --reducers 8,16,32 [--threads N] [--json FILE]
//   dagperf sweep    --flow NAME|--spec FILE.json --nodes-list 2,4,8,16
//                    [--scale S] [--deadline-s D] [--threads N] [--json FILE]
//                    [--deadline-seconds D]
//   dagperf tune     --job WC|TS|TSC|TS2R|TS3R [--input-gb G]
//   dagperf serve    [--stdio | --port P] [--scale S] [--nodes N]
//                    [--threads N] [--queue-depth D] [--deadline-seconds D]
//                    [--grace-seconds G] [--watchdog-multiple M]
//                    [--breaker-threshold K] [--read-idle-seconds I]
//                    [--metrics-port P] [--slo-p99-ms MS] [--slo-availability F]
//                    [--flight-out FILE.json] [--shard-id ID] [--port-file F]
//   dagperf route    --shards N [--port P] [--dir DIR] [--scale S]
//                    [--vnodes V] [--probe-interval-ms I] [--readmit-quorum Q]
//                    [--max-in-flight K] [--port-file F] [--flight-out F]
//   dagperf metrics  [--port P] [--prom]
//   dagperf top      --port P [--interval-ms I] [--iterations N]
//
// `serve` runs the estimation service (src/service/): the named workflow
// suite is pre-registered and requests arrive as newline-delimited JSON
// (service/protocol.h; docs/api.md has the full contract) on stdin
// (--stdio, the default) or a localhost TCP port (--port, 0 picks a free
// one and prints it to stderr). --deadline-seconds becomes the service's
// default per-request deadline. The loop ends on EOF or a `drain` request;
// the TCP server additionally shuts down gracefully on SIGTERM/SIGINT
// (docs/robustness.md): the listener closes, in-flight requests get
// --grace-seconds to finish, stragglers are cancelled with
// UNAVAILABLE{retryable}, and the process exits 0. --breaker-threshold K
// opens a per-cluster circuit breaker after K consecutive serving failures
// (0 disables; default 8); --watchdog-multiple M cancels any request
// running past M x its deadline.
//
// `route` runs a multi-process fleet (src/router/): N child `dagperf serve`
// shards behind a consistent-hash router on one TCP port. Requests route by
// (cluster, workflow) so each shard's checkpoints stay hot for its key range;
// crashed shards are restarted from their per-shard snapshot dir and
// readmitted after a health-check quorum (docs/robustness.md "Shard
// fleets"). --dir holds per-shard state (snapshots, port files, logs).
// SIGTERM drains the whole fleet gracefully: every shard saves its final
// snapshot before exiting.
//
// --deadline-seconds bounds the wall-clock the estimator may spend; on
// expiry the command exits 3 (sweeps print whatever candidates finished).
// Exit codes: 0 ok, 1 output trouble, 2 invalid input, 3 deadline/cancelled,
// 4 internal error. Diagnostics go to stderr; stdout carries only results.
//
// Workflow NAMEs are the Table III suite names (TS-Q1..TS-Q22, WC-Q1..,
// WC-TS, WC-KM, ...) plus "web-analytics"; --spec loads a JSON workflow
// file (author one by editing `dagperf export` output).
//
// Observability (any command): --metrics-json FILE dumps the metrics
// registry after the run; --trace-out FILE enables span tracing and writes
// the recorded Chrome-trace timeline (open in Perfetto). `explain` and
// `estimate` additionally append the *modeled* state timeline to the trace.
// Both files are written on error exits too (2/3/4 included) — a failed run
// is exactly when the telemetry matters.
//
// Serving observability (docs/observability.md): `serve --metrics-port P`
// exposes Prometheus text on http://127.0.0.1:P/metrics; --slo-p99-ms /
// --slo-availability arm SLO objectives (windowed burn rates via the `slo`
// verb and slo.* gauges); --flight-out FILE dumps the request flight
// recorder on exit, SIGTERM drain included. Any of these flags arms request
// recording. `dagperf metrics --port P` fetches a running server's registry
// over the `metrics` verb (--prom prints Prometheus text); without --port it
// prints this process's own registry. `dagperf top --port P` subscribes via
// the `watch` verb and renders live RPS / p50 / p99 / error rate /
// checkpoint hit rate / breaker states, one line per frame.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/cancel.h"
#include "common/json.h"
#include "common/stats.h"
#include "common/table.h"
#include "dag/spec_io.h"
#include "exp/single_job.h"
#include "model/explain.h"
#include "model/state_estimator.h"
#include "model/sweep.h"
#include "model/task_time_source.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "obs/trace.h"
#include "router/router.h"
#include "service/line_client.h"
#include "service/metrics_http.h"
#include "service/server.h"
#include "service/service.h"
#include "sim/simulator.h"
#include "sim/trace_writer.h"
#include "tuner/tuner.h"
#include "workloads/micro.h"
#include "workloads/suite.h"
#include "workloads/web_analytics.h"

namespace dagperf {
namespace {

/// Exit codes of the CLI, stable for scripting:
///   0 success, 1 output/runtime trouble (e.g. unwritable --json file),
///   2 invalid input (bad usage, malformed spec, unknown flow),
///   3 deadline exceeded or cancelled (partial results may have printed),
///   4 internal error (a library bug — please report).
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitInvalid = 2;
constexpr int kExitDeadline = 3;
constexpr int kExitInternal = 4;

int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case ErrorCode::kOk:
      return kExitOk;
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kNotFound:
    case ErrorCode::kFailedPrecondition:
      return kExitInvalid;
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kCancelled:
      return kExitDeadline;
    case ErrorCode::kResourceExhausted:
    case ErrorCode::kUnavailable:
      // Transient (the service shed the request / peer not reachable);
      // retryable, so runtime trouble rather than invalid input.
      return kExitRuntime;
    case ErrorCode::kInternal:
      return kExitInternal;
  }
  return kExitInternal;
}

/// Prints the diagnostic to stderr (never stdout — stdout is for results,
/// so piped output stays parseable) and maps the status to an exit code.
int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

/// Thrown by flag accessors on unparseable values; caught in Main and
/// reported as invalid input (exit 2), never an uncaught-exception abort.
struct FlagError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    try {
      size_t used = 0;
      const double value = std::stod(it->second, &used);
      if (used != it->second.size()) throw std::invalid_argument(it->second);
      return value;
    } catch (const std::exception&) {
      throw FlagError("--" + key + ": not a number: " + it->second);
    }
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    try {
      size_t used = 0;
      const int value = std::stoi(it->second, &used);
      if (used != it->second.size()) throw std::invalid_argument(it->second);
      return value;
    } catch (const std::exception&) {
      throw FlagError("--" + key + ": not an integer: " + it->second);
    }
  }

  /// --deadline-seconds D as a wall-clock budget (absent or <= 0 = none).
  Deadline GetDeadline() const {
    const double seconds = GetDouble("deadline-seconds", 0.0);
    return seconds > 0 ? Deadline::AfterSeconds(seconds) : Deadline::Never();
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: dagperf <list|export|simulate|estimate|explain|compare|"
               "sweep|tune|serve|route|metrics|top> "
               "[--flow NAME | --spec FILE.json] [--job WC|TS|TSC|TS2R|TS3R] "
               "[--scale S] [--nodes N] [--seed K] [--input-gb G] [--baseline R] "
               "[--reducers 8,16,32] [--nodes-list 2,4,8] [--threads N] "
               "[--deadline-s D] [--deadline-seconds D] "
               "[--variant boe|mean|median|normal] [--out F] "
               "[--json F] [--csv F] [--chrome F] "
               "[--metrics-json F] [--trace-out F] "
               "[--stdio] [--port P] [--queue-depth D] [--grace-seconds G] "
               "[--watchdog-multiple M] [--breaker-threshold K] "
               "[--read-idle-seconds I] "
               "[--overload-target-ms T] [--snapshot-dir DIR] "
               "[--snapshot-interval-seconds S] "
               "[--shard-id ID] [--port-file F] [--shards N] [--dir DIR] "
               "[--vnodes V] [--probe-interval-ms I] [--readmit-quorum Q] "
               "[--max-in-flight K] "
               "[--metrics-port P] [--slo-p99-ms MS] [--slo-availability F] "
               "[--flight-out F] [--prom] [--interval-ms I] [--iterations N]\n");
  return 2;
}

Result<DagWorkflow> LoadFlow(const Args& args) {
  const std::string spec_path = args.Get("spec", "");
  if (!spec_path.empty()) return LoadWorkflow(spec_path);
  const std::string name = args.Get("flow", "");
  if (name.empty()) {
    return Status::InvalidArgument("--flow NAME or --spec FILE is required");
  }
  const double scale = args.GetDouble("scale", 1.0);
  if (name == "web-analytics") {
    return WebAnalyticsFlow(Bytes::FromGB(100.0 * scale));
  }
  Result<NamedFlow> named = TableThreeFlow(name, scale);
  if (!named.ok()) return named.status();
  return std::move(named).value().flow;
}

int CmdExport(const Args& args) {
  Result<DagWorkflow> flow = LoadFlow(args);
  if (!flow.ok()) return Fail(flow.status());
  const std::string out = args.Get("out", "");
  if (out.empty()) {
    std::printf("%s", WorkflowToJson(*flow).Dump().c_str());
    return 0;
  }
  const Status st = SaveWorkflow(*flow, out);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

ClusterSpec LoadCluster(const Args& args) {
  ClusterSpec cluster = ClusterSpec::PaperCluster();
  cluster.num_nodes = args.GetInt("nodes", cluster.num_nodes);
  return cluster;
}

Result<JobSpec> LoadJob(const Args& args) {
  const std::string job = args.Get("job", "");
  const Bytes input = Bytes::FromGB(args.GetDouble("input-gb", 100.0));
  if (job == "WC") return WordCountSpec(input);
  if (job == "TS") return TsSpec(input);
  if (job == "TSC") return TscSpec(input);
  if (job == "TS2R") return Ts2rSpec(input);
  if (job == "TS3R") return Ts3rSpec(input);
  return Status::InvalidArgument("--job must be WC, TS, TSC, TS2R or TS3R");
}

int CmdList() {
  std::printf("named workflows (--flow):\n  web-analytics\n");
  const auto suite = TableThreeSuite(0.01);
  if (suite.ok()) {
    int col = 0;
    for (const auto& nf : *suite) {
      std::printf("  %-10s", nf.name.c_str());
      if (++col % 6 == 0) std::printf("\n");
    }
    if (col % 6 != 0) std::printf("\n");
  }
  std::printf("micro jobs (--job): WC TS TSC TS2R TS3R\n");
  return 0;
}

int CmdSimulate(const Args& args) {
  Result<DagWorkflow> flow = LoadFlow(args);
  if (!flow.ok()) return Fail(flow.status());
  const ClusterSpec cluster = LoadCluster(args);
  SimOptions options;
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const Simulator sim(cluster, SchedulerConfig{}, options);
  Result<SimResult> result = sim.Run(*flow);
  if (!result.ok()) return Fail(result.status());
  std::printf("%s on %d nodes: makespan %.1f s, %zu tasks, %zu states\n",
              flow->name().c_str(), cluster.num_nodes, result->makespan().seconds(),
              result->tasks().size(), result->states().size());
  TextTable table({"stage", "start (s)", "end (s)", "tasks", "median task (s)"});
  for (const auto& s : result->stages()) {
    const auto durations = result->TaskDurations(s.job, s.stage);
    table.AddRow({flow->job(s.job).name + "/" + StageKindName(s.stage),
                  TextTable::Cell(s.start, 1), TextTable::Cell(s.end, 1),
                  std::to_string(durations.size()),
                  TextTable::Cell(ComputeStats(durations).median, 1)});
  }
  std::printf("%s", table.ToString().c_str());

  const auto dump = [&](const std::string& key, auto writer) {
    const std::string path = args.Get(key, "");
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    writer(*flow, *result, out);
    std::printf("wrote %s\n", path.c_str());
    return true;
  };
  if (!dump("json", WriteJson)) return 1;
  if (!dump("csv", WriteTaskCsv)) return 1;
  if (!dump("chrome", WriteChromeTrace)) return 1;
  return 0;
}

Result<DagEstimate> RunEstimate(const DagWorkflow& flow, const ClusterSpec& cluster,
                                const std::string& variant,
                                const SimResult* profile_run,
                                const Deadline& deadline = Deadline::Never()) {
  const SchedulerConfig sched;
  EstimatorOptions options;
  options.budget.deadline = deadline;
  if (variant == "boe") {
    const BoeModel boe(cluster.node);
    const BoeTaskTimeSource source(boe, Duration::Seconds(1));
    return StateBasedEstimator(cluster, sched, options).Estimate(flow, source);
  }
  if (profile_run == nullptr) {
    return Status::InvalidArgument(
        "profile-driven variants need a simulated profiling run");
  }
  ProfileStatistic stat = ProfileStatistic::kMean;
  if (variant == "median") stat = ProfileStatistic::kMedian;
  if (variant == "normal") options.skew_aware = true;
  Result<ProfileTaskTimeSource> source =
      ProfileTaskTimeSource::FromSimulation(flow, *profile_run, stat);
  if (!source.ok()) return source.status();
  return StateBasedEstimator(cluster, sched, options).Estimate(flow, *source);
}

int CmdEstimate(const Args& args) {
  Result<DagWorkflow> flow = LoadFlow(args);
  if (!flow.ok()) return Fail(flow.status());
  const ClusterSpec cluster = LoadCluster(args);
  const std::string variant = args.Get("variant", "boe");
  std::optional<SimResult> profile_run;
  if (variant != "boe") {
    Result<SimResult> run =
        Simulator(cluster, SchedulerConfig{}, SimOptions{}).Run(*flow);
    if (!run.ok()) return Fail(run.status());
    profile_run = std::move(run).value();
  }
  Result<DagEstimate> estimate =
      RunEstimate(*flow, cluster, variant, profile_run ? &*profile_run : nullptr,
                  args.GetDeadline());
  if (!estimate.ok()) return Fail(estimate.status());
  std::printf("%s (%s estimate): makespan %.1f s, %zu states\n",
              flow->name().c_str(), variant.c_str(), estimate->makespan.seconds(),
              estimate->states.size());
  TextTable table({"state", "start (s)", "duration (s)", "running (delta)"});
  for (const auto& st : estimate->states) {
    std::string running;
    for (const auto& r : estimate->running(st)) {
      if (!running.empty()) running += ", ";
      running += flow->job(r.job).name + "/" + StageKindName(r.kind) + "(" +
                 std::to_string(r.parallelism) + ")";
    }
    table.AddRow({std::to_string(st.index), TextTable::Cell(st.start, 1),
                  TextTable::Cell(st.duration, 1), running});
  }
  std::printf("%s", table.ToString().c_str());
  if (obs::TraceRecorder::Default().enabled()) {
    std::vector<obs::ChromeTraceEvent> events;
    AppendEstimateTraceEvents(*flow, *estimate, events);
    for (auto& event : events) obs::TraceRecorder::Default().Add(std::move(event));
  }
  return 0;
}

/// Bottleneck-attribution report: estimates with the BOE source and prints
/// the critical path plus per-state bottleneck resources (model/explain.h).
int CmdExplain(const Args& args) {
  Result<DagWorkflow> flow = LoadFlow(args);
  if (!flow.ok()) return Fail(flow.status());
  const ClusterSpec cluster = LoadCluster(args);
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  EstimatorOptions options;
  options.budget.deadline = args.GetDeadline();
  Result<ExplainReport> report =
      Explain(*flow, cluster, SchedulerConfig{}, source, options);
  if (!report.ok()) return Fail(report.status());
  std::printf("%s", ExplainToText(*flow, *report).c_str());

  const std::string json_path = args.Get("json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    out << ExplainToJson(*flow, *report).Dump() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (obs::TraceRecorder::Default().enabled()) {
    std::vector<obs::ChromeTraceEvent> events;
    AppendEstimateTraceEvents(*flow, report->estimate, events);
    for (auto& event : events) obs::TraceRecorder::Default().Add(std::move(event));
  }
  return 0;
}

int CmdCompare(const Args& args) {
  Result<DagWorkflow> flow = LoadFlow(args);
  if (!flow.ok()) return Fail(flow.status());
  const ClusterSpec cluster = LoadCluster(args);
  Result<SimResult> truth =
      Simulator(cluster, SchedulerConfig{}, SimOptions{}).Run(*flow);
  if (!truth.ok()) return Fail(truth.status());
  std::printf("%s simulated: %.1f s\n", flow->name().c_str(),
              truth->makespan().seconds());
  TextTable table({"variant", "estimate (s)", "accuracy"});
  for (const char* variant : {"boe", "mean", "median", "normal"}) {
    Result<DagEstimate> estimate = RunEstimate(*flow, cluster, variant, &*truth);
    if (!estimate.ok()) {
      std::fprintf(stderr, "%s: %s\n", variant, estimate.status().ToString().c_str());
      continue;
    }
    table.AddRow({variant, TextTable::Cell(estimate->makespan.seconds(), 1),
                  TextTable::Cell(RelativeAccuracy(estimate->makespan.seconds(),
                                                   truth->makespan().seconds()),
                                  4)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

/// Parses a comma-separated integer list ("8,16,32").
Result<std::vector<int>> ParseIntList(const std::string& text) {
  std::vector<int> values;
  std::string token;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ',') {
      if (token.empty()) return Status::InvalidArgument("empty list entry");
      try {
        size_t used = 0;
        const int value = std::stoi(token, &used);
        if (used != token.size()) throw std::invalid_argument(token);
        values.push_back(value);
      } catch (const std::exception&) {
        return Status::InvalidArgument("not an integer: " + token);
      }
      token.clear();
    } else {
      token += text[i];
    }
  }
  if (values.empty()) return Status::InvalidArgument("empty list");
  return values;
}

/// Shared tail of the what-if sweeps: print the candidate table and cache
/// stats, optionally dump the JSON table. Failed candidates go to stderr and
/// the survivors still print — a sweep cut short by --deadline-seconds shows
/// its partial results. Exit code: 0 all completed, 3 if the budget fired,
/// otherwise the first failure's code.
int ReportSweep(const std::string& knob_name, const std::vector<int>& knobs,
                const SweepResult& sweep, const Args& args) {
  TextTable table({knob_name, "predicted (s)", "states"});
  Json rows = Json::MakeArray();
  Status first_failure = Status::Ok();
  for (size_t i = 0; i < knobs.size(); ++i) {
    if (!sweep.estimates[i].ok()) {
      std::fprintf(stderr, "%s=%d: %s\n", knob_name.c_str(), knobs[i],
                   sweep.estimates[i].status().ToString().c_str());
      if (first_failure.ok()) first_failure = sweep.estimates[i].status();
      continue;
    }
    const DagEstimate& estimate = *sweep.estimates[i];
    table.AddRow({std::to_string(knobs[i]),
                  TextTable::Cell(estimate.makespan.seconds(), 1),
                  std::to_string(estimate.states.size())});
    Json row = Json::MakeObject();
    row.Set(knob_name, Json::MakeNumber(knobs[i]));
    row.Set("predicted_s", Json::MakeNumber(estimate.makespan.seconds()));
    rows.Append(std::move(row));
  }
  std::printf("%s", table.ToString().c_str());
  if (sweep.stats.completed < sweep.stats.candidates) {
    std::fprintf(stderr,
                 "%d/%d candidates completed (%d cancelled, %d deadline, "
                 "%d failed)\n",
                 sweep.stats.completed, sweep.stats.candidates,
                 sweep.stats.cancelled, sweep.stats.deadline_exceeded,
                 sweep.stats.failures);
  }
  if (sweep.stats.best_index >= 0) {
    std::printf("best: %s=%d -> %.1f s\n", knob_name.c_str(),
                knobs[static_cast<size_t>(sweep.stats.best_index)],
                sweep.stats.best_makespan.seconds());
  } else {
    std::fprintf(stderr, "no candidate completed\n");
  }
  std::printf("cache: %.1f%% hit rate (%llu hits, %llu misses)\n",
              100.0 * sweep.stats.cache_hit_rate,
              static_cast<unsigned long long>(sweep.stats.cache_hits),
              static_cast<unsigned long long>(sweep.stats.cache_misses));
  std::printf(
      "incremental: %llu prefix hits, %llu misses, %llu states resumed\n",
      static_cast<unsigned long long>(sweep.stats.prefix_hits),
      static_cast<unsigned long long>(sweep.stats.prefix_misses),
      static_cast<unsigned long long>(sweep.stats.resumed_states));

  const std::string json_path = args.Get("json", "");
  if (!json_path.empty()) {
    Json doc = Json::MakeObject();
    doc.Set("knob", Json::MakeString(knob_name));
    doc.Set("candidates", std::move(rows));
    if (sweep.stats.best_index >= 0) {
      doc.Set("best_" + knob_name,
              Json::MakeNumber(knobs[static_cast<size_t>(sweep.stats.best_index)]));
      doc.Set("best_predicted_s",
              Json::MakeNumber(sweep.stats.best_makespan.seconds()));
    }
    // Same batch statistics bench_sweep_throughput records in
    // BENCH_sweep.json, so the CLI and the benchmark agree field-for-field.
    doc.Set("num_candidates", Json::MakeNumber(sweep.stats.candidates));
    doc.Set("completed", Json::MakeNumber(sweep.stats.completed));
    doc.Set("failures", Json::MakeNumber(sweep.stats.failures));
    doc.Set("cancelled", Json::MakeNumber(sweep.stats.cancelled));
    doc.Set("deadline_exceeded", Json::MakeNumber(sweep.stats.deadline_exceeded));
    doc.Set("cache_hits",
            Json::MakeNumber(static_cast<double>(sweep.stats.cache_hits)));
    doc.Set("cache_misses",
            Json::MakeNumber(static_cast<double>(sweep.stats.cache_misses)));
    doc.Set("cache_hit_rate", Json::MakeNumber(sweep.stats.cache_hit_rate));
    Json incremental = Json::MakeObject();
    incremental.Set("prefix_hits",
                    Json::MakeNumber(static_cast<double>(sweep.stats.prefix_hits)));
    incremental.Set(
        "prefix_misses",
        Json::MakeNumber(static_cast<double>(sweep.stats.prefix_misses)));
    incremental.Set(
        "resumed_states",
        Json::MakeNumber(static_cast<double>(sweep.stats.resumed_states)));
    incremental.Set(
        "checkpoints_stored",
        Json::MakeNumber(static_cast<double>(sweep.stats.checkpoints_stored)));
    doc.Set("incremental", std::move(incremental));
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return kExitRuntime;
    }
    out << doc.Dump() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (sweep.stats.cancelled > 0 || sweep.stats.deadline_exceeded > 0) {
    return kExitDeadline;
  }
  if (!first_failure.ok()) return ExitCodeFor(first_failure);
  return kExitOk;
}

/// Reducer-count what-if grid for a micro job, priced by the sweep engine.
int CmdReducerSweep(const Args& args) {
  Result<JobSpec> job = LoadJob(args);
  if (!job.ok()) return Fail(job.status());
  Result<std::vector<int>> grid = ParseIntList(args.Get("reducers", ""));
  if (!grid.ok()) {
    std::fprintf(stderr, "--reducers: ");
    return Fail(grid.status());
  }
  Result<std::vector<DagWorkflow>> flows = BuildReducerCandidates(*job, *grid);
  if (!flows.ok()) return Fail(flows.status());
  const ClusterSpec cluster = LoadCluster(args);
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  std::vector<SweepCandidate> requests;
  for (const DagWorkflow& flow : *flows) requests.push_back({&flow, cluster, ""});
  SweepOptions options;
  options.threads = args.GetInt("threads", 0);
  options.budget.deadline = args.GetDeadline();
  const SweepResult sweep = EstimateBatch(requests, SchedulerConfig{}, source, options);
  std::printf("reducer sweep for %s on %d nodes (%d candidates, %d threads):\n",
              job->name.c_str(), cluster.num_nodes, sweep.stats.candidates,
              options.threads);
  return ReportSweep("reducers", *grid, sweep, args);
}

/// Cluster-size what-if grid for a workflow (capacity planning).
int CmdNodesSweep(const Args& args) {
  Result<DagWorkflow> flow = LoadFlow(args);
  if (!flow.ok()) return Fail(flow.status());
  Result<std::vector<int>> grid = ParseIntList(args.Get("nodes-list", ""));
  if (!grid.ok()) {
    std::fprintf(stderr, "--nodes-list: ");
    return Fail(grid.status());
  }
  const ClusterSpec base = LoadCluster(args);
  const BoeModel boe(base.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  std::vector<SweepCandidate> requests;
  for (int nodes : *grid) {
    ClusterSpec cluster = base;
    cluster.num_nodes = nodes;
    requests.push_back({&*flow, cluster, ""});
  }
  SweepOptions options;
  options.threads = args.GetInt("threads", 0);
  options.budget.deadline = args.GetDeadline();
  const SweepResult sweep = EstimateBatch(requests, SchedulerConfig{}, source, options);
  std::printf("cluster-size sweep for %s (%d candidates, %d threads):\n",
              flow->name().c_str(), sweep.stats.candidates, options.threads);
  const double deadline = args.GetDouble("deadline-s", 0.0);
  if (deadline > 0) {
    int smallest = -1;
    for (size_t i = 0; i < grid->size(); ++i) {
      if (sweep.estimates[i].ok() &&
          sweep.estimates[i]->makespan.seconds() <= deadline &&
          (smallest < 0 || (*grid)[i] < smallest)) {
        smallest = (*grid)[i];
      }
    }
    if (smallest > 0) {
      std::printf("smallest size within %.0f s deadline: %d nodes\n", deadline,
                  smallest);
    } else {
      std::printf("no listed size meets the %.0f s deadline\n", deadline);
    }
  }
  return ReportSweep("nodes", *grid, sweep, args);
}

int CmdSweep(const Args& args) {
  // Grid modes run on the sweep engine; the bare --job form keeps the
  // original single-job parallelism sweep (paper Fig. 6 methodology).
  if (args.options.count("reducers") > 0) return CmdReducerSweep(args);
  if (args.options.count("nodes-list") > 0) return CmdNodesSweep(args);
  Result<JobSpec> job = LoadJob(args);
  if (!job.ok()) return Fail(job.status());
  SingleJobSweepConfig config;
  config.baseline_reference = args.GetInt("baseline", 2);
  Result<SingleJobSweepResult> sweep = RunSingleJobSweep(*job, config);
  if (!sweep.ok()) return Fail(sweep.status());
  TextTable table({"delta", "map truth", "map BOE", "shuffle truth",
                   "shuffle BOE", "reduce truth", "reduce BOE"});
  for (const auto& p : sweep->points) {
    table.AddRow({std::to_string(p.tasks_per_node), TextTable::Cell(p.truth.map_s, 1),
                  TextTable::Cell(p.boe.map_s, 1),
                  TextTable::Cell(p.truth.shuffle_s, 1),
                  TextTable::Cell(p.boe.shuffle_s, 1),
                  TextTable::Cell(p.truth.reduce_s, 1),
                  TextTable::Cell(p.boe.reduce_s, 1)});
  }
  std::printf("%s", table.ToString().c_str());
  const SweepAccuracy acc = BoeSweepAccuracy(*sweep);
  std::printf("BOE mean accuracy: map %.1f%% shuffle %.1f%% reduce %.1f%%\n",
              100 * acc.map, 100 * acc.shuffle, 100 * acc.reduce);
  return 0;
}

int CmdTune(const Args& args) {
  Result<JobSpec> job = LoadJob(args);
  if (!job.ok()) return Fail(job.status());
  const ClusterSpec cluster = LoadCluster(args);
  Result<ReducerTuning> reducers = TuneReducers(*job, cluster, SchedulerConfig{});
  if (reducers.ok()) {
    std::printf("reducer tuning for %s:\n", job->name.c_str());
    TextTable table({"reducers", "predicted (s)"});
    for (const auto& c : reducers->explored) {
      table.AddRow({std::to_string(c.knob), TextTable::Cell(c.predicted.seconds(), 1)});
    }
    std::printf("%s", table.ToString().c_str());
    std::printf("best: %d reducers -> %.1f s\n", reducers->best_reducers,
                reducers->best_time.seconds());
  }
  Result<CompressionDecision> compression =
      DecideCompression(*job, cluster, SchedulerConfig{});
  if (compression.ok()) {
    std::printf("compression: with %.1f s, without %.1f s -> %s\n",
                compression->with_compression.seconds(),
                compression->without_compression.seconds(),
                compression->compress ? "COMPRESS" : "DO NOT COMPRESS");
  }
  return 0;
}

/// The TCP server's stop signal: SIGTERM/SIGINT fire this token. Cancel()
/// is one lock-free atomic store — async-signal-safe. Leaked so the handler
/// never races static teardown.
CancelToken& ServeStopToken() {
  static CancelToken* token = new CancelToken(CancelToken::Cancellable());
  return *token;
}

void HandleServeSignal(int) { ServeStopToken().Cancel(); }

/// --port-file for `serve` and `route`: publishes the bound port through a
/// temp file and a rename, so a reader (the router's supervisor, a script)
/// never sees a torn value. Failures are reported on stderr.
void PublishPortFile(const std::string& path, int port) {
  if (path.empty()) return;
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp);
  out << port << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
  } else if (::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "cannot publish %s: %s\n", path.c_str(),
                 std::strerror(errno));
  }
}

/// Long-lived estimation service over the NDJSON protocol. Diagnostics (what
/// was registered, where the server listens) go to stderr; stdout carries
/// only protocol responses so a pipe peer parses every line.
int CmdServe(const Args& args) {
  ServiceOptions options;
  options.threads = args.GetInt("threads", 0);
  options.max_queue_depth = args.GetInt("queue-depth", 256);
  options.default_deadline_seconds = args.GetDouble("deadline-seconds", 0.0);
  options.watchdog_multiple = args.GetDouble("watchdog-multiple", 0.0);
  // Serving default: breakers ON (library default is off) — a cluster whose
  // estimation path keeps failing should shed fast, not grind.
  options.breaker_failure_threshold = args.GetInt("breaker-threshold", 8);
  if (options.max_queue_depth < 1) {
    return Fail(Status::InvalidArgument("--queue-depth must be >= 1"));
  }
  // Overload protection: --overload-target-ms T arms the CoDel-style
  // controller (brownout ladder, cost-aware shedding); 0/absent leaves it
  // off so a plain serve behaves exactly as before.
  options.overload_target_sojourn_ms = args.GetDouble("overload-target-ms", 0.0);
  if (options.overload_target_sojourn_ms < 0) {
    return Fail(Status::InvalidArgument("--overload-target-ms must be >= 0"));
  }
  // Warm-state persistence: snapshots land in --snapshot-dir on drain /
  // shutdown and every --snapshot-interval-seconds, and are restored at boot.
  const std::string snapshot_dir = args.Get("snapshot-dir", "");
  if (!snapshot_dir.empty()) {
    options.snapshot_path = snapshot_dir + "/warm.snapshot";
  }
  const double snapshot_interval =
      args.GetDouble("snapshot-interval-seconds", 30.0);
  // Shard mode (router/router.h): --shard-id is echoed in stats for fleet
  // attribution; --port-file publishes the bound port for the supervisor
  // (written atomically, so a reader never sees a torn value).
  options.shard_id = args.Get("shard-id", "");
  const std::string port_file = args.Get("port-file", "");
  options.slo.p99_ms = args.GetDouble("slo-p99-ms", 0.0);
  options.slo.availability = args.GetDouble("slo-availability", 0.0);
  if (options.slo.availability >= 1.0 || options.slo.availability < 0.0) {
    return Fail(Status::InvalidArgument(
        "--slo-availability must be a fraction in [0, 1), e.g. 0.999"));
  }
  const bool has_metrics_port = args.options.count("metrics-port") > 0;
  const std::string flight_path = args.Get("flight-out", "");
  if (has_metrics_port || !flight_path.empty() || options.slo.latency_enabled() ||
      options.slo.availability_enabled()) {
    // Any serving-observability flag arms collection: request records, SLO
    // windows, and the metric registry all gate on the same switch.
    obs::SetMetricsEnabled(true);
  }
  EstimationService service(options);

  const int nodes = args.GetInt("nodes", 0);
  if (nodes != 0) {
    ClusterSpec cluster = ClusterSpec::PaperCluster();
    cluster.num_nodes = nodes;
    if (Status st = service.RegisterCluster("default", cluster); !st.ok()) {
      return Fail(st);
    }
  }

  // Pre-register the named suite at --scale, same names `dagperf list`
  // prints; clients can still send inline "flow" documents.
  const double scale = args.GetDouble("scale", 1.0);
  Result<std::vector<NamedFlow>> suite = TableThreeSuite(scale);
  if (!suite.ok()) return Fail(suite.status());
  for (NamedFlow& named : suite.value()) {
    if (Status st = service.RegisterWorkflow(named.name, std::move(named.flow));
        !st.ok()) {
      return Fail(st);
    }
  }
  Result<DagWorkflow> web = WebAnalyticsFlow(Bytes::FromGB(100.0 * scale));
  if (!web.ok()) return Fail(web.status());
  if (Status st = service.RegisterWorkflow("web-analytics", std::move(web).value());
      !st.ok()) {
    return Fail(st);
  }
  std::fprintf(stderr, "dagperf serve: %d workflows registered (scale %g)\n",
               service.Stats().workflows, scale);

  // Restore warmth from the previous run before the first request lands. A
  // missing file is a normal first boot; a corrupt or stale one is rejected
  // by the loader and the service simply starts cold.
  if (!options.snapshot_path.empty()) {
    const Status restored = service.LoadSnapshot(options.snapshot_path);
    if (restored.ok()) {
      std::fprintf(stderr, "warm snapshot restored from %s\n",
                   options.snapshot_path.c_str());
    } else if (restored.code() != ErrorCode::kNotFound) {
      std::fprintf(stderr, "warm snapshot rejected (starting cold): %s\n",
                   restored.ToString().c_str());
    }
  }

  // Periodic snapshot saves so a crash loses at most one interval of
  // warmth; the drain/shutdown path saves once more, authoritatively.
  CancelToken snapshot_stop = CancelToken::Cancellable();
  std::thread snapshot_thread;
  if (!options.snapshot_path.empty() && snapshot_interval > 0) {
    snapshot_thread = std::thread([&service, snapshot_stop, snapshot_interval,
                                   path = options.snapshot_path] {
      for (;;) {
        double remaining_s = snapshot_interval;
        while (remaining_s > 0 && !snapshot_stop.cancelled()) {
          const double slice_s = std::min(remaining_s, 0.05);
          std::this_thread::sleep_for(std::chrono::duration<double>(slice_s));
          remaining_s -= slice_s;
        }
        if (snapshot_stop.cancelled()) return;
        (void)service.SaveSnapshot(path);
      }
    });
  }

  // The Prometheus scrape endpoint runs beside either transport on its own
  // thread; it is stopped and joined after the serve loop ends.
  CancelToken metrics_stop = CancelToken::Cancellable();
  std::thread metrics_thread;
  if (has_metrics_port) {
    MetricsHttpOptions http;
    http.port = args.GetInt("metrics-port", 0);
    http.stop = metrics_stop;
    http.before_scrape = [&service] {
      service.slo_tracker().PublishGauges(service.slo_tracker().Snapshot());
    };
    http.on_listen = [](int port) {
      std::fprintf(stderr, "metrics on http://127.0.0.1:%d/metrics\n", port);
    };
    metrics_thread = std::thread([http] {
      Result<MetricsHttpSummary> served = ServeMetricsHttp(http);
      if (!served.ok()) {
        std::fprintf(stderr, "metrics endpoint: %s\n",
                     served.status().ToString().c_str());
      }
    });
  }

  const int rc = [&]() -> int {
    if (args.options.count("port") > 0) {
      TcpServerOptions tcp;
      tcp.port = args.GetInt("port", 0);
      tcp.max_connections = args.GetInt("max-connections", 0);
      tcp.drain_grace_seconds = args.GetDouble("grace-seconds", 5.0);
      tcp.read_idle_timeout_seconds =
          args.GetDouble("read-idle-seconds", kDefaultReadIdleSeconds);
      tcp.stop = ServeStopToken();
      tcp.on_listen = [&port_file](int port) {
        std::fprintf(stderr, "listening on 127.0.0.1:%d\n", port);
        PublishPortFile(port_file, port);
      };
      std::signal(SIGTERM, HandleServeSignal);
      std::signal(SIGINT, HandleServeSignal);
      Result<TcpServeSummary> served = ServeTcp(service, tcp);
      std::signal(SIGTERM, SIG_DFL);
      std::signal(SIGINT, SIG_DFL);
      if (!served.ok()) return Fail(served.status());
      const TcpServeSummary& summary = served.value();
      std::fprintf(stderr, "served %llu requests over %llu connections (%s)\n",
                   static_cast<unsigned long long>(summary.requests),
                   static_cast<unsigned long long>(summary.connections),
                   summary.stopped   ? "stopped by signal"
                   : summary.drained ? "drained"
                                     : "connection limit");
      if (summary.stopped) {
        std::fprintf(stderr,
                     "shutdown: %d in flight, %d cancelled, graceful=%s, "
                     "waited %.3fs\n",
                     summary.shutdown.inflight_at_shutdown,
                     summary.shutdown.cancelled,
                     summary.shutdown.graceful ? "yes" : "no",
                     summary.shutdown.waited_seconds);
      }
      return kExitOk;
    }

    const ServeSummary summary = ServeLines(service, std::cin, std::cout);
    std::fprintf(stderr, "served %llu requests (%s)\n",
                 static_cast<unsigned long long>(summary.requests),
                 summary.drained ? "drained" : "stdin closed");
    return kExitOk;
  }();

  snapshot_stop.Cancel();
  if (snapshot_thread.joinable()) snapshot_thread.join();
  metrics_stop.Cancel();
  if (metrics_thread.joinable()) metrics_thread.join();

  if (!options.snapshot_path.empty()) {
    // The guaranteed final save: every serve exit path — EOF, drain verb,
    // SIGTERM, connection limit — lands here before the process exits, with
    // no dependency on the --snapshot-interval-seconds timer having fired.
    // Drain() saves exactly once before resetting warm state (a SIGTERM
    // path that already drained inside ServeTcp is a no-op here), which
    // also means the save's flight event is recorded before the --flight-out
    // dump below instead of being lost in the destructor.
    (void)service.Drain();
    std::fprintf(stderr, "final warm snapshot at %s\n",
                 options.snapshot_path.c_str());
  }

  if (!flight_path.empty()) {
    // Dumped on every exit path -- EOF, drain verb, SIGTERM shutdown -- so
    // the last-N request records survive the process. Confirmation goes to
    // stderr; stdout stays protocol-only.
    std::ofstream out(flight_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", flight_path.c_str());
      return rc == kExitOk ? kExitRuntime : rc;
    }
    out << service.flight_recorder().ToJson() << "\n";
    std::fprintf(stderr, "wrote %s\n", flight_path.c_str());
  }
  return rc;
}

/// The dagperf binary to exec shard children with: $DAGPERF_BIN when set
/// (tests point it at the built CLI), else this very binary via
/// /proc/self/exe.
std::string SelfBinaryPath() {
  if (const char* env = std::getenv("DAGPERF_BIN");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return "dagperf";
}

/// Multi-process shard fleet: a consistent-hash router fronting N child
/// `dagperf serve` shards (router/router.h). Shard state lives under
/// --dir: per-shard snapshot dirs (warm restarts), port files, and logs.
int CmdRoute(const Args& args) {
  const int shards = args.GetInt("shards", 3);
  if (shards < 1) {
    return Fail(Status::InvalidArgument("--shards must be >= 1"));
  }
  const std::string dir = args.Get("dir", ".dagperf-fleet");
  ::mkdir(dir.c_str(), 0755);

  const std::string binary = SelfBinaryPath();
  const double scale = args.GetDouble("scale", 1.0);
  const int threads = args.GetInt("threads", 0);
  const double snapshot_interval =
      args.GetDouble("snapshot-interval-seconds", 5.0);

  std::vector<router::ShardSpec> specs;
  for (int i = 0; i < shards; ++i) {
    const std::string shard_id = "shard-" + std::to_string(i);
    const std::string shard_dir = dir + "/" + shard_id;
    ::mkdir(shard_dir.c_str(), 0755);
    router::ShardSpec spec;
    spec.shard_id = shard_id;
    spec.port_file = dir + "/" + shard_id + ".port";
    spec.stderr_file = dir + "/" + shard_id + ".log";
    spec.command = {binary,
                    "serve",
                    "--port",
                    "0",
                    "--port-file",
                    spec.port_file,
                    "--shard-id",
                    shard_id,
                    "--snapshot-dir",
                    shard_dir,
                    "--scale",
                    std::to_string(scale),
                    "--snapshot-interval-seconds",
                    std::to_string(snapshot_interval)};
    if (threads > 0) {
      spec.command.push_back("--threads");
      spec.command.push_back(std::to_string(threads));
    }
    specs.push_back(std::move(spec));
  }

  router::RouterOptions options;
  options.port = args.GetInt("port", 0);
  options.vnodes = args.GetInt("vnodes", 128);
  options.max_in_flight_per_shard = args.GetInt("max-in-flight", 64);
  options.probe_interval_seconds =
      args.GetDouble("probe-interval-ms", 50.0) / 1000.0;
  options.readmit_quorum = args.GetInt("readmit-quorum", 2);
  options.drain_grace_seconds = args.GetDouble("grace-seconds", 5.0);
  options.stop = ServeStopToken();
  const std::string port_file = args.Get("port-file", "");
  options.on_listen = [&port_file](int port) {
    std::fprintf(stderr, "router listening on 127.0.0.1:%d\n", port);
    PublishPortFile(port_file, port);
  };

  obs::SetMetricsEnabled(true);
  std::fprintf(stderr, "dagperf route: %d shards under %s (scale %g)\n",
               shards, dir.c_str(), scale);

  router::Router fleet(std::move(specs), options);
  std::signal(SIGTERM, HandleServeSignal);
  std::signal(SIGINT, HandleServeSignal);
  Result<router::RouterSummary> served = fleet.Serve();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);

  const std::string flight_path = args.Get("flight-out", "");
  if (!flight_path.empty()) {
    std::ofstream out(flight_path);
    if (out) {
      out << fleet.flight_recorder().ToJson() << "\n";
      std::fprintf(stderr, "wrote %s\n", flight_path.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s\n", flight_path.c_str());
    }
  }

  if (!served.ok()) return Fail(served.status());
  const router::RouterSummary& summary = served.value();
  std::fprintf(stderr,
               "routed %llu requests over %llu connections "
               "(%llu reroutes, %llu restarts, %llu sheds; %s)\n",
               static_cast<unsigned long long>(summary.requests),
               static_cast<unsigned long long>(summary.connections),
               static_cast<unsigned long long>(summary.reroutes),
               static_cast<unsigned long long>(summary.restarts),
               static_cast<unsigned long long>(summary.sheds),
               summary.stopped ? "stopped by signal" : "drained");
  return kExitOk;
}

/// Connects to a local `dagperf serve --port` server, sends one request
/// line, and invokes `on_line` per response line until it returns false or
/// the peer closes. Used by `metrics` (one response) and `top` (a stream of
/// watch frames).
Status QueryServer(int port, const std::string& request,
                   const std::function<bool(const std::string&)>& on_line) {
  protocol::LineClient client;
  if (Status connected = client.Connect(port); !connected.ok()) {
    return Status::Unavailable(connected.message() +
                               " (is `dagperf serve --port` running?)");
  }
  if (Status sent = client.SendLine(request); !sent.ok()) return sent;
  for (;;) {
    // `top` subscriptions stream frames indefinitely; the deadline only
    // bounds one poll slice, so a quiet watch stream keeps waiting.
    Result<protocol::LineClient::LineOrClose> got = client.RecvLine(3600.0);
    if (!got.ok()) {
      if (got.status().code() == ErrorCode::kDeadlineExceeded) continue;
      return got.status();
    }
    if (got.value().closed) return Status::Ok();
    if (!got.value().line.empty() && !on_line(got.value().line)) {
      return Status::Ok();
    }
  }
}

/// Prints a server's metric registry (or, without --port, this process's
/// own) as JSON or Prometheus text.
int CmdMetrics(const Args& args) {
  const bool prom = args.options.count("prom") > 0;
  if (args.options.count("port") == 0) {
    // Local mode: the current process's registry — an empty-but-armed
    // registry is still useful for eyeballing the exposition format.
    obs::SetMetricsEnabled(true);
    if (prom) {
      std::printf("%s", obs::WritePrometheusText().c_str());
    } else {
      std::printf("%s\n", obs::MetricsRegistry::Default().ToJson().c_str());
    }
    return kExitOk;
  }
  const int port = args.GetInt("port", 0);
  const std::string request =
      prom ? R"({"op":"metrics","format":"prom","id":1})"
           : R"({"op":"metrics","id":1})";
  int rc = kExitRuntime;
  const Status status =
      QueryServer(port, request, [&](const std::string& line) {
        Result<Json> parsed = Json::Parse(line);
        if (!parsed.ok()) return false;
        if (!parsed->GetBool("ok", false)) {
          std::fprintf(stderr, "server error: %s\n", line.c_str());
          return false;
        }
        const Json* result = parsed->Get("result");
        if (result == nullptr) return false;
        if (prom) {
          std::printf("%s", result->GetString("text", "").c_str());
        } else {
          std::printf("%s\n", result->Dump().c_str());
        }
        rc = kExitOk;
        return false;  // One response; done.
      });
  if (!status.ok()) return Fail(status);
  return rc;
}

/// Live serving dashboard: subscribes to a server's `watch` stream and
/// renders one line per frame — RPS, latency quantiles, error and
/// checkpoint hit rates, queue depth, breaker states — until the stream
/// ends (server drained, --iterations reached, or connection lost).
int CmdTop(const Args& args) {
  if (args.options.count("port") == 0) {
    return Fail(Status::InvalidArgument(
        "top needs --port P of a running `dagperf serve --port`"));
  }
  const int port = args.GetInt("port", 0);
  const int interval_ms = args.GetInt("interval-ms", 1000);
  const int iterations = args.GetInt("iterations", 0);
  const std::string request = "{\"op\":\"watch\",\"interval_ms\":" +
                              std::to_string(interval_ms) +
                              ",\"count\":" + std::to_string(iterations) +
                              ",\"id\":1}";
  std::printf("%8s %9s %9s %7s %7s %6s %6s  %s\n", "rps", "p50(ms)",
              "p99(ms)", "err%", "dl-hit%", "hit%", "queue", "breakers");
  int rc = kExitRuntime;
  int frames = 0;
  const Status status =
      QueryServer(port, request, [&](const std::string& line) {
        Result<Json> parsed = Json::Parse(line);
        if (!parsed.ok()) return true;  // Tolerate a torn line.
        if (!parsed->GetBool("ok", false)) {
          std::fprintf(stderr, "server error: %s\n", line.c_str());
          return false;
        }
        const Json* result = parsed->Get("result");
        const Json* slo = result ? result->Get("slo_10s") : nullptr;
        const Json* stats = result ? result->Get("stats") : nullptr;
        if (slo == nullptr || stats == nullptr) return false;
        const Json* incremental = stats->Get("incremental");
        std::string breakers;
        if (const Json* b = result->Get("breakers");
            b != nullptr && b->type() == Json::Type::kObject) {
          for (const auto& [name, value] : b->AsObject()) {
            // "resilience.breaker_state[.cluster]" -> cluster name.
            std::string cluster = name.size() > 24 ? name.substr(25) : "default";
            const int state = static_cast<int>(value.AsNumber());
            if (!breakers.empty()) breakers += " ";
            breakers += cluster + ":" +
                        (state == 0 ? "closed"
                                    : state == 1 ? "open" : "half-open");
          }
        }
        if (breakers.empty()) breakers = "-";
        std::printf("%8.1f %9.2f %9.2f %6.1f%% %6.1f%% %5.0f%% %6.0f  %s\n",
                    slo->GetNumber("rps", 0.0), slo->GetNumber("p50_ms", 0.0),
                    slo->GetNumber("p99_ms", 0.0),
                    100.0 * slo->GetNumber("error_rate", 0.0),
                    100.0 * slo->GetNumber("deadline_hit_rate", 1.0),
                    100.0 * (incremental ? incremental->GetNumber("hit_rate", 0.0)
                                         : 0.0),
                    stats->GetNumber("queue_depth", 0.0), breakers.c_str());
        std::fflush(stdout);
        rc = kExitOk;
        // The server stops sending after `count` frames but leaves the
        // connection open for the next request; stop reading client-side.
        return iterations == 0 || ++frames < iterations;
      });
  if (!status.ok()) return Fail(status);
  return rc;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) return Usage();
    const std::string key = arg + 2;
    // Valueless switches; everything else is a --key VALUE pair.
    if (key == "stdio" || key == "prom") {
      args.options[key] = "1";
      continue;
    }
    if (i + 1 >= argc) return Usage();
    args.options[key] = argv[++i];
  }
  // Observability flags apply to every command: enable collection before
  // dispatch, dump after. This is the library's own obs layer observing the
  // run — commands need no per-command wiring beyond what they trace.
  const std::string metrics_path = args.Get("metrics-json", "");
  const std::string trace_path = args.Get("trace-out", "");
  if (!metrics_path.empty()) obs::SetMetricsEnabled(true);
  if (!trace_path.empty()) obs::TraceRecorder::Default().SetEnabled(true);

  // Writes the observability dumps. Runs on EVERY exit path through Main —
  // error exits (2/3/4) and the FlagError catch included — because a failed
  // run is exactly when the collected telemetry matters. Returns the exit
  // code to use: `rc` normally, kExitRuntime when a dump itself failed on
  // an otherwise-clean run (a command's own error always wins).
  const auto dump_observability = [&](int rc) -> int {
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", metrics_path.c_str());
        if (rc == kExitOk) rc = kExitRuntime;
      } else {
        out << obs::MetricsRegistry::Default().ToJson() << "\n";
        std::printf("wrote %s\n", metrics_path.c_str());
      }
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
        if (rc == kExitOk) rc = kExitRuntime;
      } else {
        obs::TraceRecorder::Default().Write(out);
        std::printf("wrote %s\n", trace_path.c_str());
      }
    }
    return rc;
  };

  int rc;
  try {
    if (args.command == "list") {
      rc = CmdList();
    } else if (args.command == "export") {
      rc = CmdExport(args);
    } else if (args.command == "simulate") {
      rc = CmdSimulate(args);
    } else if (args.command == "estimate") {
      rc = CmdEstimate(args);
    } else if (args.command == "explain") {
      rc = CmdExplain(args);
    } else if (args.command == "compare") {
      rc = CmdCompare(args);
    } else if (args.command == "sweep") {
      rc = CmdSweep(args);
    } else if (args.command == "tune") {
      rc = CmdTune(args);
    } else if (args.command == "serve") {
      rc = CmdServe(args);
    } else if (args.command == "route") {
      rc = CmdRoute(args);
    } else if (args.command == "metrics") {
      rc = CmdMetrics(args);
    } else if (args.command == "top") {
      rc = CmdTop(args);
    } else {
      return Usage();
    }
  } catch (const FlagError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return dump_observability(kExitInvalid);
  }
  return dump_observability(rc);
}

}  // namespace
}  // namespace dagperf

int main(int argc, char** argv) { return dagperf::Main(argc, argv); }
