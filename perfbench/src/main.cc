// perfbench: drives the real `dagperf serve` / `dagperf route` binary with a
// seeded closed-loop workload over loopback TCP, checks every answer against
// a direct library call, and prints the benchmark's metrics. Normally started
// through perfbench/run.py, which builds this program and the server first.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --dagperf PATH/TO/dagperf --out DIR
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes the traced run:
// an untraced and a traced pass over half the stream each, then an
// in-process probe of every layer, and prints the per-layer metrics. The
// last line of standard output is the result as one JSON object.

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "hostprobe.h"
#include "loadgen.h"
#include "layers.h"
#include "obs/trace.h"
#include "process.h"
#include "service/line_client.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dagperf::Json;

// Set-ups per run; set-up time is reported as their median.
constexpr int kSetups = 5;
// Connections against `serve --threads 2` (or the router).
constexpr int kConnections = 2;
// Requests the in-process layer probe replays, and paired router samples.
constexpr std::size_t kProbeSample = 400;
constexpr std::size_t kRelayPairs = 4000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string dagperf;
  std::string out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// One measured pass: set-ups, the closed loop, and the server's counters.
struct Pass {
  std::vector<double> setup_s;
  LoadResult load;
  double cpu_us = 0.0;         // Every serving process.
  double router_cpu_us = 0.0;  // The router process alone (routed only).
  double peak_rss_mb = 0.0;
  // The host probe's median cost during the timed loop over its reference
  // cost: above 1 when the host ran this CPU slower than the reference.
  double host_slowdown = 1.0;
  std::vector<Json> service_stats;  // One `stats` result per serving shard.
  Json router_stats;                // The router's own stats (routed only).
  std::map<std::string, double> counters;  // `metrics` verb (traced serve).
  std::string fatal;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(v.size() - 1, static_cast<std::size_t>(q * v.size()));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// A window is the stretch between two consecutive samples (about 100 ms).
// Wall-clock figures come from the windows in which the hypervisor took at
// most this many ticks of CPU from the machine: on a shared host, stolen
// time stalls client and server alike, which is noise and not the program.
constexpr std::uint64_t kMaxStealTicksPerWindow = 1;

// Wall-clock figures over the undisturbed windows that span no restart.
struct Windows {
  std::vector<double> rate;           // Answers per second.
  std::vector<double> latency_ms;     // Round trips answered inside them.
  std::size_t total = 0;              // Windows before filtering.
};

Windows SplitWindows(const LoadResult& load) {
  const std::vector<Sample>& s = load.samples;
  // Window k runs from sample k-1 to sample k.
  const auto stolen = [&](std::size_t k) {
    return s[k].steal_ticks - s[k - 1].steal_ticks > kMaxStealTicksPerWindow;
  };
  const auto usable = [&](std::size_t k) {
    return s[k].t_s > s[k - 1].t_s && s[k].answered > s[k - 1].answered &&
           s[k].restarts == s[k - 1].restarts;
  };
  // A run with too few undisturbed windows keeps all of them rather than
  // report figures from a handful.
  constexpr std::size_t kMinWindows = 5;
  std::vector<bool> clean(s.size(), false);
  std::size_t total = 0, undisturbed = 0;
  for (std::size_t k = 1; k < s.size(); ++k) {
    if (!usable(k)) continue;
    ++total;
    clean[k] = !stolen(k);
    undisturbed += clean[k] ? 1 : 0;
  }
  if (undisturbed < kMinWindows) {
    for (std::size_t k = 1; k < s.size(); ++k) clean[k] = usable(k);
  }

  Windows w;
  w.total = total;
  for (std::size_t k = 1; k < s.size(); ++k) {
    if (!clean[k]) continue;
    const double dn = static_cast<double>(s[k].answered - s[k - 1].answered);
    w.rate.push_back(dn / (s[k].t_s - s[k - 1].t_s));
  }
  for (const OpRecord& r : load.ops) {
    if (r.state != OpState::kOk) continue;
    const std::size_t k = static_cast<std::size_t>(
        std::upper_bound(s.begin(), s.end(), static_cast<double>(r.done_s),
                         [](double t, const Sample& x) { return t < x.t_s; }) -
        s.begin());
    if (k < s.size() && clean[k]) {
      w.latency_ms.push_back(static_cast<double>(r.latency_ns) / 1e6);
    }
  }
  return w;
}

// VmHWM once a server instance has answered a quarter of the run's
// requests. A crashed server's successor starts with empty stores, so the
// figure is taken at a fixed answer count rather than at the end of the run,
// and one low enough that some instance nearly always reaches it.
double RssAtQuarterMb(const LoadResult& load) {
  const std::size_t quarter = load.ops.size() / 4;
  std::size_t instance_start = 0;
  double peak = 0.0;
  for (std::size_t k = 0; k < load.samples.size(); ++k) {
    const Sample& x = load.samples[k];
    if (k > 0 && x.restarts != load.samples[k - 1].restarts) {
      instance_start = load.samples[k - 1].answered;
    }
    if (x.answered - instance_start >= quarter) return x.rss_mb;
    peak = std::max(peak, x.rss_mb);
  }
  return peak;
}

std::size_t Answered(const LoadResult& load) {
  return static_cast<std::size_t>(std::count_if(
      load.ops.begin(), load.ops.end(),
      [](const OpRecord& r) { return r.state == OpState::kOk; }));
}

std::vector<double> LatenciesMs(const LoadResult& load) {
  std::vector<double> ms;
  for (const OpRecord& r : load.ops) {
    if (r.state == OpState::kOk) ms.push_back(static_cast<double>(r.latency_ns) / 1e6);
  }
  return ms;
}

double StatSum(const Pass& pass, const char* group, const char* key) {
  double sum = 0.0;
  for (const Json& stats : pass.service_stats) {
    const Json* g = group == nullptr ? &stats : stats.Get(group);
    if (g != nullptr) sum += g->GetNumber(key, 0.0);
  }
  return sum;
}

// With `trace`, the server runs with its own tracing and metrics armed and
// the load generator records a span per request.
Pass RunPass(const Workload& w, const Options& opt, const std::string& dir,
             const std::vector<Request>& stream, int setups,
             dagperf::obs::TraceRecorder* trace) {
  const OneCpu pin;
  Pass pass;
  const bool traced = trace != nullptr;
  std::filesystem::create_directories(dir);
  ServerSpec spec;
  spec.binary = opt.dagperf;
  spec.routed = w.routed;
  spec.dir = dir;
  if (traced) {
    spec.extra_args = {"--trace-out", dir + "/server-trace.json",
                       "--metrics-json", dir + "/server-metrics.json"};
  }
  std::unique_ptr<Server> server;
  const auto launch = [&]() -> std::string {
    if (server) server->Stop();
    server.reset();
    std::filesystem::remove_all(dir + "/fleet");  // No warm snapshot carry-over.
    std::string error;
    server = Server::Launch(spec, &error);
    if (!server) return error;
    return SendEach(server->port(), w.prime);
  };

  for (int i = 0; i < setups; ++i) {
    const Clock::time_point t0 = Clock::now();
    pass.fatal = launch();
    pass.setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (!pass.fatal.empty()) return pass;
  }

  double cpu_base = server->CpuUs();
  double router_base = server->MainCpuUs();
  Supervision supervision;
  supervision.exited = [&] { return server->Exited(); };
  // VmHWM dies with its process, so it is sampled while the server runs.
  supervision.rss_mb = [&] { return server->PeakRssMb(); };
  supervision.restart = [&] {
    pass.cpu_us += server->CpuUs() - cpu_base;
    pass.router_cpu_us += server->MainCpuUs() - router_base;
    cpu_base = router_base = 0.0;
    const std::string error = launch();
    if (!error.empty()) {
      std::fprintf(stderr, "restart failed: %s\n", error.c_str());
      return -1;
    }
    return server->port();
  };
  HostProbe probe;
  pass.load = RunClosedLoop(stream, w.sweep, server->port(), kConnections,
                            supervision, trace, &probe);
  pass.fatal = pass.load.fatal;
  pass.cpu_us += server->CpuUs() - cpu_base;
  pass.router_cpu_us += server->MainCpuUs() - router_base;
  if (!pass.load.probe_us.empty()) {
    pass.host_slowdown = Quantile(pass.load.probe_us, 0.5) / kReferenceProbeUs;
  }
  pass.peak_rss_mb = RssAtQuarterMb(pass.load);

  dagperf::Result<Json> stats = Query(server->port(), "{\"op\":\"stats\",\"id\":0}");
  if (stats.ok() && stats.value().Get("result") != nullptr) {
    const Json& result = *stats.value().Get("result");
    if (w.routed) {
      if (const Json* router = result.Get("router")) pass.router_stats = *router;
      if (const Json* shards = result.Get("shards");
          shards != nullptr && shards->type() == Json::Type::kArray) {
        for (const Json& shard : shards->AsArray()) {
          if (const Json* s = shard.Get("stats")) pass.service_stats.push_back(*s);
        }
      }
    } else {
      pass.service_stats.push_back(result);
    }
  }
  if (traced && !w.routed) {
    dagperf::Result<Json> metrics =
        Query(server->port(), "{\"op\":\"metrics\",\"id\":0}");
    const Json* counters = metrics.ok() && metrics.value().Get("result") != nullptr
                               ? metrics.value().Get("result")->Get("counters")
                               : nullptr;
    if (counters != nullptr && counters->type() == Json::Type::kObject) {
      for (const auto& [name, value] : counters->AsObject()) {
        pass.counters[name] = value.AsNumber();
      }
    }
  }
  server->Stop();
  return pass;
}

// Router hop, measured paired: each request goes to the fleet and to a lone
// shard-equivalent `serve --threads 1`, back to back in alternating order.
double RelayP50Us(const Workload& w, const Options& opt, const std::string& dir) {
  const OneCpu pin;
  ServerSpec routed_spec;
  routed_spec.binary = opt.dagperf;
  routed_spec.routed = true;
  routed_spec.dir = dir + "/relay-route";
  ServerSpec direct_spec = routed_spec;
  direct_spec.routed = false;
  direct_spec.threads = 1;
  direct_spec.dir = dir + "/relay-serve";
  std::filesystem::create_directories(routed_spec.dir);
  std::filesystem::create_directories(direct_spec.dir);
  std::string error;
  std::unique_ptr<Server> routed = Server::Launch(routed_spec, &error);
  std::unique_ptr<Server> direct = Server::Launch(direct_spec, &error);
  if (!routed || !direct || !SendEach(routed->port(), w.prime).empty() ||
      !SendEach(direct->port(), w.prime).empty()) {
    return 0.0;
  }
  dagperf::protocol::LineClient to_router;
  dagperf::protocol::LineClient to_shard;
  if (!to_router.Connect(routed->port()).ok() || !to_shard.Connect(direct->port()).ok()) {
    return 0.0;
  }
  const auto time_call = [](dagperf::protocol::LineClient& client,
                            const std::string& line) {
    const Clock::time_point t0 = Clock::now();
    (void)client.Call(line);
    return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  };
  std::vector<double> relay;
  for (std::size_t i = 0; i < std::min(kRelayPairs, w.requests.size()); ++i) {
    const std::string& line = w.requests[i].line;
    double via_router, via_shard;
    if (i % 2 == 0) {
      via_router = time_call(to_router, line);
      via_shard = time_call(to_shard, line);
    } else {
      via_shard = time_call(to_shard, line);
      via_router = time_call(to_router, line);
    }
    relay.push_back(via_router - via_shard);
  }
  return Quantile(relay, 0.5);
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// A short description of a request for the report: its flow and size.
std::string Describe(const Request& r) {
  if (r.flow >= 0) {
    return SuiteNames()[r.flow] + ", " + std::to_string(r.nodes) + " nodes";
  }
  dagperf::Result<Json> parsed = Json::Parse(r.line);
  const Json* flow = parsed.ok() ? parsed.value().Get("flow") : nullptr;
  const std::string name = flow != nullptr ? flow->GetString("name", "?") : "?";
  return "inline " + name + " (" + std::to_string(r.line.size()) + " bytes), " +
         std::to_string(r.nodes) + " nodes";
}

// Checks a pass's answers; returns false (and says why) when the pass must
// not count as correct. Only requests that killed the server twice may fail.
bool CheckPass(const Workload& w, const Pass& pass, std::size_t* mismatches,
               const char* label) {
  bool ok = true;
  if (!pass.fatal.empty()) {
    std::printf("%s: run failed: %s\n", label, pass.fatal.c_str());
    return false;
  }
  std::string first;
  *mismatches = VerifyAnswers(w, pass.load, 4, &first);
  if (*mismatches > 0) {
    std::printf("%s: %zu answers differ from the library; first: %s\n", label,
                *mismatches, first.c_str());
    ok = false;
  }
  if (pass.load.error_responses > 0) {
    std::printf("%s: %llu error answers; first: %s\n", label,
                static_cast<unsigned long long>(pass.load.error_responses),
                pass.load.first_errors.empty() ? "" : pass.load.first_errors[0].c_str());
    ok = false;
  }
  if (!pass.load.killers.empty()) {
    std::printf("%s: %zu requests killed the server twice (server restarts: %llu):\n",
                label, pass.load.killers.size(),
                static_cast<unsigned long long>(pass.load.restarts));
    for (std::size_t op : pass.load.killers) {
      std::printf("  request %zu: %s\n", op, Describe(w.requests[op]).c_str());
    }
  }
  return ok;
}

std::size_t FailedOps(const Pass& pass, std::size_t mismatches) {
  return pass.load.ops.size() - Answered(pass.load) + mismatches;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double HitRate(const Pass& pass, const char* store) {
  const double hits = StatSum(pass, store, "hits");
  return Ratio(hits, hits + StatSum(pass, store, "misses"));
}

double Counter(const Pass& pass, const std::string& name) {
  const auto it = pass.counters.find(name);
  return it == pass.counters.end() ? 0.0 : it->second;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --trace 0: the end-to-end metrics of one full, untraced pass.
int RunEndToEnd(const Workload& w, const Options& opt, const std::string& dir,
                bool self_test_ok, Clock::time_point run_start) {
  const std::size_t ops = w.requests.size();
  const Pass pass = RunPass(w, opt, dir, w.requests, kSetups, nullptr);
  std::size_t mismatches = 0;
  const bool ok = CheckPass(w, pass, &mismatches, "run") && self_test_ok;
  const std::size_t answered = Answered(pass.load);
  const std::size_t failed = FailedOps(pass, mismatches);
  const Windows windows = SplitWindows(pass.load);
  const double rate = Quantile(windows.rate, 0.5);
  const double p50_ms = Quantile(windows.latency_ms, 0.5);
  const double cpu_us = Ratio(pass.cpu_us, answered);
  const double setup_s = Quantile(pass.setup_s, 0.5);
  // Every time is reported at the reference host speed.
  const double slow = pass.host_slowdown;
  const std::vector<Metric> metrics = {
      {"throughput_rps", rate * slow, "1/s"},
      {"latency_p50_ms", p50_ms / slow, "ms"},
      {"success_rate", Ratio(static_cast<double>(answered - mismatches), ops), "frac"},
      // CPU time is not inflated by stolen time, and the whole run keeps
      // the same mix of cold and warm requests on every seed.
      {"server_cpu_us_per_op", cpu_us / slow, "us"},
      {"peak_rss_mb", pass.peak_rss_mb, "MiB"},
      {"setup_s", setup_s / slow, "s"},
  };
  std::printf("whole run: %.2f s, %.1f answers/s, p50 %.4f ms, %.1f us CPU per answer\n",
              pass.load.wall_s, Ratio(answered, pass.load.wall_s),
              Quantile(LatenciesMs(pass.load), 0.5), cpu_us);
  std::printf("as measured: %.1f answers/s, p50 %.4f ms, %.2f us CPU per answer, "
              "set-up %.4f s; host slowdown %.4f\n",
              rate, p50_ms, cpu_us, setup_s, slow);
  char title[240];
  std::snprintf(title, sizeof(title),
                "end-to-end, %s (%zu answered of %zu, %zu failed, %llu server "
                "restarts; %zu of %zu windows undisturbed, %zu latency samples; "
                "%zu set-ups)",
                w.name.c_str(), answered, ops, failed,
                static_cast<unsigned long long>(pass.load.restarts), windows.rate.size(),
                windows.total, windows.latency_ms.size(), pass.setup_s.size());
  PrintTable(title, metrics);
  std::printf("run wall time %.2f s\n", SecondsSince(run_start));
  PrintResult(ok && answered > 0, ops, failed, metrics);
  return 0;
}

// --trace 1: the same half of the stream untraced, then traced, then the
// in-process layer probe; prints the per-layer metrics.
int RunTraced(const Workload& w, const Options& opt, const std::string& dir,
              bool self_test_ok, Clock::time_point run_start) {
  const std::vector<Request> half(
      w.requests.begin(), w.requests.begin() + static_cast<long>(w.requests.size() / 2));
  dagperf::obs::TraceRecorder trace;
  trace.SetEnabled(true);
  const Pass plain = RunPass(w, opt, dir + "/untraced", half, 1, nullptr);
  const Pass traced = RunPass(w, opt, dir + "/traced", half, 1, &trace);
  std::size_t mismatches = 0, traced_mismatches = 0;
  bool ok = CheckPass(w, plain, &mismatches, "untraced pass");
  ok = CheckPass(w, traced, &traced_mismatches, "traced pass") && ok && self_test_ok;

  std::vector<double> overhead_us, queue_us, service_us, states;
  double request_bytes = 0.0, response_bytes = 0.0;
  for (std::size_t i = 0; i < plain.load.ops.size(); ++i) {
    const OpRecord& r = plain.load.ops[i];
    request_bytes += static_cast<double>(half[i].line.size() + 1);
    if (r.state != OpState::kOk) continue;
    response_bytes += r.response_bytes;
    const double waited_us = (r.queue_wait_ms + r.service_ms) * 1e3;
    overhead_us.push_back(static_cast<double>(r.latency_ns) / 1e3 - waited_us);
    queue_us.push_back(r.queue_wait_ms * 1e3);
    service_us.push_back(r.service_ms * 1e3);
    states.push_back(r.states);
  }
  const double answered = static_cast<double>(Answered(plain.load));
  std::map<std::string, double> probe;
  {
    const OneCpu pin;
    probe = ProbeLayers(w, plain.load, kProbeSample, &trace);
  }
  const Windows plain_windows = SplitWindows(plain.load);
  const double p50_plain =
      Quantile(plain_windows.latency_ms, 0.5) / plain.host_slowdown;
  const double p50_traced =
      Quantile(SplitWindows(traced.load).latency_ms, 0.5) / traced.host_slowdown;

  const std::vector<Metric> metrics = {
      {"server.overhead_us_p50", Quantile(overhead_us, 0.5), "us"},
      {"protocol.parse_us", probe.at("protocol.parse_us"), "us"},
      {"protocol.handle_us", probe.at("protocol.handle_us"), "us"},
      {"protocol.dump_us", probe.at("protocol.dump_us"), "us"},
      {"protocol.request_bytes", Ratio(request_bytes, half.size()), "bytes"},
      {"protocol.response_bytes", Ratio(response_bytes, answered), "bytes"},
      {"service.queue_wait_us_p50", Quantile(queue_us, 0.5), "us"},
      {"service.queue_wait_us_p99", Quantile(queue_us, 0.99), "us"},
      {"service.service_us_p50", Quantile(service_us, 0.5), "us"},
      {"service.submit_us", probe.at("service.submit_us"), "us"},
      {"service.coalesced_frac",
       Ratio(StatSum(plain, "coalesce", "attached"),
             StatSum(plain, nullptr, "completed")),
       "frac"},
      {"service.shed", StatSum(plain, nullptr, "shed"), "count"},
      {"service.expired_in_queue", StatSum(plain, nullptr, "expired_in_queue"), "count"},
      {"service.latency_p99_ms", Quantile(plain_windows.latency_ms, 0.99), "ms"},
      {"dag.from_json_us", probe.at("dag.from_json_us"), "us"},
      {"dag.validate_us", probe.at("dag.validate_us"), "us"},
      {"model.estimator.states_per_op", Mean(states), "count"},
      {"model.estimator.estimate_us", probe.at("model.estimator.estimate_us"), "us"},
      {"model.estimator.self_us", probe.at("model.estimator.self_us"), "us"},
      {"boe.task_time_calls_per_op", probe.at("boe.task_time_calls_per_op"), "count"},
      {"boe.task_time_us", probe.at("boe.task_time_us"), "us"},
      {"model.memo.hit_rate", HitRate(plain, "cache"), "frac"},
      {"model.memo.entries", StatSum(plain, "cache", "entries"), "count"},
      {"model.memo.insert_races", Counter(traced, "memo.insert_races"), "count"},
      {"model.incremental.hit_rate", HitRate(plain, "incremental"), "frac"},
      {"model.incremental.resumed_states_per_op",
       Ratio(StatSum(plain, "incremental", "resumed_states"), answered), "count"},
      {"model.incremental.bytes", StatSum(plain, "incremental", "bytes"), "bytes"},
      {"model.incremental.rejected_full", Counter(traced, "incremental.store_rejected"),
       "count"},
      {"model.sweep.candidates_per_op", static_cast<double>(half[0].window), "count"},
      {"model.sweep.batch_us", probe.at("model.sweep.batch_us"), "us"},
      {"router.relay_us_p50", w.routed ? RelayP50Us(w, opt, dir) : 0.0, "us"},
      {"router.cpu_us_per_op", w.routed ? Ratio(plain.router_cpu_us, answered) : 0.0,
       "us"},
      {"router.reroutes", plain.router_stats.GetNumber("reroutes", 0.0), "count"},
      {"harness.server_restarts", static_cast<double>(plain.load.restarts), "count"},
      {"harness.error_rate", Ratio(FailedOps(plain, mismatches), half.size()), "frac"},
      {"obs.traced_overhead_frac", p50_plain > 0 ? p50_traced / p50_plain - 1.0 : 0.0,
       "frac"},
      {"harness.host_slowdown", plain.host_slowdown, "ratio"},
  };
  char title[240];
  std::snprintf(title, sizeof(title),
                "per-layer, %s (untraced pass: %zu answered of %zu; probe replayed %.0f "
                "requests in process)",
                w.name.c_str(), Answered(plain.load), half.size(),
                probe.at("probe.requests"));
  PrintTable(title, metrics);
  const std::string trace_path = dir + "/trace.json";
  std::ofstream trace_out(trace_path);
  trace.Write(trace_out);
  std::printf("chrome trace of the harness spans: %s (%zu events)\n", trace_path.c_str(),
              trace.size());
  std::printf("the server's own trace: %s/traced/server-trace.json\n", dir.c_str());
  std::printf("run wall time %.2f s\n", SecondsSince(run_start));
  PrintResult(ok && answered > 0, half.size(), FailedOps(plain, mismatches), metrics);
  return 0;
}

int Run(const Options& opt) {
  const Clock::time_point run_start = Clock::now();
  const std::size_t ops =
      OpsPerSecond(opt.workload) * static_cast<std::size_t>(opt.seconds);
  const Workload w = MakeWorkload(opt.workload, opt.seed, ops);
  const std::string self_test = SelfTest(w, opt.seed);
  if (!self_test.empty()) {
    std::printf("generator self-test failed: %s\n", self_test.c_str());
  }
  const std::string dir = opt.out + "/" + opt.workload + "-seed" +
                          std::to_string(opt.seed) + (opt.trace ? "-traced" : "");
  std::filesystem::remove_all(dir);
  std::printf("workload %s, seed %llu: %zu ops over %d connections\n", w.name.c_str(),
              static_cast<unsigned long long>(opt.seed), w.requests.size(), kConnections);
  return opt.trace ? RunTraced(w, opt, dir, self_test.empty(), run_start)
                   : RunEndToEnd(w, opt, dir, self_test.empty(), run_start);
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else if (key == "--dagperf") {
      opt->dagperf = value;
    } else if (key == "--out") {
      opt->out = value;
    } else {
      return false;
    }
  }
  const auto& names = WorkloadNames();
  return argc % 2 == 1 && opt->seconds > 0 && !opt->dagperf.empty() &&
         !opt->out.empty() &&
         std::find(names.begin(), names.end(), opt->workload) != names.end();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Orphaned shard processes are re-parented here, so they can be reaped.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  std::signal(SIGPIPE, SIG_IGN);
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "warm-zipf|cold-inline|tuner-neighbourhood|routed-zipf\n"
                 "                 --seed N --seconds S --trace 0|1 --dagperf BIN "
                 "--out DIR\n");
    return 2;
  }
  return perfbench::Run(opt);
}
