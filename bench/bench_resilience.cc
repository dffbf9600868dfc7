// Resilience-layer cost: what do the compiled-in fault seams cost when
// disarmed (the always-on production configuration), and what does the
// serving path look like under a 10% fault schedule?
//
//   micro   — a tight loop over a disarmed FaultPoint::Evaluate(): the
//             advertised price is one relaxed atomic load per seam.
//   baseline— the warm serving path (one EstimationService, persistent
//             checkpoint store) with the injector disarmed: req/s, p50,
//             p99.
//   faulted — the same workload with a seeded 10% fault schedule armed
//             (service.execute errors + model.task_time latency): req/s,
//             p50, p99 and the failure count. Failures are answered, not
//             dropped — the denominator never shrinks.
//
// The armed run counts seam evaluations, which calibrates the disarmed
// overhead estimate: seams/request x ns/disarmed-check, reported as a
// percentage of baseline p50 (target: <= 1%).
//
// Reports to stdout and BENCH_resilience.json.
//
// Build & run:  ./build/bench/bench_resilience [clients] [requests-per-client]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "resilience/fault.h"
#include "service/service.h"
#include "workloads/suite.h"

namespace dagperf {
namespace {

struct RunResult {
  std::vector<double> latencies;
  double wall_seconds = 0.0;
  std::uint64_t failed = 0;

  double Rps() const {
    return wall_seconds > 0
               ? static_cast<double>(latencies.size()) / wall_seconds
               : 0.0;
  }
  double QuantileMs(double q) {
    if (latencies.empty()) return 0.0;
    std::sort(latencies.begin(), latencies.end());
    const std::size_t i = std::min(
        latencies.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(latencies.size())));
    return latencies[i] * 1e3;
  }
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Drives `clients` threads of `per_client` sequential requests against the
/// service; failed requests are counted, not fatal — under a fault schedule
/// they are the point.
RunResult DriveClients(EstimationService& service, int clients, int per_client,
                       const std::vector<std::string>& names) {
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> threads;
  const double start = Now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(per_client);
      for (int i = 0; i < per_client; ++i) {
        const double begin = Now();
        if (!service.Submit(EstimateRequest::For(names[(c + i) % names.size()]))
                 .get()
                 .ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        latencies[c].push_back(Now() - begin);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  RunResult result;
  result.wall_seconds = Now() - start;
  result.failed = failed.load();
  for (std::vector<double>& per_thread : latencies) {
    result.latencies.insert(result.latencies.end(), per_thread.begin(),
                            per_thread.end());
  }
  return result;
}

Json RunJson(RunResult& run) {
  Json doc = Json::MakeObject();
  doc.Set("requests_per_sec", Json::MakeNumber(run.Rps()));
  doc.Set("p50_ms", Json::MakeNumber(run.QuantileMs(0.50)));
  doc.Set("p99_ms", Json::MakeNumber(run.QuantileMs(0.99)));
  doc.Set("failed", Json::MakeNumber(static_cast<double>(run.failed)));
  return doc;
}

int Main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 4;
  const int per_client = argc > 2 ? std::atoi(argv[2]) : 200;
  const long long micro_iters = argc > 3 ? std::atoll(argv[3]) : 20'000'000;

  resilience::FaultInjector& injector = resilience::FaultInjector::Default();
  injector.ResetAll();

  // --- micro: the disarmed seam itself.
  resilience::FaultPoint& probe = injector.GetPoint("bench.micro");
  std::uint64_t fired = 0;
  const double micro_start = Now();
  for (long long i = 0; i < micro_iters; ++i) {
    fired += probe.Evaluate().fired ? 1u : 0u;
  }
  const double micro_seconds = Now() - micro_start;
  if (fired != 0) {
    std::fprintf(stderr, "disarmed point fired!?\n");
    return 1;
  }
  const double ns_per_check =
      micro_iters > 0 ? micro_seconds * 1e9 / static_cast<double>(micro_iters)
                      : 0.0;
  std::printf("bench_resilience: %d clients x %d requests\n", clients,
              per_client);
  std::printf("disarmed seam check: %.2f ns/op (%lld iterations)\n",
              ns_per_check, micro_iters);

  // --- the serving workload (same shape as bench_serve's warm stack).
  Result<std::vector<NamedFlow>> suite = TableThreeSuite(0.5);
  if (!suite.ok()) {
    std::fprintf(stderr, "%s\n", suite.status().ToString().c_str());
    return 1;
  }
  const std::size_t distinct = std::min<std::size_t>(4, suite->size());
  std::vector<std::string> names;
  EstimationService service;
  for (std::size_t i = 0; i < distinct; ++i) {
    names.push_back((*suite)[i].name);
    if (Status st =
            service.RegisterWorkflow((*suite)[i].name, (*suite)[i].flow);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Warm the checkpoint store so both measured runs see the steady serving
  // state.
  (void)DriveClients(service, clients, per_client / 4 + 1, names);

  // --- baseline: seams compiled in, injector disarmed.
  RunResult baseline = DriveClients(service, clients, per_client, names);
  std::printf("baseline (disarmed):  %8.1f req/s  p50 %6.3f ms  p99 %6.3f ms\n",
              baseline.Rps(), baseline.QuantileMs(0.50),
              baseline.QuantileMs(0.99));

  // --- faulted: seeded 10% schedule — execute errors plus task-time latency.
  if (!injector
           .Configure("service.execute",
                      {.probability = 0.10, .error = ErrorCode::kInternal})
           .ok() ||
      !injector
           .Configure("model.task_time",
                      {.probability = 0.10, .latency_ms = 0.5})
           .ok() ||
      // Armed at a vanishing probability purely so their evaluation
      // counters run: the seams/request calibration must see every seam the
      // disarmed path crosses, not just the two that inject.
      !injector.Configure("service.admit", {.probability = 1e-12}).ok() ||
      !injector.Configure("pool.submit", {.probability = 1e-12}).ok()) {
    std::fprintf(stderr, "fault configuration rejected\n");
    return 1;
  }
  injector.Arm(1);
  RunResult faulted = DriveClients(service, clients, per_client, names);
  // Seam evaluations are only counted while armed; the per-request count
  // calibrates what the disarmed run paid in atomic loads.
  std::uint64_t seam_evals = 0;
  for (const resilience::FaultInjector::PointStats& point : injector.Stats()) {
    seam_evals += point.evaluations;
  }
  injector.Disarm();
  injector.ResetAll();
  const double total_requests = static_cast<double>(clients) * per_client;
  const double seams_per_request =
      total_requests > 0 ? static_cast<double>(seam_evals) / total_requests
                         : 0.0;
  std::printf("faulted (10%% sched):  %8.1f req/s  p50 %6.3f ms  p99 %6.3f ms  "
              "(%llu failed)\n",
              faulted.Rps(), faulted.QuantileMs(0.50),
              faulted.QuantileMs(0.99),
              static_cast<unsigned long long>(faulted.failed));

  const double p50_baseline_ms = baseline.QuantileMs(0.50);
  const double disabled_overhead_percent =
      p50_baseline_ms > 0
          ? 100.0 * (seams_per_request * ns_per_check * 1e-6) / p50_baseline_ms
          : 0.0;
  std::printf(
      "disarmed overhead: %.2f seams/request x %.2f ns = %.4f%% of p50 "
      "(target <= 1%%)\n",
      seams_per_request, ns_per_check, disabled_overhead_percent);

  Json doc = Json::MakeObject();
  doc.Set("clients", Json::MakeNumber(clients));
  doc.Set("requests_per_client", Json::MakeNumber(per_client));
  doc.Set("disarmed_check_ns", Json::MakeNumber(ns_per_check));
  doc.Set("seam_evaluations_per_request", Json::MakeNumber(seams_per_request));
  doc.Set("disabled_overhead_percent_of_p50",
          Json::MakeNumber(disabled_overhead_percent));
  doc.Set("disabled_overhead_target_percent", Json::MakeNumber(1.0));
  doc.Set("baseline", RunJson(baseline));
  doc.Set("faulted_10pct", RunJson(faulted));
  std::ofstream out("BENCH_resilience.json");
  out << doc.Dump() << "\n";
  std::printf("wrote BENCH_resilience.json\n");
  return disabled_overhead_percent <= 1.0 ? 0 : 1;
}

}  // namespace
}  // namespace dagperf

int main(int argc, char** argv) { return dagperf::Main(argc, argv); }
