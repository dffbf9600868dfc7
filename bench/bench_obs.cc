// Request-observability cost: what do the serving-grade telemetry hooks
// (RequestRecord capture into the flight recorder, windowed SLO histograms)
// cost when armed, and do they really vanish when disarmed?
//
//   micro   — tight loops over the three per-request hooks in both states:
//             FlightRecorder::Record (a struct copy + seqlock publish when
//             armed; one relaxed load disarmed), WindowedHistogram::Record
//             (an epoch-tagged bucket increment), and
//             SloTracker::RecordOutcome (op-class fan-out over windows).
//   baseline— the warm serving path with observability disarmed: req/s,
//             p50, p99.
//   armed   — the same workload with metrics on, SLO objectives set, and
//             the flight recorder capturing every request.
//
// The armed run's measured per-request hook cost (micro ns x hooks/request)
// is reported as a percentage of baseline p50 — the calibrated gate CI
// enforces (enabled <= 1%, disarmed ~ 0), immune to shared-runner noise in
// the A/B wall-clock numbers, which are reported for context only.
//
// Reports to stdout and BENCH_obs.json.
//
// Build & run:  ./build/bench/bench_obs [clients] [requests-per-client]

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
#include "obs/metrics.h"
#include "obs/request_record.h"
#include "obs/slo.h"
#include "obs/window.h"
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

/// ns/op of `op` over `iters` iterations (op must not be optimised away —
/// every hook below mutates shared atomics or a sink the compiler can't
/// prove dead).
template <typename Op>
double MeasureNs(long long iters, Op&& op) {
  const double start = Now();
  for (long long i = 0; i < iters; ++i) op(i);
  return iters > 0 ? (Now() - start) * 1e9 / static_cast<double>(iters) : 0.0;
}

int Main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 4;
  const int per_client = argc > 2 ? std::atoi(argv[2]) : 200;
  const long long micro_iters = argc > 3 ? std::atoll(argv[3]) : 5'000'000;

  const bool was_enabled = obs::MetricsEnabled();

  // --- micro: the three per-request hooks, disarmed then armed.
  obs::FlightRecorder flight;
  obs::WindowedHistogram window;
  obs::SloTracker slo({.p99_ms = 50.0, .availability = 0.999});
  obs::RequestRecord record;
  record.id = 1;
  record.set_op("estimate");
  record.set_workflow("bench");
  record.set_cluster("default");
  record.submit_us = 1.0;
  record.start_us = 2.0;
  record.ok = true;

  // Latencies cycle through a bounded, non-monotonic range so the exemplar
  // floor behaves as in production: most records lose to the pinned slowest
  // set and never take the exemplar mutex. (A monotonically increasing
  // latency would beat the floor every time — a pathological input, not the
  // hot path.)
  const auto end_us_for = [](long long i) {
    return 10.0 + static_cast<double>((i * 37) % 1000);
  };

  obs::SetMetricsEnabled(false);
  const double flight_disarmed_ns = MeasureNs(micro_iters, [&](long long i) {
    record.end_us = end_us_for(i);
    flight.Record(record);
  });
  const double window_disarmed_ns = MeasureNs(micro_iters, [&](long long i) {
    window.Record(1.0, static_cast<double>(i));
  });
  const double slo_disarmed_ns = MeasureNs(micro_iters, [&](long long i) {
    slo.RecordOutcome(obs::OpClass::kEstimate, 2.0, true, false, true,
                      static_cast<double>(i % 1000000));
  });

  obs::SetMetricsEnabled(true);
  const double flight_armed_ns = MeasureNs(micro_iters, [&](long long i) {
    record.end_us = end_us_for(i);
    flight.Record(record);
  });
  const double window_armed_ns = MeasureNs(micro_iters, [&](long long i) {
    window.Record(1.0, static_cast<double>(i % 1000000));
  });
  // Calibration input mirrors the macro workload below (no per-request
  // deadline); the deadline-carrying variant pays two extra windowed
  // counters and is reported separately.
  const double slo_armed_ns = MeasureNs(micro_iters, [&](long long i) {
    slo.RecordOutcome(obs::OpClass::kEstimate, 2.0, true, false, true,
                      static_cast<double>(i % 1000000));
  });
  const double slo_deadline_armed_ns = MeasureNs(micro_iters, [&](long long i) {
    slo.RecordOutcome(obs::OpClass::kEstimate, 2.0, true, true, true,
                      static_cast<double>(i % 1000000));
  });
  obs::SetMetricsEnabled(false);

  std::printf("bench_obs: %d clients x %d requests, %lld micro iterations\n",
              clients, per_client, micro_iters);
  std::printf("hook            disarmed      armed\n");
  std::printf("flight.Record   %7.2f ns  %7.2f ns\n", flight_disarmed_ns,
              flight_armed_ns);
  std::printf("window.Record   %7.2f ns  %7.2f ns\n", window_disarmed_ns,
              window_armed_ns);
  std::printf("slo.Outcome     %7.2f ns  %7.2f ns\n", slo_disarmed_ns,
              slo_armed_ns);
  std::printf("slo.Outcome+ddl              %7.2f ns\n", slo_deadline_armed_ns);

  // --- the serving workload (bench_serve's warm-stack shape).
  Result<std::vector<NamedFlow>> suite = TableThreeSuite(0.5);
  if (!suite.ok()) {
    std::fprintf(stderr, "%s\n", suite.status().ToString().c_str());
    return 1;
  }
  const std::size_t distinct = std::min<std::size_t>(4, suite->size());
  std::vector<std::string> names;
  for (std::size_t i = 0; i < distinct; ++i) names.push_back((*suite)[i].name);

  const auto build_service = [&](bool armed) {
    ServiceOptions options;
    if (armed) {
      options.slo.p99_ms = 50.0;
      options.slo.availability = 0.999;
    }
    auto service = std::make_unique<EstimationService>(options);
    for (std::size_t i = 0; i < distinct; ++i) {
      if (Status st =
              service->RegisterWorkflow((*suite)[i].name, (*suite)[i].flow);
          !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        std::exit(1);
      }
    }
    return service;
  };

  // --- baseline: observability disarmed (the library default).
  RunResult baseline;
  {
    std::unique_ptr<EstimationService> service = build_service(false);
    (void)DriveClients(*service, clients, per_client / 4 + 1, names);
    baseline = DriveClients(*service, clients, per_client, names);
  }
  std::printf("baseline (disarmed): %8.1f req/s  p50 %6.3f ms  p99 %6.3f ms\n",
              baseline.Rps(), baseline.QuantileMs(0.50),
              baseline.QuantileMs(0.99));

  // --- armed: metrics on, SLO objectives set, every request recorded.
  RunResult armed;
  std::uint64_t recorded = 0;
  {
    obs::SetMetricsEnabled(true);
    std::unique_ptr<EstimationService> service = build_service(true);
    (void)DriveClients(*service, clients, per_client / 4 + 1, names);
    armed = DriveClients(*service, clients, per_client, names);
    recorded = service->flight_recorder().total_recorded();
    obs::SetMetricsEnabled(false);
  }
  std::printf("armed (full obs):    %8.1f req/s  p50 %6.3f ms  p99 %6.3f ms  "
              "(%llu records)\n",
              armed.Rps(), armed.QuantileMs(0.50), armed.QuantileMs(0.99),
              static_cast<unsigned long long>(recorded));
  if (recorded == 0) {
    std::fprintf(stderr, "armed run captured no RequestRecords\n");
    return 1;
  }

  // --- calibrated gates. Per request the service pays one flight record
  // and one SLO outcome; RecordOutcome itself drives the windowed
  // histograms, so window.Record is a component above, not an extra term.
  const double p50_ms = baseline.QuantileMs(0.50);
  const double armed_request_ns = flight_armed_ns + slo_armed_ns;
  const double disarmed_request_ns = flight_disarmed_ns + slo_disarmed_ns;
  const double enabled_overhead_percent =
      p50_ms > 0 ? 100.0 * (armed_request_ns * 1e-6) / p50_ms : 0.0;
  const double disarmed_overhead_percent =
      p50_ms > 0 ? 100.0 * (disarmed_request_ns * 1e-6) / p50_ms : 0.0;
  std::printf(
      "enabled overhead:  %.1f ns/request = %.4f%% of p50 (target <= 1%%)\n",
      armed_request_ns, enabled_overhead_percent);
  // The disarmed gate is absolute: the promise is "a few relaxed loads",
  // which must not depend on how warm the denominator workload happens to
  // be on a given runner.
  std::printf(
      "disarmed overhead: %.1f ns/request (target <= 10 ns; %.4f%% of p50)\n",
      disarmed_request_ns, disarmed_overhead_percent);

  Json micro = Json::MakeObject();
  micro.Set("flight_record_disarmed_ns", Json::MakeNumber(flight_disarmed_ns));
  micro.Set("flight_record_armed_ns", Json::MakeNumber(flight_armed_ns));
  micro.Set("window_record_disarmed_ns", Json::MakeNumber(window_disarmed_ns));
  micro.Set("window_record_armed_ns", Json::MakeNumber(window_armed_ns));
  micro.Set("slo_outcome_disarmed_ns", Json::MakeNumber(slo_disarmed_ns));
  micro.Set("slo_outcome_armed_ns", Json::MakeNumber(slo_armed_ns));
  micro.Set("slo_outcome_with_deadline_armed_ns",
            Json::MakeNumber(slo_deadline_armed_ns));

  Json doc = Json::MakeObject();
  doc.Set("clients", Json::MakeNumber(clients));
  doc.Set("requests_per_client", Json::MakeNumber(per_client));
  doc.Set("micro", std::move(micro));
  doc.Set("baseline_disarmed", RunJson(baseline));
  doc.Set("armed", RunJson(armed));
  doc.Set("flight_records_captured",
          Json::MakeNumber(static_cast<double>(recorded)));
  doc.Set("enabled_overhead_percent_of_p50",
          Json::MakeNumber(enabled_overhead_percent));
  doc.Set("enabled_overhead_target_percent", Json::MakeNumber(1.0));
  doc.Set("disarmed_overhead_percent_of_p50",
          Json::MakeNumber(disarmed_overhead_percent));
  doc.Set("disarmed_request_ns", Json::MakeNumber(disarmed_request_ns));
  doc.Set("disarmed_request_target_ns", Json::MakeNumber(10.0));
  std::ofstream out("BENCH_obs.json");
  out << doc.Dump() << "\n";
  std::printf("wrote BENCH_obs.json\n");

  obs::SetMetricsEnabled(was_enabled);
  return enabled_overhead_percent <= 1.0 && disarmed_request_ns <= 10.0 ? 0
                                                                        : 1;
}

}  // namespace
}  // namespace dagperf

int main(int argc, char** argv) { return dagperf::Main(argc, argv); }
