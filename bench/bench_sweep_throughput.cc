// Sweep-engine throughput: the what-if workload the paper motivates (§I,
// job self-tuning / capacity planning) is hundreds of Estimate() calls over
// candidate knobs. This bench prices two candidate sets:
//
//  * the 64-candidate nightly reducer sweep (three jobs per candidate),
//    four ways — serial uncached, serial + memo, parallel + memo, and the
//    full engine with incremental prefix-resume on — and
//  * a dense tuner neighborhood (a long ETL chain whose LAST job carries
//    the swept knob over 32 candidates), re-swept warm the way a tuning
//    session sees it: the memo and checkpoint store live for the session,
//    so each re-estimation resumes from checkpointed state instead of
//    replaying the shared prefix. This is where incremental re-estimation
//    pays off hardest.
//
// It also times one DrfAllocator::Allocate call (2 and 4 stages with
// 10^6-task backlogs on 10, 1 000 and 10 000 nodes): the cost must not
// scale with the number of containers granted.
//
// Every configuration is checked bit-identical against the serial uncached
// loop; results go to stdout and BENCH_sweep.json (gated in CI against the
// committed copy).
//
// Build & run:  ./build/bench/bench_sweep_throughput [reps]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "model/sweep.h"
#include "scheduler/drf.h"
#include "workloads/micro.h"
#include "workloads/tpch.h"

namespace dagperf {
namespace {

constexpr int kCandidates = 64;
constexpr int kThreads = 8;
constexpr int kDenseChainJobs = 48;
constexpr int kDenseCandidates = 64;

/// One reducer-sweep candidate: the nightly DAG (TeraSort feeding two
/// TPC-H reports) with the TeraSort reducer count set to `reducers`. Only
/// one stage of the DAG changes between candidates — the situation the
/// cross-candidate cache is built for.
DagWorkflow NightlyCandidate(int reducers) {
  JobSpec ts = TsSpec(Bytes::FromGB(100));
  ts.num_reduce_tasks = reducers;
  DagBuilder b("nightly-r" + std::to_string(reducers));
  b.AddJob(ts);
  AppendTpchQuery(b, 5);
  AppendTpchQuery(b, 1);
  return std::move(b).Build().value();
}

/// One dense-neighborhood candidate: a kDenseChainJobs-long ETL pipeline
/// whose final (small aggregation) job carries the swept reducer count.
/// Candidates share everything up to the last job's activation, so a
/// resuming estimate skips the heavy ETL prefix and replays only the
/// two-job tail.
DagWorkflow DenseCandidate(int reducers) {
  DagBuilder b("dense-r" + std::to_string(reducers));
  JobId prev = b.AddJob(TsSpec(Bytes::FromGB(50)));
  for (int i = 1; i < kDenseChainJobs - 2; ++i) {
    prev = b.AddJobAfter(prev, TsSpec(Bytes::FromGB(50)));
  }
  prev = b.AddJobAfter(prev, TsSpec(Bytes::FromGB(10)));
  JobSpec last = TsSpec(Bytes::FromGB(10));
  last.num_reduce_tasks = reducers;
  b.AddJobAfter(prev, last);
  return std::move(b).Build().value();
}

struct Timed {
  double seconds = 0.0;
  SweepResult result;
};

Timed Run(const std::vector<SweepCandidate>& requests,
          const TaskTimeSource& source, const SweepOptions& options, int reps) {
  Timed best;
  best.seconds = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    SweepResult result = EstimateBatch(requests, SchedulerConfig{}, source, options);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (elapsed < best.seconds) {
      best.seconds = elapsed;
      best.result = std::move(result);
    }
  }
  return best;
}

bool BitIdentical(const SweepResult& got, const SweepResult& want) {
  if (got.estimates.size() != want.estimates.size()) return false;
  for (size_t i = 0; i < got.estimates.size(); ++i) {
    if (!got.estimates[i].ok() || !want.estimates[i].ok()) return false;
    if (got.estimates[i]->makespan.seconds() !=
        want.estimates[i]->makespan.seconds()) {
      return false;
    }
  }
  return true;
}

std::vector<SweepCandidate> RequestsFor(const std::vector<DagWorkflow>& flows,
                                         const ClusterSpec& cluster) {
  std::vector<SweepCandidate> requests;
  requests.reserve(flows.size());
  for (const DagWorkflow& flow : flows) {
    requests.push_back({&flow, cluster, flow.name()});
  }
  return requests;
}

/// Nanoseconds per DrfAllocator::Allocate call for `stages` stages with
/// 10^6-task backlogs on `nodes` paper nodes: the call count doubles until
/// one timed batch lasts 10 ms; best of three batches.
double AllocateNs(int stages, int nodes) {
  ClusterSpec cluster = ClusterSpec::PaperCluster();
  cluster.num_nodes = nodes;
  const DrfAllocator allocator(cluster, SchedulerConfig{});
  std::vector<StageDemand> demands(static_cast<size_t>(stages));
  for (StageDemand& demand : demands) demand.remaining_tasks = 1000000;
  std::vector<int> granted;
  long long sink = 0;
  double best = 1e300;
  for (int batch = 0; batch < 3; ++batch) {
    for (long long calls = 1;; calls *= 2) {
      const auto start = std::chrono::steady_clock::now();
      for (long long c = 0; c < calls; ++c) {
        allocator.Allocate(demands, &granted);
        sink += granted.front();
      }
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      if (elapsed >= 0.01) {
        best = std::min(best, elapsed / static_cast<double>(calls) * 1e9);
        break;
      }
    }
  }
  if (sink < 0) std::printf("unreachable\n");
  return best;
}

}  // namespace
}  // namespace dagperf

int main(int argc, char** argv) {
  using namespace dagperf;
  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 3;

  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));

  // --- Section A: the nightly 64-candidate reducer sweep. ---
  std::vector<DagWorkflow> flows;
  flows.reserve(kCandidates);
  for (int r = 1; r <= kCandidates; ++r) flows.push_back(NightlyCandidate(4 * r));
  const std::vector<SweepCandidate> requests = RequestsFor(flows, cluster);

  SweepOptions serial_uncached;
  serial_uncached.threads = 1;
  serial_uncached.memoize = false;
  serial_uncached.incremental = false;

  SweepOptions serial_cached;
  serial_cached.threads = 1;
  serial_cached.incremental = false;

  SweepOptions parallel_cached;
  parallel_cached.threads = kThreads;
  parallel_cached.incremental = false;

  SweepOptions engine_serial = serial_cached;  // memo + prefix resume
  engine_serial.incremental = true;

  SweepOptions engine_parallel = parallel_cached;
  engine_parallel.incremental = true;

  const Timed baseline = Run(requests, source, serial_uncached, reps);
  const Timed cached = Run(requests, source, serial_cached, reps);
  const Timed parallel = Run(requests, source, parallel_cached, reps);
  const Timed incr_serial = Run(requests, source, engine_serial, reps);
  const Timed incr_parallel = Run(requests, source, engine_parallel, reps);

  // The determinism contract: every configuration must be bit-identical to
  // the serial uncached loop.
  const bool identical = BitIdentical(cached.result, baseline.result) &&
                         BitIdentical(parallel.result, baseline.result) &&
                         BitIdentical(incr_serial.result, baseline.result) &&
                         BitIdentical(incr_parallel.result, baseline.result);

  const double base_rate = kCandidates / baseline.seconds;
  const double cached_rate = kCandidates / cached.seconds;
  const double parallel_rate = kCandidates / parallel.seconds;
  const double incr_rate = kCandidates / incr_parallel.seconds;

  std::printf("%d-candidate reducer sweep (nightly DAG, %d jobs/candidate)\n",
              kCandidates, flows.front().num_jobs());
  std::printf("  serial uncached    : %8.1f est/s  (%.3f s)\n", base_rate,
              baseline.seconds);
  std::printf("  serial + memo      : %8.1f est/s  (%.3f s, %.2fx)\n",
              cached_rate, cached.seconds, baseline.seconds / cached.seconds);
  std::printf("  %d threads + memo   : %8.1f est/s  (%.3f s, %.2fx)\n", kThreads,
              parallel_rate, parallel.seconds, baseline.seconds / parallel.seconds);
  std::printf("  serial incremental : %8.1f est/s  (%.3f s, %.2fx)\n",
              kCandidates / incr_serial.seconds, incr_serial.seconds,
              baseline.seconds / incr_serial.seconds);
  std::printf("  full engine (%dt)   : %8.1f est/s  (%.3f s, %.2fx)\n", kThreads,
              incr_rate, incr_parallel.seconds,
              baseline.seconds / incr_parallel.seconds);
  std::printf("  cache hit rate     : %.1f%%   prefix hits: %llu  resumed states: %llu\n",
              100.0 * parallel.result.stats.cache_hit_rate,
              static_cast<unsigned long long>(incr_parallel.result.stats.prefix_hits),
              static_cast<unsigned long long>(
                  incr_parallel.result.stats.resumed_states));
  std::printf("  bit-identical      : %s\n", identical ? "yes" : "NO (BUG)");

  // --- Section B: the dense tuner neighborhood, re-swept warm. ---
  //
  // The scenario: a tuning session holds its memo and checkpoint store (as
  // the tuner holds its session memo) and the user keeps re-estimating the
  // same dense knob neighborhood while iterating. Both configurations get
  // their session-lifetime cache primed by one untimed
  // pass; the timed reps then measure the steady-state re-sweep. The memo
  // baseline still replays every candidate's state machine (answering
  // task-time queries from cache); the incremental engine resumes each
  // candidate from its checkpointed trajectory.
  std::vector<DagWorkflow> dense_flows;
  dense_flows.reserve(kDenseCandidates);
  for (int r = 1; r <= kDenseCandidates; ++r) {
    dense_flows.push_back(DenseCandidate(4 * r));
  }
  const std::vector<SweepCandidate> dense_requests =
      RequestsFor(dense_flows, cluster);

  TaskTimeMemo dense_memo;        // Warm memo for the non-incremental path.
  TaskTimeMemo dense_engine_memo; // Warm memo + store for the engine.
  PrefixCheckpointStore dense_store;

  SweepOptions dense_serial_cached = serial_cached;
  dense_serial_cached.memo = &dense_memo;

  SweepOptions dense_engine_serial = engine_serial;
  dense_engine_serial.memo = &dense_engine_memo;
  dense_engine_serial.checkpoints = &dense_store;

  SweepOptions dense_engine_parallel = engine_parallel;
  dense_engine_parallel.memo = &dense_engine_memo;
  dense_engine_parallel.checkpoints = &dense_store;

  const Timed dense_base = Run(dense_requests, source, serial_uncached, reps);
  // Priming pass (untimed): the first sweep of the session pays full cost
  // and populates the service-lifetime caches.
  const auto prime_start = std::chrono::steady_clock::now();
  (void)EstimateBatch(dense_requests, SchedulerConfig{}, source,
                      dense_engine_serial);
  const double prime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    prime_start)
          .count();
  (void)EstimateBatch(dense_requests, SchedulerConfig{}, source,
                      dense_serial_cached);
  const Timed dense_cached = Run(dense_requests, source, dense_serial_cached, reps);
  const Timed dense_incr = Run(dense_requests, source, dense_engine_serial, reps);
  const Timed dense_incr_par =
      Run(dense_requests, source, dense_engine_parallel, reps);

  const bool dense_identical =
      BitIdentical(dense_cached.result, dense_base.result) &&
      BitIdentical(dense_incr.result, dense_base.result) &&
      BitIdentical(dense_incr_par.result, dense_base.result);
  const double dense_cached_rate = kDenseCandidates / dense_cached.seconds;
  const double dense_incr_rate = kDenseCandidates / dense_incr.seconds;
  const double dense_speedup = dense_cached.seconds / dense_incr.seconds;

  std::printf(
      "\ndense neighborhood, warm re-sweep (%d-job chain, last-job knob, %d "
      "candidates)\n",
      kDenseChainJobs, kDenseCandidates);
  std::printf("  priming pass       : %.3f s (cold first sweep, untimed)\n",
              prime_s);
  std::printf("  serial + memo      : %8.1f est/s  (%.3f s)\n", dense_cached_rate,
              dense_cached.seconds);
  std::printf("  serial incremental : %8.1f est/s  (%.3f s, %.2fx vs memo)\n",
              dense_incr_rate, dense_incr.seconds, dense_speedup);
  std::printf("  full engine (%dt)   : %8.1f est/s  (%.3f s)\n", kThreads,
              kDenseCandidates / dense_incr_par.seconds, dense_incr_par.seconds);
  std::printf("  prefix hits        : %llu   resumed states: %llu\n",
              static_cast<unsigned long long>(dense_incr.result.stats.prefix_hits),
              static_cast<unsigned long long>(
                  dense_incr.result.stats.resumed_states));
  std::printf("  bit-identical      : %s\n", dense_identical ? "yes" : "NO (BUG)");

  Json doc = Json::MakeObject();
  doc.Set("bench", Json::MakeString("sweep_throughput"));
  doc.Set("candidates", Json::MakeNumber(kCandidates));
  doc.Set("threads", Json::MakeNumber(kThreads));
  doc.Set("reps", Json::MakeNumber(reps));
  doc.Set("serial_uncached_s", Json::MakeNumber(baseline.seconds));
  doc.Set("serial_cached_s", Json::MakeNumber(cached.seconds));
  doc.Set("parallel_cached_s", Json::MakeNumber(parallel.seconds));
  doc.Set("incremental_serial_s", Json::MakeNumber(incr_serial.seconds));
  doc.Set("incremental_parallel_s", Json::MakeNumber(incr_parallel.seconds));
  doc.Set("serial_estimates_per_s", Json::MakeNumber(base_rate));
  doc.Set("serial_cached_estimates_per_s", Json::MakeNumber(cached_rate));
  doc.Set("parallel_estimates_per_s", Json::MakeNumber(parallel_rate));
  doc.Set("incremental_estimates_per_s", Json::MakeNumber(incr_rate));
  doc.Set("speedup_parallel_cached_vs_serial",
          Json::MakeNumber(baseline.seconds / parallel.seconds));
  doc.Set("speedup_serial_cached_vs_serial",
          Json::MakeNumber(baseline.seconds / cached.seconds));
  doc.Set("cache_hit_rate", Json::MakeNumber(parallel.result.stats.cache_hit_rate));
  doc.Set("cache_hits", Json::MakeNumber(
                            static_cast<double>(parallel.result.stats.cache_hits)));
  doc.Set("cache_misses", Json::MakeNumber(static_cast<double>(
                              parallel.result.stats.cache_misses)));
  doc.Set("prefix_hits",
          Json::MakeNumber(
              static_cast<double>(incr_parallel.result.stats.prefix_hits)));
  doc.Set("resumed_states",
          Json::MakeNumber(
              static_cast<double>(incr_parallel.result.stats.resumed_states)));
  doc.Set("failures", Json::MakeNumber(parallel.result.stats.failures));
  doc.Set("bit_identical", Json::MakeBool(identical));

  Json dense = Json::MakeObject();
  dense.Set("candidates", Json::MakeNumber(kDenseCandidates));
  dense.Set("jobs_per_candidate", Json::MakeNumber(kDenseChainJobs));
  dense.Set("prime_s", Json::MakeNumber(prime_s));
  dense.Set("serial_uncached_s", Json::MakeNumber(dense_base.seconds));
  dense.Set("serial_cached_s", Json::MakeNumber(dense_cached.seconds));
  dense.Set("incremental_s", Json::MakeNumber(dense_incr.seconds));
  dense.Set("incremental_parallel_s", Json::MakeNumber(dense_incr_par.seconds));
  dense.Set("serial_cached_estimates_per_s", Json::MakeNumber(dense_cached_rate));
  dense.Set("incremental_estimates_per_s", Json::MakeNumber(dense_incr_rate));
  dense.Set("speedup_incremental_vs_cached", Json::MakeNumber(dense_speedup));
  dense.Set("prefix_hits",
            Json::MakeNumber(
                static_cast<double>(dense_incr.result.stats.prefix_hits)));
  dense.Set("resumed_states",
            Json::MakeNumber(
                static_cast<double>(dense_incr.result.stats.resumed_states)));
  dense.Set("bit_identical", Json::MakeBool(dense_identical));
  doc.Set("dense", std::move(dense));

  // --- Section C: the cost of one DRF allocation. ---
  std::printf("\nDrfAllocator::Allocate, 10^6-task backlogs\n");
  Json drf = Json::MakeObject();
  Json drf_ns = Json::MakeObject();
  Json drf_ratio = Json::MakeObject();
  for (const int stages : {2, 4}) {
    double ns_at_10 = 0.0;
    for (const int nodes : {10, 1000, 10000}) {
      const double ns = AllocateNs(stages, nodes);
      if (nodes == 10) ns_at_10 = ns;
      std::printf("  %d stages, %5d nodes : %10.1f ns/call\n", stages, nodes, ns);
      drf_ns.Set(std::to_string(stages) + "x" + std::to_string(nodes),
                 Json::MakeNumber(ns));
      if (nodes == 10000) {
        drf_ratio.Set(std::to_string(stages), Json::MakeNumber(ns / ns_at_10));
      }
    }
  }
  drf.Set("ns_per_call", std::move(drf_ns));
  drf.Set("ratio_10000_vs_10_nodes", std::move(drf_ratio));
  doc.Set("drf_allocate", std::move(drf));

  std::ofstream out("BENCH_sweep.json");
  out << doc.Dump() << "\n";
  std::printf("wrote BENCH_sweep.json\n");

  return identical && dense_identical ? 0 : 1;
}
