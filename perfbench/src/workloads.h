// Seeded request streams for the serving benchmark. The server only ever
// sees the generated wire lines; the fields beside each line let the output
// check rebuild the request's reference answer with a direct library call.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Request {
  std::string line;  // One NDJSON request, no trailing newline.
  int flow = -1;     // Index into SuiteNames(); -1 for an inline flow.
  int nodes = 0;     // Estimate: node count. Sweep: first size of the window.
  int window = 0;    // Sweep only: the window covers nodes .. nodes+window-1.
};

struct Workload {
  std::string name;
  bool routed = false;       // Served through `dagperf route`.
  bool sweep = false;        // Requests are `sweep` ops.
  bool inline_flow = false;  // Requests carry an inline `flow` document.
  std::vector<Request> prime;     // Sent once each during set-up.
  std::vector<Request> requests;  // The measured stream.
};

// Named workloads, in the order the benchmark documents them.
const std::vector<std::string>& WorkloadNames();

// The 51 Table III suite flows `dagperf serve` registers (web-analytics, the
// 52nd served flow, is left out of the generated streams).
const std::vector<std::string>& SuiteNames();

// Operations one run sends per requested second: a fixed count per run, so
// the unbounded stores end every run at the same size.
std::size_t OpsPerSecond(const std::string& workload);

Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      std::size_t ops);

// Checks the generator: the same seed reproduces the stream byte for byte, a
// different seed changes it, and the key set has its documented size.
// Returns an empty string on success, else what failed.
std::string SelfTest(const Workload& workload, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
