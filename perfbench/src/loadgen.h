// The closed-loop load generator: a single thread keeps one request in
// flight on each of a few loopback TCP connections, sending a connection's
// next request as soon as its previous answer arrives.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "hostprobe.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

enum class OpState : std::uint8_t { kPending, kOk, kError, kLostTwice };

// What the load generator kept of one request's answer.
struct OpRecord {
  std::int64_t latency_ns = 0;  // Round trip of the answered attempt.
  float done_s = 0.0f;          // When it was answered, since the start.
  std::uint8_t attempts = 0;
  OpState state = OpState::kPending;
  float queue_wait_ms = 0.0f;
  float service_ms = 0.0f;
  std::int32_t states = 0;
  std::uint32_t response_bytes = 0;
  double makespan_s = 0.0;            // Estimate answers.
  std::uint32_t first_candidate = 0;  // Sweep answers: index into candidates.
};

struct CandidateAnswer {
  bool ok = false;
  double makespan_s = 0.0;
};

// Taken about every 100 ms while the loop runs.
struct Sample {
  double t_s = 0.0;           // Since the first request was sent, pauses excluded.
  std::size_t answered = 0;   // Ok answers so far.
  double rss_mb = 0.0;        // VmHWM of the server instance now running.
  std::uint64_t restarts = 0;
  std::uint64_t steal_ticks = 0;  // StealTicks() at this moment.
};

struct LoadResult {
  std::vector<OpRecord> ops;
  std::vector<CandidateAnswer> candidates;
  double wall_s = 0.0;                // Pauses for the host probe excluded.
  std::vector<double> probe_us;       // One host probe slice per pause.
  std::uint64_t restarts = 0;        // Servers relaunched after dying.
  std::uint64_t error_responses = 0;
  std::vector<std::size_t> killers;  // Requests that killed the server twice.
  std::vector<std::string> first_errors;
  std::vector<Sample> samples;
  std::string fatal;                 // Set when the run could not finish.
};

// How the load generator reaches the server it supervises.
struct Supervision {
  std::function<bool()> exited;  // The server process has died.
  std::function<int()> restart;  // Relaunch (and re-prime); new port or -1.
  std::function<double()> rss_mb;  // VmHWM of the running server, in MiB.
};

// Sends every request of `stream` over `connections` connections to `port`.
// A lost connection is retried: when the server died it is restarted, every
// request in flight is sent once more, alone, and a request lost a second
// time is counted as failed. When `trace` is set, a span per request is recorded.
// Every kProbeEveryMs the loop lets the requests in flight finish and runs a
// slice of `probe` with nothing in flight; the pause is left out of every
// time the loop reports.
LoadResult RunClosedLoop(const std::vector<Request>& stream, bool sweep,
                         int port, int connections,
                         const Supervision& supervision,
                         dagperf::obs::TraceRecorder* trace, HostProbe* probe);

// Sends `lines` one at a time on one connection and checks each answer is
// ok. Returns an empty string on success.
std::string SendEach(int port, const std::vector<Request>& lines);

// One request, one parsed answer; an error when it cannot be had.
dagperf::Result<dagperf::Json> Query(int port, const std::string& line);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
