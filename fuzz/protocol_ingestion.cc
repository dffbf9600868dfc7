#include "protocol_ingestion.h"

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "service/server.h"
#include "service/service.h"
#include "service/transport.h"
#include "workloads/suite.h"

namespace dagperf {

namespace {

/// A small line cap so corpus inputs can actually cross the limit without
/// being megabytes on disk.
constexpr std::size_t kFuzzMaxLineBytes = 512;

Result<DagWorkflow> FuzzFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  if (!named.ok()) return named.status();
  return std::move(named).value().flow;
}

/// The framer's events for `bytes` fed whole, or in chunks whose sizes the
/// bytes themselves pick: an ASCII byte cuts 1–8 bytes (frames torn
/// everywhere), any other byte up to ~1 KiB (chunks larger than the cap).
/// Traps if the framer ever holds more than the cap plus one chunk.
std::vector<LineFramer::Frame> FrameEvents(std::string_view bytes,
                                           bool chunked) {
  LineFramer framer(kFuzzMaxLineBytes);
  std::vector<LineFramer::Frame> events;
  LineFramer::Frame frame;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const unsigned char b = static_cast<unsigned char>(bytes[pos]);
    const std::size_t chunk =
        !chunked ? bytes.size() : 1 + (b < 0x80 ? b % 8 : (b - 0x80) * 8);
    framer.Feed(bytes.substr(pos, chunk));
    pos += chunk;
    while (framer.Next(&frame)) events.push_back(frame);
    if (framer.buffered() > kFuzzMaxLineBytes + chunk) __builtin_trap();
  }
  return events;
}

}  // namespace

int RunProtocolIngestion(const uint8_t* data, size_t size) {
  // A fresh service per input: a drain verb in the stream flips the service
  // into draining for good, which must not leak into the next input.
  ServiceOptions options;
  options.threads = 1;
  options.max_queue_depth = 8;
  EstimationService service(options);
  Result<DagWorkflow> flow = FuzzFlow();
  if (flow.ok()) {
    (void)service.RegisterWorkflow("q6", *flow);
  }

  const std::string bytes(reinterpret_cast<const char*>(data), size);
  // The TCP framer must not care where the network cut the stream.
  if (FrameEvents(bytes, /*chunked=*/true) !=
      FrameEvents(bytes, /*chunked=*/false)) {
    __builtin_trap();
  }

  std::istringstream in(bytes);
  std::ostringstream out;
  const ServeSummary summary =
      ServeLines(service, in, out, kFuzzMaxLineBytes);
  // Cheap self-checks the sanitizers can't do: every response line the pump
  // produced is itself one line of valid JSON, and a fixpoint of
  // Json::Parse(line)->DumpCompact() — sorted keys and canonical numbers,
  // whichever writer produced it.
  const std::string responses = out.str();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < responses.size()) {
    std::size_t end = responses.find('\n', start);
    if (end == std::string::npos) end = responses.size();
    const std::string line = responses.substr(start, end - start);
    Result<Json> parsed = Json::Parse(line);
    if (!parsed.ok() || parsed.value().DumpCompact() != line) __builtin_trap();
    ++lines;
    start = end + 1;
  }
  // One response per handled request (oversized/garbage lines included —
  // they get error responses, they are not swallowed).
  if (lines < summary.requests) __builtin_trap();
  return 0;
}

}  // namespace dagperf
