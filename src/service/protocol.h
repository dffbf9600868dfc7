#ifndef DAGPERF_SERVICE_PROTOCOL_H_
#define DAGPERF_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/json.h"
#include "service/service.h"
#include "service/transport.h"

namespace dagperf {

/// The service wire protocol: newline-delimited JSON, one request document
/// per line in, one response document per line out. Versioned and stable —
/// see docs/api.md for the full contract. Requests:
///
///   {"op": "estimate", "workflow": "tpch-q16", "cluster": "default",
///    "nodes": 8, "deadline_s": 1.5, "id": 7}
///   {"op": "explain",  ... same fields ...}
///   {"op": "sweep",    "workflow": "...", "nodes_list": [2, 4, 8, 16]}
///   {"op": "stats"}
///   {"op": "slo"}             -- windowed SLO report (10s/1m/5m, burn rates)
///   {"op": "flightrecorder"}  -- last-N request records + exemplars + events
///   {"op": "metrics"}         -- full registry ("format": "prom" for
///                                Prometheus text in result.text)
///   {"op": "watch", "interval_ms": 1000, "count": 10}
///                             -- streaming stats/SLO frames (see below)
///   {"op": "drain"}
///
/// `workflow` names a registered flow; an inline `"flow": {...}` document
/// (dag/spec_io.h format) may be sent instead. `id` is any JSON value and is
/// echoed verbatim on the response so clients can match pipelined replies.
///
/// Responses:
///   {"id": 7, "ok": true,  "result": {...}}
///   {"id": 7, "ok": false, "error": {"code": "RESOURCE_EXHAUSTED",
///                                    "retryable": true, "message": "..."}}
///
/// Error codes are the stable ErrorCodeName vocabulary (common/status.h);
/// `retryable` mirrors IsRetryable so clients can back off mechanically. Two
/// protocol-level failures answer with an explicit `"id": null` (the line
/// never yielded a request object to echo an id from): malformed JSON comes
/// back as `PARSE_ERROR{retryable: false}`, and transports answer oversized
/// frames with INVALID_ARGUMENT via TransportErrorLine. The router's front
/// end answers through the same ParseRequestLine and TransportErrorLine, so
/// these lines are byte-identical on every serving path.
class Protocol {
 public:
  explicit Protocol(EstimationService* service);

  /// Handles one request line and returns the response line (compact JSON,
  /// no trailing newline). Never throws and never returns malformed output:
  /// parse failures, unknown ops, and service errors all come back as
  /// well-formed error responses. Blocks until the service fulfils the
  /// request (transports provide concurrency, the protocol stays pipelined).
  /// A `watch` op through this entry point yields exactly one frame (the
  /// one-line-in/one-line-out contract holds on every transport).
  std::string HandleLine(const std::string& line);

  /// Receives one complete response line (no trailing newline); returns
  /// false to stop the op early (client disconnected, transport closing).
  using LineSink = dagperf::LineSink;

  /// Streaming entry point used by the transports: non-streaming ops emit
  /// exactly the HandleLine response through `sink`; `watch` pushes one
  /// stats/SLO frame every `interval_ms` (default 1000, clamped to
  /// [10, 60000]) until `count` frames were sent (0 = unbounded), the sink
  /// returns false, or the service starts draining. Every frame is a
  /// complete response document echoing the request id.
  void HandleLineStreaming(const std::string& line, const LineSink& sink);

  /// Whether a drain request was handled — transports stop reading then.
  bool drain_requested() const { return drain_requested_; }

  /// Parses one wire line into a request object. Returns false, with the
  /// answer (`"id": null`) in *error_line, when the line is not valid JSON,
  /// not an object, or carries an id no JSON can spell (1e400).
  static bool ParseRequestLine(const std::string& line, Json* request,
                               std::string* error_line);

  /// A protocol-shaped error line (`{"error":{...},"id":..,"ok":false}`, no
  /// trailing newline) for failures found outside the service: by a
  /// transport (oversized frames) or by a front end that answers a parsed
  /// request itself (the router). `id` is the request's id; nullptr (no
  /// request, or no id in it) writes an explicit `"id": null`.
  static std::string TransportErrorLine(const Status& status,
                                        const Json* id = nullptr);

  std::uint64_t requests_handled() const { return requests_handled_; }

 private:
  /// Dispatches one parsed request object (shared by both entry points).
  std::string HandleRequest(const Json& request);

  /// The watch loop; `single_frame` is the HandleLine path.
  void RunWatch(const Json& request, const Json* id, const LineSink& sink,
                bool single_frame);

  EstimationService* service_;
  bool drain_requested_ = false;
  std::uint64_t requests_handled_ = 0;
};

}  // namespace dagperf

#endif  // DAGPERF_SERVICE_PROTOCOL_H_
