#ifndef DAGPERF_SERVICE_SERVER_H_
#define DAGPERF_SERVICE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>

#include "common/cancel.h"
#include "service/service.h"
#include "service/transport.h"

namespace dagperf {

/// Transports for the NDJSON protocol (service/protocol.h): a stream pump
/// for stdio / pipes / tests, and a localhost TCP server, both on the shared
/// framing and connection code of service/transport.h. Both stop on client
/// EOF, after handling a `drain` request, or — the TCP server — when an
/// external stop token fires (the `dagperf serve` SIGTERM path), in which
/// case the listener closes first and in-flight requests get a bounded grace
/// period to finish before being cancelled with UNAVAILABLE{retryable}.

struct ServeSummary {
  std::uint64_t requests = 0;
  /// True when the loop ended because a drain verb was served (as opposed to
  /// the client closing the stream).
  bool drained = false;
};

/// Pumps request lines from `in` to response lines on `out` until EOF or
/// drain. Responses are flushed per line so a pipe peer can pipeline without
/// deadlocking on buffering. Framing is LineFramer's: a trailing CR is
/// stripped, blank lines are ignored, and lines longer than `max_line_bytes`
/// are answered with INVALID_ARGUMENT and skipped.
ServeSummary ServeLines(EstimationService& service, std::istream& in,
                        std::ostream& out,
                        std::size_t max_line_bytes = kDefaultMaxLineBytes);

struct TcpServerOptions {
  /// Port to bind on 127.0.0.1; 0 asks the kernel for a free port.
  int port = 0;

  /// Called once with the actually-bound port before the first accept —
  /// how a test (or a parent process) learns a kernel-assigned port.
  std::function<void(int)> on_listen;

  /// Stop accepting after this many connections (existing ones finish);
  /// 0 = until drain/stop. Each connection is served on its own thread —
  /// requests from different connections are concurrently in flight in the
  /// service, and the protocol stays pipelined within a connection.
  int max_connections = 0;

  /// Per-connection request line cap (see kDefaultMaxLineBytes).
  std::size_t max_line_bytes = kDefaultMaxLineBytes;

  /// Close a connection that has sent part of a line and then stalled for
  /// this long (seconds) — a torn frame must not hold its buffer and thread
  /// forever. 0 disables. Idle *between* requests is always allowed.
  double read_idle_timeout_seconds = 0.0;

  /// External shutdown signal (`dagperf serve` fires it from SIGTERM /
  /// SIGINT). When it fires: the listener closes first, then the service
  /// drains with `drain_grace_seconds`, then remaining connections unwind.
  CancelToken stop;

  /// Grace passed to EstimationService::Shutdown when `stop` fires: how long
  /// in-flight requests may keep running before their tokens are fired and
  /// their responses become UNAVAILABLE{retryable}.
  double drain_grace_seconds = 5.0;
};

struct TcpServeSummary {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  /// A drain verb ended the serve loop.
  bool drained = false;
  /// The external stop token ended the serve loop.
  bool stopped = false;
  /// Filled when `stopped` (the bounded-drain outcome).
  EstimationService::ShutdownReport shutdown;
};

/// Runs the protocol over TCP on localhost until a drain verb, the
/// connection limit, or the stop token. Every accepted connection is served
/// on its own thread, joined as soon as it finishes; the rest are joined
/// (cleanly unwound) before this returns.
/// An error Status means the listening socket could not be set up.
Result<TcpServeSummary> ServeTcp(EstimationService& service,
                                 const TcpServerOptions& options);

}  // namespace dagperf

#endif  // DAGPERF_SERVICE_SERVER_H_
