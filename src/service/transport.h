#ifndef DAGPERF_SERVICE_TRANSPORT_H_
#define DAGPERF_SERVICE_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "common/cancel.h"
#include "common/status.h"

namespace dagperf {

/// The one loopback transport under `dagperf serve` (service/server.h),
/// `dagperf route` (router/router.h) and the /metrics endpoint
/// (service/metrics_http.h): one listener, one accept loop, one bounded
/// send, one NDJSON framer and one per-connection line loop. Callers supply
/// only what differs: a per-line handler, or a per-connection one for HTTP.

/// How often blocked poll loops wake to check halt tokens. Bounds shutdown
/// latency (a connection notices `halt` within one interval) without
/// busy-waiting.
inline constexpr int kPollIntervalMs = 50;

/// Longest request line a transport buffers before answering
/// INVALID_ARGUMENT and discarding to the next newline — an unauthenticated
/// peer must not be able to grow a buffer without bound.
inline constexpr std::size_t kDefaultMaxLineBytes = 1 << 20;  // 1 MiB

/// `dagperf serve --read-idle-seconds` default, and the router's fixed
/// mid-line idle timeout.
inline constexpr double kDefaultReadIdleSeconds = 30.0;

/// Sends the whole buffer. MSG_NOSIGNAL: a peer that disconnected surfaces
/// as EPIPE (false), not SIGPIPE. Zero-progress attempts (EINTR storms, a
/// peer that stopped reading) are retried a bounded number of times, so a
/// stalled peer cannot pin the sender in an unbounded loop.
bool SendAll(int fd, std::string_view data);

/// Splits a byte stream into NDJSON request lines. Pure: bytes in, events
/// out, no I/O. One trailing CR is stripped and blank lines are skipped. A
/// line longer than `max_line_bytes` (after the CR strip) yields one
/// oversized event and is discarded up to its newline; a partial line is
/// reported as soon as it is certain to be too long, so at most
/// `max_line_bytes + 1` bytes are held between calls. The events do not
/// depend on how the stream was cut into Feed calls.
class LineFramer {
 public:
  struct Frame {
    bool oversized = false;
    std::string line;  ///< Empty for an oversized frame.
    bool operator==(const Frame&) const = default;
  };

  explicit LineFramer(std::size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  void Feed(std::string_view bytes);

  /// Pops the next event; false when no complete one is buffered.
  bool Next(Frame* frame);

  /// Bytes held for lines not yet popped.
  std::size_t buffered() const { return buffer_.size() - pos_; }

  /// Inside a line: part of it was received (or an oversized one is still
  /// being discarded) and its newline was not.
  bool mid_line() const { return discarding_ || buffered() > 0; }

 private:
  std::size_t max_line_bytes_;
  std::string buffer_;
  std::size_t pos_ = 0;      ///< Start of the unconsumed bytes in buffer_.
  bool discarding_ = false;  ///< Inside an answered oversized frame.
};

/// Writes one response line (no trailing newline); false once the peer is
/// gone, which stops a streaming op.
using LineSink = std::function<bool(const std::string& line)>;

/// Handles one request line, answering through `send`. Returns false to
/// stop reading (a drain verb was served).
using LineHandler =
    std::function<bool(const std::string& line, const LineSink& send)>;

/// Pumps lines from `in` to `handler` and its answers to `out` (flushed per
/// line, so a pipe peer can pipeline) until EOF or the handler stops. A
/// final line without a newline is still served.
void ServeLineStream(std::istream& in, std::ostream& out,
                     std::size_t max_line_bytes, const LineHandler& handler);

struct LineLimits {
  std::size_t max_line_bytes = kDefaultMaxLineBytes;
  /// Close a connection that sent part of a line and then stalled this long
  /// (seconds); 0 disables. Idle *between* requests is always allowed.
  double read_idle_timeout_seconds = 0.0;
};

/// Serves one connection until EOF, a transport error, a mid-line stall, a
/// failed send, the handler stopping, or `halt`. Reads pass the
/// `server.read` fault seam and responses the `server.write` one.
void ServeLineConnection(int fd, const LineLimits& limits,
                         const CancelToken& halt, const LineHandler& handler);

struct LoopbackOptions {
  /// Port to bind on 127.0.0.1; 0 asks the kernel for a free port.
  int port = 0;
  /// Called once with the bound port before the first accept.
  std::function<void(int port)> on_listen;
  /// Stop accepting after this many connections; 0 = until `halt`.
  int max_connections = 0;
};

/// Listens on 127.0.0.1 and accepts until `halt` fires or max_connections
/// were accepted, serving each connection on its own thread: `serve(fd)`
/// runs there and the fd is closed after it returns. Accepts pass the
/// `server.accept` fault seam. Finished connection threads are joined as
/// the loop goes, so only live connections hold a thread. When accepting
/// stops, the listener closes first, then `after_close` runs (the caller's
/// drain step; may be empty), then every connection thread is joined.
/// Returns the number of connections accepted; an error Status means the
/// listener could not be set up.
Result<std::uint64_t> ServeLoopback(const LoopbackOptions& options,
                                    const CancelToken& halt,
                                    const std::function<void(int fd)>& serve,
                                    const std::function<void()>& after_close);

}  // namespace dagperf

#endif  // DAGPERF_SERVICE_TRANSPORT_H_
