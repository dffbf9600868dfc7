#ifndef DAGPERF_SERVICE_LINE_CLIENT_H_
#define DAGPERF_SERVICE_LINE_CLIENT_H_

#include <cstddef>
#include <limits>
#include <string>

#include "common/status.h"
#include "service/transport.h"

namespace dagperf {
namespace protocol {

/// A blocking NDJSON client for the wire protocol in service/protocol.h:
/// connect to a loopback port, send one line per request, read one line per
/// response with a deadline. This is the single client-side framing
/// implementation shared by the router's upstream pools, bench_serve,
/// chaos_test, and the CLI's query paths — they previously each carried
/// their own ad-hoc copy of the connect/send/poll-recv loop.
///
/// Not thread-safe: one LineClient per connection per thread (or guard
/// externally). Reads are buffered, so interleaving RecvLine calls from two
/// threads would tear lines apart. Sends go through the transport's
/// SendAll, and responses are split by its LineFramer (uncapped: the peer
/// is a server of this protocol, and a response line is as long as its
/// answer needs).
class LineClient {
 public:
  LineClient() = default;
  ~LineClient() { Close(); }

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  LineClient(LineClient&& other) noexcept;
  LineClient& operator=(LineClient&& other) noexcept;

  /// Connects to 127.0.0.1:port. UNAVAILABLE{retryable-shaped} on refusal —
  /// a shard that is restarting will refuse briefly, so callers typically
  /// retry. Any previous connection is closed first.
  Status Connect(int port);

  bool connected() const { return fd_ >= 0; }

  void Close();

  /// Sends `line`, appending a trailing '\n' unless one is already present.
  /// UNAVAILABLE when the peer has gone away (EPIPE/RST is reported here
  /// rather than as a signal: sends use MSG_NOSIGNAL).
  Status SendLine(const std::string& line);

  /// Sends `bytes` exactly as given — no newline framing. For chaos clients
  /// that deliberately leave a torn frame on the wire.
  Status SendRaw(const std::string& bytes);

  struct LineOrClose {
    /// True when the peer closed the connection before a full line arrived.
    bool closed = false;
    std::string line;  ///< Without the trailing newline; empty when closed.
  };

  /// Reads the next complete line. DEADLINE_EXCEEDED when no full line
  /// arrives within `timeout_seconds`; a clean or mid-line EOF is not an
  /// error — it returns {closed = true} so callers can distinguish "peer
  /// hung" from "peer went away" (the latter is what shard-death failover
  /// keys off).
  Result<LineOrClose> RecvLine(double timeout_seconds = 20.0);

  /// One request, one response. UNAVAILABLE if the peer closes before
  /// responding, DEADLINE_EXCEEDED on timeout.
  Result<std::string> Call(const std::string& request,
                           double timeout_seconds = 20.0);

 private:
  static constexpr std::size_t kNoLineCap =
      std::numeric_limits<std::size_t>::max();

  int fd_ = -1;
  LineFramer framer_{kNoLineCap};
};

}  // namespace protocol
}  // namespace dagperf

#endif  // DAGPERF_SERVICE_LINE_CLIENT_H_
