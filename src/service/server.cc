#include "service/server.h"

#include <atomic>
#include <string>

#include "service/protocol.h"

namespace dagperf {

ServeSummary ServeLines(EstimationService& service, std::istream& in,
                        std::ostream& out, std::size_t max_line_bytes) {
  Protocol protocol(&service);
  ServeSummary summary;
  // Streaming entry point: plain ops emit one line, `watch` pushes a frame
  // per tick until the stream dies or the service drains.
  ServeLineStream(in, out, max_line_bytes,
                  [&](const std::string& line, const LineSink& send) {
                    ++summary.requests;
                    protocol.HandleLineStreaming(line, send);
                    summary.drained = protocol.drain_requested();
                    return !summary.drained;
                  });
  return summary;
}

Result<TcpServeSummary> ServeTcp(EstimationService& service,
                                 const TcpServerOptions& options) {
  // `halt` observes the caller's stop token and is additionally fired by the
  // connection that serves a drain verb; firing it never touches the
  // caller's token, so `stopped` below still distinguishes the two causes.
  const CancelToken halt = CancelToken::LinkedTo({options.stop});
  const LineLimits limits{options.max_line_bytes,
                          options.read_idle_timeout_seconds};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<bool> drained{false};
  TcpServeSummary summary;

  const auto serve_connection = [&](int fd) {
    Protocol protocol(&service);
    ServeLineConnection(
        fd, limits, halt, [&](const std::string& line, const LineSink& send) {
          requests.fetch_add(1, std::memory_order_relaxed);
          protocol.HandleLineStreaming(line, send);
          if (!protocol.drain_requested()) return true;
          drained.store(true);
          // Wake the accept loop and every sibling connection.
          halt.Cancel();
          return false;
        });
  };
  const auto drain_on_stop = [&] {
    summary.stopped = options.stop.cancelled();
    if (summary.stopped) {
      // Bounded drain: in-flight requests get drain_grace_seconds to finish,
      // then their tokens fire and their futures resolve to
      // UNAVAILABLE{retryable}. Connections blocked in HandleLine therefore
      // unblock, send that response, then notice `halt` and unwind — the
      // joins that follow always terminate.
      summary.shutdown = service.Shutdown(options.drain_grace_seconds);
    }
  };
  Result<std::uint64_t> connections = ServeLoopback(
      {options.port, options.on_listen, options.max_connections}, halt,
      serve_connection, drain_on_stop);
  if (!connections.ok()) return connections.status();
  summary.connections = connections.value();
  summary.requests = requests.load();
  summary.drained = drained.load();
  return summary;
}

}  // namespace dagperf
