#include "service/transport.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <list>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "resilience/fault.h"
#include "service/protocol.h"

namespace dagperf {

namespace {

/// Pending connections the kernel queues before accept.
constexpr int kListenBacklog = 64;

/// Bound on consecutive zero-progress write attempts before a send gives up.
constexpr int kMaxWriteStalls = 64;

/// Chaos seams (resilience/fault.h): server.accept drops a just-accepted
/// connection (client sees EOF), server.read fails a receive (connection
/// closes mid-request), server.write fails a response send (client sees a
/// torn response). Latency-only plans delay the operation instead.
resilience::FaultPoint& AcceptFault() {
  static resilience::FaultPoint& point =
      resilience::FaultInjector::Default().GetPoint("server.accept");
  return point;
}

resilience::FaultPoint& ReadFault() {
  static resilience::FaultPoint& point =
      resilience::FaultInjector::Default().GetPoint("server.read");
  return point;
}

resilience::FaultPoint& WriteFault() {
  static resilience::FaultPoint& point =
      resilience::FaultInjector::Default().GetPoint("server.write");
  return point;
}

/// The INVALID_ARGUMENT line that answers an oversized frame.
std::string OversizedLineError(std::size_t max_line_bytes) {
  return Protocol::TransportErrorLine(Status::InvalidArgument(
      "request line exceeds " + std::to_string(max_line_bytes) + " bytes"));
}

/// Pops every event `framer` holds: oversized frames are answered through
/// `send`, lines go to `handler`. False once the handler stopped or a send
/// failed.
bool DispatchFrames(LineFramer& framer, std::size_t max_line_bytes,
                    const LineSink& send, const LineHandler& handler) {
  LineFramer::Frame frame;
  while (framer.Next(&frame)) {
    if (frame.oversized) {
      if (!send(OversizedLineError(max_line_bytes))) return false;
    } else if (!handler(frame.line, send)) {
      return false;
    }
  }
  return true;
}

/// Binds and listens on 127.0.0.1:port; returns the listening fd.
Result<int> ListenLoopback(const LoopbackOptions& options) {
  const auto socket_error = [](const char* what) {
    return Status::Internal(std::string(what) + ": " + std::strerror(errno));
  };
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return socket_error("socket");
  const int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  const char* failed = nullptr;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    failed = "bind";
  } else if (::listen(fd, kListenBacklog) < 0) {
    failed = "listen";
  }
  if (failed != nullptr) {
    const Status status = socket_error(failed);
    ::close(fd);
    return status;
  }
  if (options.on_listen) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      options.on_listen(ntohs(bound.sin_port));
    }
  }
  return fd;
}

/// One accepted connection's thread; `finished` flips when it may be joined
/// without blocking.
struct Connection {
  std::atomic<bool> finished{false};
  std::thread thread;
};

void ReapFinished(std::list<Connection>& connections) {
  for (auto it = connections.begin(); it != connections.end();) {
    if (it->finished.load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace

bool SendAll(int fd, std::string_view data) {
  std::size_t sent = 0;
  int stalls = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR && ++stalls < kMaxWriteStalls) continue;
      return false;
    }
    if (n == 0) {
      if (++stalls >= kMaxWriteStalls) return false;
      continue;
    }
    stalls = 0;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void LineFramer::Feed(std::string_view bytes) {
  buffer_.erase(0, pos_);
  pos_ = 0;
  buffer_.append(bytes);
}

bool LineFramer::Next(Frame* frame) {
  // One trailing CR belongs to the line terminator, not to the line.
  const auto strip_cr = [](std::string_view line) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    return line;
  };
  for (;;) {
    const std::size_t newline = buffer_.find('\n', pos_);
    if (newline == std::string::npos) break;
    const std::string_view line =
        strip_cr(std::string_view(buffer_).substr(pos_, newline - pos_));
    pos_ = newline + 1;
    if (discarding_) {
      // The tail of an already-answered oversized frame.
      discarding_ = false;
      continue;
    }
    if (line.empty()) continue;
    frame->oversized = line.size() > max_line_bytes_;
    frame->line.assign(frame->oversized ? std::string_view() : line);
    return true;
  }
  // What is left is a partial line. Once it is too long even if its last
  // byte turns out to be the CR of a CRLF, answer it now and drop the bytes
  // instead of buffering until the peer deigns to send '\n'.
  const bool overflow =
      !discarding_ &&
      strip_cr(std::string_view(buffer_).substr(pos_)).size() > max_line_bytes_;
  if (overflow || discarding_) {
    buffer_.clear();
    pos_ = 0;
  }
  if (!overflow) return false;
  discarding_ = true;
  frame->oversized = true;
  frame->line.clear();
  return true;
}

void ServeLineStream(std::istream& in, std::ostream& out,
                     std::size_t max_line_bytes, const LineHandler& handler) {
  const LineSink send = [&out](const std::string& response) {
    out << response << '\n';
    out.flush();
    return static_cast<bool>(out);
  };
  LineFramer framer(max_line_bytes);
  std::streambuf& source = *in.rdbuf();
  char chunk[4096];
  for (;;) {
    // Read through the next newline at most, so an interactive peer's
    // request is answered before it has to send another.
    std::size_t n = 0;
    for (int c; n < sizeof(chunk) &&
                (c = source.sbumpc()) != std::char_traits<char>::eof();) {
      chunk[n++] = static_cast<char>(c);
      if (c == '\n') break;
    }
    // At EOF a newline completes a final unterminated line (a blank line is
    // skipped, so it adds nothing otherwise).
    framer.Feed(n > 0 ? std::string_view(chunk, n) : std::string_view("\n"));
    if (!DispatchFrames(framer, max_line_bytes, send, handler) || n == 0) {
      return;
    }
  }
}

void ServeLineConnection(int fd, const LineLimits& limits,
                         const CancelToken& halt, const LineHandler& handler) {
  bool open = true;
  const LineSink send = [fd, &open](const std::string& response) {
    open = open && resilience::InjectAt(WriteFault()).ok() &&
           SendAll(fd, response + "\n");
    return open;
  };
  LineFramer framer(limits.max_line_bytes);
  char chunk[4096];
  double last_byte_us = 0.0;
  while (open && !halt.cancelled()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollIntervalMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (ready == 0) {
      // Idle between requests is fine; a peer that sent part of a line and
      // went quiet is holding a buffer and a thread hostage — cut it loose.
      if (framer.mid_line() && limits.read_idle_timeout_seconds > 0 &&
          (obs::MonotonicUs() - last_byte_us) * 1e-6 >
              limits.read_idle_timeout_seconds) {
        return;
      }
      continue;
    }
    if (!resilience::InjectAt(ReadFault()).ok()) return;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (n == 0) return;  // Client closed.
    last_byte_us = obs::MonotonicUs();
    framer.Feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    if (!DispatchFrames(framer, limits.max_line_bytes, send, handler)) return;
  }
}

Result<std::uint64_t> ServeLoopback(const LoopbackOptions& options,
                                    const CancelToken& halt,
                                    const std::function<void(int fd)>& serve,
                                    const std::function<void()>& after_close) {
  Result<int> listener = ListenLoopback(options);
  if (!listener.ok()) return listener.status();
  const int listen_fd = listener.value();

  std::list<Connection> connections;
  std::uint64_t accepted = 0;
  while (!halt.cancelled()) {
    ReapFinished(connections);
    if (options.max_connections > 0 &&
        accepted >= static_cast<std::uint64_t>(options.max_connections)) {
      break;
    }
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollIntervalMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!resilience::InjectAt(AcceptFault()).ok()) {
      // Injected accept failure: the client sees its connection drop.
      ::close(fd);
      continue;
    }
    // Responses are one small write each; Nagle would sit on them.
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    ++accepted;
    Connection& connection = connections.emplace_back();
    connection.thread = std::thread([fd, &serve, &connection] {
      serve(fd);
      ::close(fd);
      connection.finished.store(true, std::memory_order_release);
    });
  }

  // Shutdown order (docs/robustness.md): the listener closes FIRST so no new
  // work arrives while the caller resolves what is in flight.
  ::close(listen_fd);
  if (after_close) after_close();
  for (Connection& connection : connections) connection.thread.join();
  return accepted;
}

}  // namespace dagperf
