#include "service/line_client.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/transport.h"

namespace dagperf {
namespace protocol {

LineClient::LineClient(LineClient&& other) noexcept
    : fd_(other.fd_), framer_(std::move(other.framer_)) {
  other.fd_ = -1;
  other.framer_ = LineFramer(kNoLineCap);
}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    framer_ = std::move(other.framer_);
    other.fd_ = -1;
    other.framer_ = LineFramer(kNoLineCap);
  }
  return *this;
}

Status LineClient::Connect(int port) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable(std::string("connect 127.0.0.1:") +
                               std::to_string(port) + ": " +
                               std::strerror(err));
  }
  // One-line request/response framing: Nagle would batch the small writes,
  // which on a proxied path (client -> router -> shard) stacks per hop.
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  fd_ = fd;
  framer_ = LineFramer(kNoLineCap);
  return Status::Ok();
}

void LineClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  framer_ = LineFramer(kNoLineCap);
}

Status LineClient::SendLine(const std::string& line) {
  std::string framed = line;
  if (framed.empty() || framed.back() != '\n') framed.push_back('\n');
  return SendRaw(framed);
}

Status LineClient::SendRaw(const std::string& bytes) {
  if (fd_ < 0) return Status::Unavailable("not connected");
  if (!SendAll(fd_, bytes)) {
    return Status::Unavailable(std::string("send: ") + std::strerror(errno));
  }
  return Status::Ok();
}

Result<LineClient::LineOrClose> LineClient::RecvLine(double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  LineFramer::Frame frame;
  for (;;) {
    if (framer_.Next(&frame)) return LineOrClose{.line = std::move(frame.line)};
    if (fd_ < 0) return LineOrClose{.closed = true, .line = ""};
    const auto remaining = deadline - std::chrono::steady_clock::now();
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count());
    if (wait_ms <= 0) {
      return Status::DeadlineExceeded("no complete line within deadline");
    }
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, wait_ms) <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return LineOrClose{.closed = true, .line = ""};
    framer_.Feed(std::string_view(chunk, static_cast<std::size_t>(n)));
  }
}

Result<std::string> LineClient::Call(const std::string& request,
                                     double timeout_seconds) {
  Status sent = SendLine(request);
  if (!sent.ok()) return sent;
  Result<LineOrClose> got = RecvLine(timeout_seconds);
  if (!got.ok()) return got.status();
  if (got.value().closed) {
    return Status::Unavailable("peer closed before responding");
  }
  return std::move(got.value().line);
}

}  // namespace protocol
}  // namespace dagperf
