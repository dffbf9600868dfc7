// TCP transport edge-case tests: real loopback sockets against ServeTcp.
// Covers the corners a stream pump never sees — connections that close
// without sending a byte, requests torn across 1-byte segments, two requests
// arriving in one packet, per-connection response ordering under concurrent
// connections, the line-length cap, PARSE_ERROR framing, the mid-line
// idle timeout, and the reaping of finished connection threads. The pure
// LineFramer under every transport is pinned byte by byte at the end.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "service/server.h"
#include "service/service.h"
#include "service/transport.h"
#include "workloads/suite.h"

namespace dagperf {
namespace {

DagWorkflow TestFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  EXPECT_TRUE(named.ok()) << named.status().ToString();
  return std::move(named).value().flow;
}

/// Runs ServeTcp on a background thread and owns its stop token; the
/// constructor blocks until the kernel-assigned port is known.
class TestTcpServer {
 public:
  TestTcpServer(EstimationService& service, TcpServerOptions options = {}) {
    options.stop = stop_;
    std::promise<int> port_promise;
    std::future<int> port_future = port_promise.get_future();
    options.on_listen = [&port_promise](int port) {
      port_promise.set_value(port);
    };
    thread_ = std::thread(
        [this, &service, options] { result_ = ServeTcp(service, options); });
    port_ = port_future.get();
  }

  ~TestTcpServer() { Stop(); }

  /// Fires the stop token and joins; returns the serve result. Idempotent.
  const Result<TcpServeSummary>& Stop() {
    if (thread_.joinable()) {
      stop_.Cancel();
      thread_.join();
    }
    return result_;
  }

  /// Joins without firing stop — for tests where drain ends the loop.
  const Result<TcpServeSummary>& Join() {
    if (thread_.joinable()) thread_.join();
    return result_;
  }

  int port() const { return port_; }

 private:
  CancelToken stop_ = CancelToken::Cancellable();
  std::thread thread_;
  int port_ = 0;
  Result<TcpServeSummary> result_ = Status::Internal("serve never ran");
};

/// A blocking loopback client with line-oriented reads.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
  }

  ~TestClient() { Close(); }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void Send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads until '\n' (consumed, not returned). Fails the test on timeout or
  /// early close.
  std::string ReadLine(double timeout_seconds = 10.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_seconds);
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      const auto remaining = deadline - std::chrono::steady_clock::now();
      const int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
              .count());
      if (wait_ms <= 0) {
        ADD_FAILURE() << "timed out waiting for a response line";
        return "";
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, wait_ms) <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed before a full line arrived";
        return "";
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True if the peer closes the connection within the timeout.
  bool WaitForClose(double timeout_seconds) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_seconds);
    for (;;) {
      const auto remaining = deadline - std::chrono::steady_clock::now();
      const int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
              .count());
      if (wait_ms <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, wait_ms) <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return true;  // Reset also counts as closed.
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

Json MustParse(const std::string& line) {
  Result<Json> parsed = Json::Parse(line);
  EXPECT_TRUE(parsed.ok()) << "unparseable response: " << line;
  return parsed.ok() ? std::move(parsed).value() : Json();
}

std::string EstimateLine(int id) {
  return R"({"op":"estimate","workflow":"q6","id":)" + std::to_string(id) +
         "}\n";
}

TEST(ServerTransport, ConnectThenCloseWithoutBytesIsHarmless) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  TestTcpServer server(service);
  {
    TestClient ghost(server.port());
    ghost.Close();
  }
  // The server is unfazed: a real client still gets served.
  TestClient client(server.port());
  client.Send(EstimateLine(1));
  const Json response = MustParse(client.ReadLine());
  EXPECT_TRUE(response.GetBool("ok", false));
  EXPECT_EQ(response.GetNumber("id", -1), 1);

  const Result<TcpServeSummary>& summary = server.Stop();
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->stopped);
  EXPECT_EQ(summary->requests, 1u);
  EXPECT_GE(summary->connections, 2u);
}

TEST(ServerTransport, RequestTornAcrossByteSizedSegmentsIsReassembled) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  TestTcpServer server(service);
  TestClient client(server.port());

  const std::string request = EstimateLine(7);
  for (char byte : request) {
    client.Send(std::string(1, byte));
  }
  const Json response = MustParse(client.ReadLine());
  EXPECT_TRUE(response.GetBool("ok", false));
  EXPECT_EQ(response.GetNumber("id", -1), 7);
}

TEST(ServerTransport, TwoRequestsInOnePacketGetTwoOrderedResponses) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  TestTcpServer server(service);
  TestClient client(server.port());

  client.Send(EstimateLine(1) + EstimateLine(2));
  EXPECT_EQ(MustParse(client.ReadLine()).GetNumber("id", -1), 1);
  EXPECT_EQ(MustParse(client.ReadLine()).GetNumber("id", -1), 2);
}

TEST(ServerTransport, ResponsesStayOrderedPerConnectionUnderConcurrency) {
  ServiceOptions options;
  options.threads = 4;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  TestTcpServer server(service);

  constexpr int kClients = 4;
  constexpr int kRequests = 5;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, c] {
      TestClient client(server.port());
      std::string batch;
      for (int r = 0; r < kRequests; ++r) {
        batch += EstimateLine(c * 100 + r);
      }
      client.Send(batch);
      for (int r = 0; r < kRequests; ++r) {
        const Json response = MustParse(client.ReadLine());
        EXPECT_TRUE(response.GetBool("ok", false));
        // Pipelined responses come back in request order on each connection
        // even while other connections are interleaved in the service.
        EXPECT_EQ(response.GetNumber("id", -1), c * 100 + r);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  const Result<TcpServeSummary>& summary = server.Stop();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->requests,
            static_cast<std::uint64_t>(kClients * kRequests));
}

TEST(ServerTransport, OversizedLineIsAnsweredAndConnectionSurvives) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  TcpServerOptions options;
  options.max_line_bytes = 256;
  TestTcpServer server(service, options);
  TestClient client(server.port());

  client.Send(std::string(1000, 'x') + "\n");
  const Json oversized = MustParse(client.ReadLine());
  EXPECT_FALSE(oversized.GetBool("ok", true));
  const Json* id = oversized.Get("id");
  ASSERT_NE(id, nullptr);
  EXPECT_TRUE(id->is_null());
  const Json* error = oversized.Get("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code", ""), "INVALID_ARGUMENT");

  // The connection keeps working: the oversized frame was discarded up to
  // its newline, not left to poison the buffer.
  client.Send(EstimateLine(3));
  const Json ok = MustParse(client.ReadLine());
  EXPECT_TRUE(ok.GetBool("ok", false));
  EXPECT_EQ(ok.GetNumber("id", -1), 3);
}

TEST(ServerTransport, MalformedJsonGetsParseErrorWithNullId) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  TestTcpServer server(service);
  TestClient client(server.port());

  client.Send("this is not json\n");
  const Json response = MustParse(client.ReadLine());
  EXPECT_FALSE(response.GetBool("ok", true));
  const Json* id = response.Get("id");
  ASSERT_NE(id, nullptr);
  EXPECT_TRUE(id->is_null());
  const Json* error = response.Get("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code", ""), "PARSE_ERROR");
  EXPECT_FALSE(error->GetBool("retryable", true));

  // Parse errors are per line, not per connection.
  client.Send(EstimateLine(9));
  EXPECT_EQ(MustParse(client.ReadLine()).GetNumber("id", -1), 9);
}

TEST(ServerTransport, MidLineIdleTimeoutClosesTheConnection) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  TcpServerOptions options;
  options.read_idle_timeout_seconds = 0.15;
  TestTcpServer server(service, options);

  TestClient torn(server.port());
  torn.Send(R"({"op":"estimate)");  // A frame that never finishes.
  EXPECT_TRUE(torn.WaitForClose(5.0));

  // Idle *between* requests is fine: a quiet but well-framed client is kept.
  TestClient polite(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  polite.Send(EstimateLine(1));
  EXPECT_EQ(MustParse(polite.ReadLine()).GetNumber("id", -1), 1);
}

TEST(ServerTransport, DrainVerbStopsTheServer) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  TestTcpServer server(service);
  TestClient client(server.port());

  client.Send(R"({"op":"drain","id":1})" "\n");
  const Json response = MustParse(client.ReadLine());
  EXPECT_TRUE(response.GetBool("ok", false));
  client.Close();

  const Result<TcpServeSummary>& summary = server.Join();
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->drained);
  EXPECT_FALSE(summary->stopped);
}

/// This process's virtual size in KiB (VmSize in /proc/self/status).
std::uint64_t VmSizeKiB() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(4096, '\n');
  }
  ADD_FAILURE() << "no VmSize in /proc/self/status";
  return 0;
}

TEST(ServerTransport, FinishedConnectionThreadsAreReaped) {
  EstimationService service;
  TestTcpServer server(service);
  const auto one_request = [&server](int id) {
    TestClient client(server.port());
    client.Send(R"({"op":"stats","id":)" + std::to_string(id) + "}\n");
    EXPECT_EQ(MustParse(client.ReadLine()).GetNumber("id", -1), id);
  };
  one_request(0);  // Let one-off allocations (arenas, caches) settle first.
  const std::uint64_t before_kib = VmSizeKiB();
  constexpr int kConnections = 240;
  for (int i = 1; i <= kConnections; ++i) one_request(i);
  const std::uint64_t after_kib = VmSizeKiB();
  // An unjoined thread keeps its whole stack mapped (8 MiB by default), so
  // 240 leaked threads would add ~2 GiB; reaped ones add nothing lasting.
  EXPECT_LT(after_kib - std::min(after_kib, before_kib), 256u * 1024u)
      << "VmSize " << before_kib << " -> " << after_kib << " KiB";

  const Result<TcpServeSummary>& summary = server.Stop();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->connections, kConnections + 1u);
}

std::vector<LineFramer::Frame> FrameBytes(const std::string& bytes,
                                          std::size_t max_line_bytes,
                                          std::size_t chunk) {
  LineFramer framer(max_line_bytes);
  std::vector<LineFramer::Frame> frames;
  LineFramer::Frame frame;
  for (std::size_t pos = 0; pos < bytes.size(); pos += chunk) {
    framer.Feed(std::string_view(bytes).substr(pos, chunk));
    while (framer.Next(&frame)) frames.push_back(frame);
    EXPECT_LE(framer.buffered(), max_line_bytes + 1);
  }
  return frames;
}

TEST(LineFramer, StripsCrSkipsBlanksAndAnswersOversizedOnce) {
  const std::string bytes = "a\r\n\r\n\nbcd\n" + std::string(9, 'x') +
                            "\r\nabcd\r\nabcde\n" + "tail";
  const std::vector<LineFramer::Frame> expected = {
      {false, "a"}, {false, "bcd"}, {true, ""}, {false, "abcd"}, {true, ""}};
  for (std::size_t chunk : {1, 2, 3, 5, 64}) {
    EXPECT_EQ(FrameBytes(bytes, 4, chunk), expected) << "chunk " << chunk;
  }
}

TEST(LineFramer, PartialLineIsCutOnceItMustBeTooLong) {
  LineFramer framer(4);
  LineFramer::Frame frame;
  // Four bytes and a CR may still be a 4-byte line ending in CRLF.
  framer.Feed("abcd\r");
  EXPECT_FALSE(framer.Next(&frame));
  EXPECT_TRUE(framer.mid_line());
  // A fifth payload byte settles it: answered now, not at the newline.
  framer.Feed("e");
  ASSERT_TRUE(framer.Next(&frame));
  EXPECT_TRUE(frame.oversized);
  EXPECT_EQ(framer.buffered(), 0u);
  EXPECT_TRUE(framer.mid_line());  // Still discarding up to the newline.
  framer.Feed("more bytes of the same frame\nok\n");
  ASSERT_TRUE(framer.Next(&frame));
  EXPECT_EQ(frame, (LineFramer::Frame{false, "ok"}));
  EXPECT_FALSE(framer.Next(&frame));
  EXPECT_FALSE(framer.mid_line());
}

}  // namespace
}  // namespace dagperf
