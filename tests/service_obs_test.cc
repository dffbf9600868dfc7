// Request-observability integration tests against the real service path:
// RequestRecords captured end-to-end (timings, path class, memo
// attribution), the slo / flightrecorder / metrics verbs over the stream
// transport, a watch subscription over real TCP including a mid-stream
// client disconnect, the Prometheus HTTP scrape endpoint, and the
// drain-time stats epoch reset.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/metrics.h"
#include "service/metrics_http.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "workloads/suite.h"

namespace dagperf {
namespace {

class ScopedMetrics {
 public:
  ScopedMetrics() : was_enabled_(obs::MetricsEnabled()) {
    obs::SetMetricsEnabled(true);
  }
  ~ScopedMetrics() { obs::SetMetricsEnabled(was_enabled_); }

 private:
  bool was_enabled_;
};

DagWorkflow TestFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  EXPECT_TRUE(named.ok()) << named.status().ToString();
  return std::move(named).value().flow;
}

Json MustParse(const std::string& line) {
  Result<Json> parsed = Json::Parse(line);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << " in: " << line;
  return parsed.ok() ? std::move(parsed).value() : Json();
}

/// Runs ServeTcp on a background thread (same idiom as the transport tests).
class TestTcpServer {
 public:
  explicit TestTcpServer(EstimationService& service) {
    TcpServerOptions options;
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

  const Result<TcpServeSummary>& Stop() {
    if (thread_.joinable()) {
      stop_.Cancel();
      thread_.join();
    }
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

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(ServiceObsTest, RequestRecordCapturedEndToEnd) {
  ScopedMetrics on;
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  Result<EstimateResponse> served =
      service.Submit(EstimateRequest::For("q6")).get();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  const obs::FlightRecorder::Dump dump = service.flight_recorder().Snapshot();
  ASSERT_EQ(dump.records.size(), 1u);
  const obs::RequestRecord& record = dump.records.front();
  EXPECT_GT(record.id, 0u);
  EXPECT_STREQ(record.op, "estimate");
  EXPECT_STREQ(record.workflow, "q6");
  EXPECT_STREQ(record.cluster, "default");
  EXPECT_TRUE(record.ok);
  EXPECT_EQ(record.outcome_code, 0);
  // Cold service: every state was stepped, so the path is full replay.
  EXPECT_EQ(record.path, obs::RequestPath::kFullReplay);
  EXPECT_GT(record.states, 0u);
  EXPECT_EQ(record.resumed_states, 0u);
  // Timebase sanity: submit <= start <= end, and exec dominates a cold run.
  EXPECT_GE(record.start_us, record.submit_us);
  EXPECT_GE(record.end_us, record.start_us);
  EXPECT_GT(record.total_us(), 0.0);
}

TEST(ServiceObsTest, RepeatRequestClassifiedIncremental) {
  ScopedMetrics on;
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  for (int i = 0; i < 2; ++i) {
    Result<EstimateResponse> served =
        service.Submit(EstimateRequest::For("q6")).get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
  }

  const obs::FlightRecorder::Dump dump = service.flight_recorder().Snapshot();
  ASSERT_EQ(dump.records.size(), 2u);
  EXPECT_EQ(dump.records.front().path, obs::RequestPath::kFullReplay);
  // The second identical request resumes every state from the checkpoints
  // the first one stored.
  const obs::RequestRecord& warm = dump.records.back();
  EXPECT_EQ(warm.path, obs::RequestPath::kIncremental);
  EXPECT_GT(warm.resumed_states, 0u);
  EXPECT_EQ(warm.resumed_states, warm.states);
}

TEST(ServiceObsTest, FailedRequestPinnedAsErrorExemplar) {
  ScopedMetrics on;
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  Result<EstimateResponse> served =
      service.Submit(EstimateRequest::For("no-such-flow")).get();
  EXPECT_FALSE(served.ok());

  const obs::FlightRecorder::Dump dump = service.flight_recorder().Snapshot();
  ASSERT_EQ(dump.errors.size(), 1u);
  EXPECT_FALSE(dump.errors.front().ok);
  EXPECT_NE(dump.errors.front().outcome_code, 0);
}

TEST(ServiceObsTest, SloAndFlightVerbsOverServeLines) {
  ScopedMetrics on;
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  std::istringstream in(
      "{\"op\":\"estimate\",\"workflow\":\"q6\",\"id\":1}\n"
      "{\"op\":\"slo\",\"id\":2}\n"
      "{\"op\":\"flightrecorder\",\"id\":3}\n"
      "{\"op\":\"metrics\",\"format\":\"prom\",\"id\":4}\n"
      "{\"op\":\"drain\",\"id\":5}\n");
  std::ostringstream out;
  const ServeSummary summary = ServeLines(service, in, out);
  EXPECT_EQ(summary.requests, 5u);
  EXPECT_TRUE(summary.drained);

  std::istringstream lines(out.str());
  std::string line;

  ASSERT_TRUE(std::getline(lines, line));  // estimate
  EXPECT_TRUE(MustParse(line).GetBool("ok", false));

  ASSERT_TRUE(std::getline(lines, line));  // slo
  const Json slo = MustParse(line);
  const Json* report = slo.Get("result");
  ASSERT_NE(report, nullptr);
  const Json* total = report->Get("total");
  ASSERT_NE(total, nullptr);
  ASSERT_FALSE(total->AsArray().empty());
  const Json& w10 = total->AsArray()[0];
  EXPECT_EQ(w10.GetNumber("window_s", 0.0), 10.0);
  EXPECT_GE(w10.GetNumber("count", -1.0), 1.0);
  EXPECT_EQ(w10.GetNumber("errors", -1.0), 0.0);
  ASSERT_NE(report->Get("by_class"), nullptr);
  ASSERT_NE(report->Get("objectives"), nullptr);

  ASSERT_TRUE(std::getline(lines, line));  // flightrecorder
  const Json flight = MustParse(line);
  const Json* records = flight.Get("result")->Get("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->AsArray().size(), 1u);
  EXPECT_EQ(records->AsArray()[0].GetString("op", ""), "estimate");
  EXPECT_EQ(records->AsArray()[0].GetString("path", ""), "full_replay");

  ASSERT_TRUE(std::getline(lines, line));  // metrics (prom)
  const Json prom = MustParse(line);
  const std::string text = prom.Get("result")->GetString("text", "");
  EXPECT_NE(text.find("dagperf_service_submitted_total"), std::string::npos);
}

TEST(ServiceObsTest, WatchStreamsFramesAndStopsOnClientDisconnect) {
  ScopedMetrics on;
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  TestTcpServer server(service);

  // An unbounded watch: the only way it ends is our disconnect.
  TestClient watcher(server.port());
  watcher.Send("{\"op\":\"watch\",\"interval_ms\":20,\"id\":7}\n");
  const Json frame1 = MustParse(watcher.ReadLine());
  EXPECT_TRUE(frame1.GetBool("ok", false));
  ASSERT_NE(frame1.Get("result"), nullptr);
  EXPECT_EQ(frame1.Get("result")->GetNumber("seq", 0.0), 1.0);
  ASSERT_NE(frame1.Get("result")->Get("stats"), nullptr);
  ASSERT_NE(frame1.Get("result")->Get("slo_10s"), nullptr);
  const Json frame2 = MustParse(watcher.ReadLine());
  EXPECT_EQ(frame2.Get("result")->GetNumber("seq", 0.0), 2.0);
  // Hang up mid-stream. The server notices the failed send, abandons the
  // watch, and the connection thread unwinds — Stop() below would hang on
  // the join if it did not.
  watcher.Close();

  // The service stays fully functional for other connections.
  TestClient other(server.port());
  other.Send("{\"op\":\"estimate\",\"workflow\":\"q6\",\"id\":8}\n");
  EXPECT_TRUE(MustParse(other.ReadLine()).GetBool("ok", false));
  other.Close();

  const Result<TcpServeSummary>& summary = server.Stop();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GE(summary.value().connections, 2u);
}

TEST(ServiceObsTest, MetricsHttpServesPrometheusScrape) {
  ScopedMetrics on;
  obs::MetricsRegistry::Default().GetCounter("service.submitted").Add(1);

  std::promise<int> port_promise;
  std::future<int> port_future = port_promise.get_future();
  MetricsHttpOptions options;
  options.port = 0;
  options.max_requests = 3;
  options.on_listen = [&port_promise](int port) {
    port_promise.set_value(port);
  };
  bool scraped = false;
  options.before_scrape = [&scraped] { scraped = true; };
  Result<MetricsHttpSummary> summary = Status::Internal("never ran");
  std::thread server([&summary, &options] {
    summary = ServeMetricsHttp(options);
  });
  const int port = port_future.get();

  // Raw socket GET: read until close (HTTP/1.0, Connection: close).
  const auto get = [port](const std::string& target) {
    TestClient client(port);
    client.Send("GET " + target + " HTTP/1.0\r\n\r\n");
    std::string response;
    std::string line = client.ReadLine();
    while (!line.empty() && line != "\r") {
      response += line + "\n";
      line = client.ReadLine();
    }
    // Headers done; the body is newline-terminated text, keep reading until
    // the blank line consumed above is followed by body lines.
    return response;
  };

  const std::string metrics_head = get("/metrics");
  EXPECT_NE(metrics_head.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics_head.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_TRUE(scraped);

  const std::string health = get("/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);

  const std::string missing = get("/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.join();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().requests, 3u);

  obs::MetricsRegistry::Default().GetCounter("service.submitted").Reset();
}

TEST(ServiceObsTest, DrainBumpsStatsEpochAndResetsWarmState) {
  ScopedMetrics on;
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok());
  }
  const ServiceStats before = service.Stats();
  EXPECT_EQ(before.stats_epoch, 0u);
  // The cold first request stored checkpoints; the repeat resumed them.
  EXPECT_GT(before.incremental.misses, 0u);
  EXPECT_GT(before.incremental.hits, 0u);
  EXPECT_GT(before.incremental.entries, 0u);

  ASSERT_TRUE(service.Drain().ok());

  // The warm state was cleared in the same epoch bump, so the exported
  // counters start the new epoch at zero: nothing mixes pre-drain history.
  const ServiceStats after = service.Stats();
  EXPECT_EQ(after.stats_epoch, 1u);
  EXPECT_EQ(after.incremental.hits, 0u);
  EXPECT_EQ(after.incremental.misses, 0u);
  EXPECT_EQ(after.incremental.entries, 0u);
}

TEST(ServiceObsTest, LiveResetWarmStateIsSafeAndCountsEpochs) {
  ScopedMetrics on;
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  service.ResetWarmState();
  service.ResetWarmState();
  EXPECT_EQ(service.Stats().stats_epoch, 2u);
  // Still serves after manual resets; drain adds exactly one more epoch.
  EXPECT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok());
  ASSERT_TRUE(service.Drain().ok());
  EXPECT_EQ(service.Stats().stats_epoch, 3u);
}

}  // namespace
}  // namespace dagperf
