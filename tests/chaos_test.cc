// Chaos tests: seeded fault schedules driven through a real loopback TCP
// server. The seed comes from DAGPERF_CHAOS_SEED (a number, or "random" for
// a random_device draw) and is always logged so any failure reproduces with
// a single env var. Invariants asserted are seed-independent: no crash, no
// hang (the test finishing under its timeout is the assertion), every
// request answered exactly once, and counter conservation
//   submitted == completed + failed + shed + injected admission rejections.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/parallel.h"
#include "model/sweep.h"
#include "resilience/fault.h"
#include "service/line_client.h"
#include "service/server.h"
#include "service/service.h"
#include "workloads/micro.h"
#include "workloads/suite.h"

namespace dagperf {
namespace {

using resilience::FaultInjector;

/// The schedule seed for this process: DAGPERF_CHAOS_SEED, "random" (drawn
/// once and logged), or 1. Logged either way — chaos failures must carry
/// their repro line.
std::uint64_t ChaosSeed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("DAGPERF_CHAOS_SEED");
    std::uint64_t value = 1;
    if (env != nullptr && env[0] != '\0') {
      if (std::string(env) == "random") {
        std::random_device device;
        value = (static_cast<std::uint64_t>(device()) << 32) ^ device();
      } else {
        value = std::strtoull(env, nullptr, 10);
      }
    }
    std::cout << "[chaos] seed " << value
              << "  (repro: DAGPERF_CHAOS_SEED=" << value << ")" << std::endl;
    return value;
  }();
  return seed;
}

struct InjectorReset {
  InjectorReset() { FaultInjector::Default().ResetAll(); }
  ~InjectorReset() { FaultInjector::Default().ResetAll(); }
};

DagWorkflow TestFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  EXPECT_TRUE(named.ok()) << named.status().ToString();
  return std::move(named).value().flow;
}

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

/// Thin wrapper over protocol::LineClient (the shared client-side framing
/// implementation). Unlike the transport test's client this one treats early
/// close as data (chaos schedules legitimately sever connections) —
/// ReadLineOrClose reports which happened — and a hang past the deadline is
/// an immediate test failure carrying the repro seed.
class ChaosClient {
 public:
  explicit ChaosClient(int port) { (void)client_.Connect(port); }

  bool connected() const { return client_.connected(); }

  void Close() { client_.Close(); }

  /// Raw bytes, no newline framing — chaos schedules send torn frames on
  /// purpose.
  bool Send(const std::string& bytes) { return client_.SendRaw(bytes).ok(); }

  using LineOrClose = protocol::LineClient::LineOrClose;

  LineOrClose ReadLineOrClose(double timeout_seconds = 20.0) {
    Result<LineOrClose> got = client_.RecvLine(timeout_seconds);
    if (!got.ok()) {
      ADD_FAILURE() << "chaos client hung waiting for a line "
                    << "(seed " << ChaosSeed() << ")";
      return {.closed = true, .line = ""};
    }
    return std::move(got).value();
  }

 private:
  protocol::LineClient client_;
};

std::string EstimateLine(int id) {
  return R"({"op":"estimate","workflow":"q6","id":)" + std::to_string(id) +
         "}\n";
}

/// A sweep over three node counts of its own: sweeps are what still cross a
/// task-time memo (a batch-local one), so they reach the memo.insert seam.
std::string SweepLine(int client, int id) {
  const int base = 2 + 3 * client;
  return R"({"op":"sweep","workflow":"q6","nodes_list":[)" +
         std::to_string(base) + "," + std::to_string(base + 1) + "," +
         std::to_string(base + 2) + R"(],"id":)" + std::to_string(id) + "}\n";
}

std::string TenantEstimateLine(const std::string& tenant, int id) {
  return R"({"op":"estimate","workflow":"q6","tenant":")" + tenant +
         R"(","id":)" + std::to_string(id) + "}\n";
}

// ---------------------------------------------------------------------------

TEST(ChaosTest, SameSeedSameFailureSchedule) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(injector
                  .Configure("service.execute",
                             {.probability = 0.3, .error = ErrorCode::kInternal})
                  .ok());

  // Single worker + sequential submission: evaluation order is the request
  // order, so the fire pattern must replay exactly for a fixed seed.
  auto run_schedule = [](std::uint64_t seed) {
    FaultInjector::Default().Arm(seed);
    ServiceOptions options;
    options.threads = 1;
    EstimationService service(options);
    EXPECT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
    std::vector<int> failed;
    for (int i = 0; i < 40; ++i) {
      if (!service.Submit(EstimateRequest::For("q6")).get().ok()) {
        failed.push_back(i);
      }
    }
    FaultInjector::Default().Disarm();
    return failed;
  };

  const std::uint64_t seed = ChaosSeed();
  const std::vector<int> first = run_schedule(seed);
  const std::vector<int> second = run_schedule(seed);
  EXPECT_EQ(first, second) << "seed " << seed;
  EXPECT_NE(run_schedule(seed + 1), first);
}

TEST(ChaosTest, TaskTimeSeamFiresOnAPlainServeEstimate) {
  // The model.task_time seam sits on the BOE solve itself, so a single
  // estimate served by the service crosses it, not only a sweep's memo
  // misses.
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(injector.Configure("model.task_time", {.probability = 1.0}).ok());
  injector.Arm(ChaosSeed());

  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  Result<EstimateResponse> served =
      service.Submit(EstimateRequest::For("q6")).get();
  injector.Disarm();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  std::uint64_t fires = 0;
  for (const FaultInjector::PointStats& point : injector.Stats()) {
    if (point.name == "model.task_time") fires = point.fires;
  }
  // One solve per stepped state, each one fired.
  EXPECT_GE(fires, served.value().estimate->estimate.states.size());
}

TEST(ChaosTest, FaultScheduleOverLoopbackAnswersEveryRequest) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  // Service-level faults only: the transport stays honest, so every request
  // must yield exactly one response (possibly an error) with its own id.
  ASSERT_TRUE(injector
                  .Configure("service.execute",
                             {.probability = 0.10, .error = ErrorCode::kInternal})
                  .ok());
  ASSERT_TRUE(injector
                  .Configure("service.admit",
                             {.probability = 0.05,
                              .error = ErrorCode::kResourceExhausted})
                  .ok());
  ASSERT_TRUE(
      injector.Configure("model.task_time", {.probability = 0.2,
                                             .latency_ms = 1.0}).ok());
  ASSERT_TRUE(injector.Configure("memo.insert", {.probability = 0.2,
                                                 .latency_ms = 1.0}).ok());
  ASSERT_TRUE(
      injector.Configure("pool.submit", {.probability = 0.1,
                                         .latency_ms = 1.0}).ok());
  injector.Arm(ChaosSeed());

  ServiceOptions service_options;
  service_options.threads = 4;
  EstimationService service(service_options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  TestTcpServer server(service);

  // Each client sends kEstimates estimates and then one sweep.
  constexpr int kClients = 4;
  constexpr int kEstimates = 10;
  constexpr int kRequests = kEstimates + 1;
  std::atomic<int> answered{0};
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ChaosClient client(server.port());
      ASSERT_TRUE(client.connected());
      for (int r = 0; r < kEstimates; ++r) {
        ASSERT_TRUE(client.Send(EstimateLine(c * 100 + r)));
      }
      ASSERT_TRUE(client.Send(SweepLine(c, c * 100 + kEstimates)));
      for (int r = 0; r < kRequests; ++r) {
        const ChaosClient::LineOrClose got = client.ReadLineOrClose();
        ASSERT_FALSE(got.closed)
            << "connection severed with responses outstanding (seed "
            << ChaosSeed() << ")";
        Result<Json> parsed = Json::Parse(got.line);
        ASSERT_TRUE(parsed.ok()) << got.line;
        EXPECT_EQ(parsed.value().GetNumber("id", -1), c * 100 + r);
        answered.fetch_add(1);
        if (parsed.value().GetBool("ok", false)) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  injector.Disarm();

  EXPECT_EQ(answered.load(), kClients * kRequests);
  EXPECT_GT(injector.GetPoint("memo.insert").fires(), 0u)
      << "the sweeps must reach the memo.insert seam (seed " << ChaosSeed()
      << ")";

  // Conservation: every admitted slot was released, and every submission is
  // accounted for by exactly one terminal counter or an injected rejection.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queue_depth, 0);
  const std::uint64_t admit_rejections =
      injector.GetPoint("service.admit").fires();
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.failed + stats.shed + admit_rejections)
      << "seed " << ChaosSeed();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(ok_count.load(), static_cast<int>(stats.completed));
}

TEST(ChaosTest, TornFramesAndDisconnectsNeverWedgeTheServer) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  // Transport faults too: reads and writes fail at 10%, accepts at 10% —
  // connections get severed mid-request and mid-response.
  ASSERT_TRUE(injector
                  .Configure("server.read",
                             {.probability = 0.1, .error = ErrorCode::kUnavailable})
                  .ok());
  ASSERT_TRUE(injector
                  .Configure("server.write",
                             {.probability = 0.1, .error = ErrorCode::kUnavailable})
                  .ok());
  ASSERT_TRUE(injector
                  .Configure("server.accept",
                             {.probability = 0.1, .error = ErrorCode::kUnavailable})
                  .ok());
  const std::uint64_t seed = ChaosSeed();
  injector.Arm(seed);

  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  TcpServerOptions options;
  options.read_idle_timeout_seconds = 0.2;
  TestTcpServer server(service, options);

  std::mt19937_64 rng(seed);
  std::vector<std::thread> clients;
  for (int c = 0; c < 16; ++c) {
    const std::uint64_t behaviour = rng();
    clients.emplace_back([&, c, behaviour] {
      ChaosClient client(server.port());
      if (!client.connected()) return;  // Injected accept failure.
      switch (behaviour % 4) {
        case 0:  // Connect and vanish.
          break;
        case 1:  // Torn frame, then vanish (idle timeout reaps the buffer).
          client.Send(R"({"op":"esti)");
          break;
        case 2:  // Fire a request and never read the response.
          client.Send(EstimateLine(c));
          break;
        case 3: {  // Well-behaved — but must tolerate injected severing.
          if (!client.Send("not json\n" + EstimateLine(c))) break;
          for (int r = 0; r < 2; ++r) {
            if (client.ReadLineOrClose(10.0).closed) break;
          }
          break;
        }
      }
      client.Close();
    });
  }
  for (std::thread& thread : clients) thread.join();
  injector.Disarm();

  // The server survived the storm: a clean client is served end to end.
  std::unique_ptr<ChaosClient> survivor;
  for (int attempt = 0; attempt < 10; ++attempt) {
    survivor = std::make_unique<ChaosClient>(server.port());
    if (survivor->connected()) break;
  }
  ASSERT_TRUE(survivor->connected());
  ASSERT_TRUE(survivor->Send(EstimateLine(999)));
  const ChaosClient::LineOrClose got = survivor->ReadLineOrClose();
  ASSERT_FALSE(got.closed);
  Result<Json> parsed = Json::Parse(got.line);
  ASSERT_TRUE(parsed.ok()) << got.line;
  EXPECT_TRUE(parsed.value().GetBool("ok", false));
  EXPECT_EQ(parsed.value().GetNumber("id", -1), 999);
  // A "fire and vanish" client's request may still be read and queued after
  // the survivor's answer; a server that is not wedged drains it. Wait, with
  // a bound, until nothing is queued or in flight.
  ServiceStats stats = service.Stats();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto busy = [](const ServiceStats& s) {
    if (s.queue_depth != 0) return true;
    for (const TenantRegistry::TenantStats& tenant : s.tenants) {
      if (tenant.queued + tenant.inflight != 0) return true;
    }
    return false;
  };
  while (busy(stats) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats = service.Stats();
  }
  EXPECT_EQ(stats.queue_depth, 0);
}

TEST(ChaosTest, GreedyTenantCannotStarveALightOne) {
  InjectorReset guard;
  const std::uint64_t seed = ChaosSeed();
  FaultInjector& injector = FaultInjector::Default();
  // Latency-only injection: every execution costs a few ms, so the greedy
  // tenant's connections genuinely pile up against the small queue.
  ASSERT_TRUE(injector
                  .Configure("service.execute",
                             {.probability = 1.0, .latency_ms = 3.0})
                  .ok());
  injector.Arm(seed);

  ServiceOptions service_options;
  service_options.threads = 2;
  service_options.max_queue_depth = 8;
  EstimationService service(service_options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  TestTcpServer server(service);

  constexpr int kGreedyConnections = 12;
  constexpr int kPerConnection = 10;
  constexpr int kLightRequests = 8;
  std::atomic<int> greedy_ok{0};
  std::atomic<int> greedy_shed{0};
  std::atomic<int> light_shed{0};

  // The greedy tenant floods from many connections at once (per-connection
  // request handling is sequential, so concurrency needs fan-out); start
  // jitter comes from the chaos seed.
  std::mt19937_64 rng(seed);
  std::vector<std::thread> greedy;
  for (int c = 0; c < kGreedyConnections; ++c) {
    const int jitter_us = static_cast<int>(rng() % 2000);
    greedy.emplace_back([&, c, jitter_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(jitter_us));
      ChaosClient client(server.port());
      ASSERT_TRUE(client.connected());
      for (int r = 0; r < kPerConnection; ++r) {
        const int id = c * 1000 + r;
        ASSERT_TRUE(client.Send(TenantEstimateLine("greedy", id)));
        const ChaosClient::LineOrClose got = client.ReadLineOrClose();
        ASSERT_FALSE(got.closed);
        Result<Json> parsed = Json::Parse(got.line);
        ASSERT_TRUE(parsed.ok()) << got.line;
        EXPECT_EQ(parsed.value().GetNumber("id", -1), id);
        if (parsed.value().GetBool("ok", false)) {
          greedy_ok.fetch_add(1);
          continue;
        }
        // The only way the service may refuse the flood: retryable
        // pushback, never an internal error or a dropped line.
        const Json* error = parsed.value().Get("error");
        ASSERT_NE(error, nullptr) << got.line;
        EXPECT_EQ(error->GetString("code", ""), "RESOURCE_EXHAUSTED")
            << got.line;
        EXPECT_TRUE(error->GetBool("retryable", false)) << got.line;
        greedy_shed.fetch_add(1);
      }
    });
  }

  // The light tenant trickles one request at a time and retries sheds,
  // honouring the server's retry_after_ms pacing hint (capped to keep the
  // test brisk). DRF guarantees its share is never consumed by the flood, so
  // a bounded number of retries must always land every request.
  std::thread light_thread([&] {
    ChaosClient client(server.port());
    ASSERT_TRUE(client.connected());
    for (int r = 0; r < kLightRequests; ++r) {
      bool served = false;
      for (int attempt = 0; attempt < 25 && !served; ++attempt) {
        ASSERT_TRUE(client.Send(TenantEstimateLine("light", 5000 + r)));
        const ChaosClient::LineOrClose got = client.ReadLineOrClose();
        ASSERT_FALSE(got.closed);
        Result<Json> parsed = Json::Parse(got.line);
        ASSERT_TRUE(parsed.ok()) << got.line;
        EXPECT_EQ(parsed.value().GetNumber("id", -1), 5000 + r);
        if (parsed.value().GetBool("ok", false)) {
          served = true;
          break;
        }
        const Json* error = parsed.value().Get("error");
        ASSERT_NE(error, nullptr) << got.line;
        EXPECT_EQ(error->GetString("code", ""), "RESOURCE_EXHAUSTED")
            << got.line;
        EXPECT_TRUE(error->GetBool("retryable", false)) << got.line;
        light_shed.fetch_add(1);
        const double hint = error->GetNumber("retry_after_ms", 5.0);
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            std::min(hint, 20.0)));
      }
      ASSERT_TRUE(served) << "light tenant starved on request " << r
                          << " (seed " << seed << ")";
    }
  });

  for (std::thread& thread : greedy) thread.join();
  light_thread.join();
  injector.Disarm();

  // 12 concurrent connections against 8 queue slots: the flood must have
  // been pushed back at least once, and every refusal above was retryable.
  EXPECT_EQ(greedy_ok.load() + greedy_shed.load(),
            kGreedyConnections * kPerConnection);
  EXPECT_GT(greedy_shed.load(), 0) << "seed " << seed;

  // Per-tenant conservation: all slots returned, every arrival accounted
  // for by exactly one terminal counter.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queue_depth, 0);
  bool saw_greedy = false;
  bool saw_light = false;
  for (const TenantRegistry::TenantStats& tenant : stats.tenants) {
    EXPECT_EQ(tenant.inflight, 0) << tenant.name;
    EXPECT_EQ(tenant.queued, 0) << tenant.name;
    EXPECT_EQ(tenant.submitted,
              tenant.completed + tenant.failed + tenant.shed_total)
        << tenant.name << " (seed " << seed << ")";
    if (tenant.name == "greedy") {
      saw_greedy = true;
      EXPECT_EQ(tenant.completed, static_cast<std::uint64_t>(greedy_ok.load()));
      EXPECT_EQ(tenant.shed_total,
                static_cast<std::uint64_t>(greedy_shed.load()));
    }
    if (tenant.name == "light") {
      saw_light = true;
      EXPECT_EQ(tenant.completed, static_cast<std::uint64_t>(kLightRequests));
      EXPECT_EQ(tenant.shed_total,
                static_cast<std::uint64_t>(light_shed.load()));
    }
  }
  EXPECT_TRUE(saw_greedy);
  EXPECT_TRUE(saw_light);
}

/// A task-time source whose queries block until Open() — parks all the
/// service workers so shutdown fires with requests genuinely in flight.
class GateSource : public TaskTimeSource {
 public:
  Duration TaskTime(const EstimationContext&) const override {
    std::unique_lock lock(mutex_);
    ++entered_;
    entered_cv_.notify_all();
    open_cv_.wait(lock, [&] { return open_; });
    return Duration::Seconds(1);
  }

  void Open() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    open_cv_.notify_all();
  }

  void WaitUntilEntered(int count) const {
    std::unique_lock lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= count; });
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable open_cv_;
  mutable std::condition_variable entered_cv_;
  mutable bool open_ = false;
  mutable int entered_ = 0;
};

TEST(ChaosTest, ShutdownUnderLoadAnswersEveryInflightRequest) {
  constexpr int kInflight = 8;
  ServiceOptions service_options;
  service_options.threads = kInflight;
  EstimationService service(service_options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  TcpServerOptions options;
  options.drain_grace_seconds = 0.1;
  TestTcpServer server(service, options);

  std::vector<std::thread> clients;
  std::atomic<int> unavailable{0};
  std::atomic<int> succeeded{0};
  for (int c = 0; c < kInflight; ++c) {
    clients.emplace_back([&, c] {
      ChaosClient client(server.port());
      ASSERT_TRUE(client.connected());
      ASSERT_TRUE(client.Send(EstimateLine(c)));
      const ChaosClient::LineOrClose got = client.ReadLineOrClose();
      // Shutdown still answers: the in-flight request resolves (ok or
      // UNAVAILABLE{retryable}) and the response is written before the
      // connection unwinds.
      ASSERT_FALSE(got.closed) << "request " << c << " was dropped";
      Result<Json> parsed = Json::Parse(got.line);
      ASSERT_TRUE(parsed.ok()) << got.line;
      EXPECT_EQ(parsed.value().GetNumber("id", -1), c);
      if (parsed.value().GetBool("ok", false)) {
        succeeded.fetch_add(1);
      } else {
        const Json* error = parsed.value().Get("error");
        ASSERT_NE(error, nullptr);
        EXPECT_EQ(error->GetString("code", ""), "UNAVAILABLE");
        EXPECT_TRUE(error->GetBool("retryable", false));
        unavailable.fetch_add(1);
      }
    });
  }
  gate.WaitUntilEntered(kInflight);  // All workers parked mid-estimate.

  // The SIGTERM path: open the gate only after the grace period has lapsed
  // and the shutdown token has fired — workers unwind cooperatively.
  std::thread release([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    gate.Open();
  });
  const Result<TcpServeSummary>& summary = server.Stop();
  release.join();
  for (std::thread& thread : clients) thread.join();

  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->stopped);
  EXPECT_FALSE(summary->drained);
  EXPECT_EQ(summary->shutdown.inflight_at_shutdown, kInflight);
  EXPECT_FALSE(summary->shutdown.graceful);
  EXPECT_EQ(summary->shutdown.cancelled, kInflight);
  EXPECT_EQ(succeeded.load() + unavailable.load(), kInflight);
  // `cancelled` counts requests still running when the token fired; each of
  // them either unwound (UNAVAILABLE) or squeaked through to a result.
  EXPECT_GT(unavailable.load(), 0);
  EXPECT_LE(unavailable.load(), summary->shutdown.cancelled);
  EXPECT_EQ(service.Stats().queue_depth, 0);
}

TEST(ChaosTest, PooledSweepStaysBitIdenticalUnderTaskTimeFaults) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();

  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  Result<std::vector<DagWorkflow>> flows = BuildReducerCandidates(
      WordCountSpec(Bytes::FromGB(20)), {8, 16, 24, 32, 48, 64, 96, 128});
  ASSERT_TRUE(flows.ok());
  std::vector<SweepCandidate> candidates;
  for (const DagWorkflow& flow : *flows) {
    candidates.push_back({&flow, cluster, flow.name()});
  }
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const SchedulerConfig scheduler;

  // Golden bits: serial, nothing armed.
  SweepOptions serial;
  serial.threads = 1;
  const SweepResult golden = EstimateBatch(candidates, scheduler, source, serial);
  for (const Result<DagEstimate>& estimate : golden.estimates) {
    ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  }

  // An explicit pool keeps the batch on the pooled path even on a one-core
  // machine, where a `threads` count would be clamped to the hardware and
  // degrade to the serial loop.
  ThreadPool pool(4);

  // Latency-only straggler injection at the BOE solve (a memo miss): a fired
  // solve stalls its candidate mid-estimate while other workers fill and
  // read the same memo and checkpoint store — under TSan in CI.
  ASSERT_TRUE(injector
                  .Configure("model.task_time",
                             {.probability = 0.05, .latency_ms = 2.0})
                  .ok());
  const std::uint64_t seed = ChaosSeed();
  injector.Arm(seed);

  SweepOptions pooled;
  pooled.pool = &pool;
  const SweepResult faulted =
      EstimateBatch(candidates, scheduler, source, pooled);
  injector.Disarm();

  // Seed-independent invariants: however the stalls interleave the workers,
  // every candidate carries the bits of the serial run (deterministic
  // source + bit-exact memo) and resolves exactly once.
  ASSERT_EQ(faulted.estimates.size(), golden.estimates.size());
  for (size_t i = 0; i < faulted.estimates.size(); ++i) {
    ASSERT_TRUE(faulted.estimates[i].ok())
        << "seed " << seed << ": " << faulted.estimates[i].status().ToString();
    const DagEstimate& a = *faulted.estimates[i];
    const DagEstimate& b = *golden.estimates[i];
    EXPECT_EQ(a.makespan.seconds(), b.makespan.seconds()) << "seed " << seed;
    ASSERT_EQ(a.states.size(), b.states.size()) << "seed " << seed;
    for (size_t s = 0; s < a.states.size(); ++s) {
      EXPECT_EQ(a.states[s].start, b.states[s].start);
      EXPECT_EQ(a.states[s].duration, b.states[s].duration);
    }
  }
  EXPECT_EQ(faulted.stats.completed, static_cast<int>(candidates.size()));
}

}  // namespace
}  // namespace dagperf
