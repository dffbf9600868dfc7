// Fleet tests: a real router::Router supervising real `dagperf serve` child
// processes (the binary comes from $DAGPERF_BIN, set by ctest to the built
// CLI). These are the robustness headline tests:
//   - routing is sticky (one key, one shard) and stats fan out with a
//     fleet-wide aggregate;
//   - saturating one shard sheds with retryable UNAVAILABLE + retry_after_ms
//     while other shards keep serving;
//   - SIGKILLing a shard under 64-client mixed-tenant load produces zero
//     non-retryable client errors, the supervisor restarts it, readmission
//     waits for the probe quorum, and the restarted shard rejoins *warm*
//     (>= 0.5x its pre-kill checkpoints, restored from its DPWARM01
//     snapshot);
//   - fleet-wide conservation: submitted == completed + failed + shed +
//     expired across the shard fan-out when quiescent;
//   - a drain verb gracefully stops the fleet, leaving every shard's final
//     snapshot on disk;
//   - one tenant's expired deadlines are that tenant's own failures: a
//     single `dagperf serve` with its default flags keeps answering every
//     other request, warm copies and cold estimates alike.
// Seeded like chaos_test: DAGPERF_CHAOS_SEED drives client scheduling
// jitter and is logged for repro.

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "router/router.h"
#include "router/supervisor.h"
#include "service/line_client.h"

namespace dagperf {
namespace router {
namespace {

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
    std::cout << "[fleet] seed " << value
              << "  (repro: DAGPERF_CHAOS_SEED=" << value << ")" << std::endl;
    return value;
  }();
  return seed;
}

std::string DagperfBin() {
  const char* env = std::getenv("DAGPERF_BIN");
  return env == nullptr ? "" : env;
}

/// Spins a Router over N real `dagperf serve` children in a private
/// directory under the build tree. Serve() runs on a background thread; the
/// harness hands out the listen port and joins on destruction.
class FleetHarness {
 public:
  FleetHarness(const std::string& name, int shards, RouterOptions options)
      : dir_("fleet_test_" + name) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    std::vector<ShardSpec> specs;
    for (int i = 0; i < shards; ++i) {
      const std::string shard_id = "shard-" + std::to_string(i);
      const std::string shard_dir = dir_ + "/" + shard_id;
      std::filesystem::create_directories(shard_dir);
      ShardSpec spec;
      spec.shard_id = shard_id;
      spec.port_file = dir_ + "/" + shard_id + ".port";
      spec.stderr_file = dir_ + "/" + shard_id + ".log";
      spec.command = {DagperfBin(),
                      "serve",
                      "--port",
                      "0",
                      "--port-file",
                      spec.port_file,
                      "--shard-id",
                      shard_id,
                      "--snapshot-dir",
                      shard_dir,
                      "--snapshot-interval-seconds",
                      "0.2",
                      "--scale",
                      "0.01",
                      "--threads",
                      "2"};
      specs.push_back(std::move(spec));
    }
    options.stop = stop_;
    std::future<int> port_future = port_promise_.get_future();
    options.on_listen = [this](int port) {
      try {
        port_promise_.set_value(port);
      } catch (const std::future_error&) {
      }
    };
    router_ = std::make_unique<Router>(std::move(specs), options);
    thread_ = std::thread([this] {
      result_ = router_->Serve();
      // Serve() can fail before on_listen (e.g. no shard came up); resolve
      // the port future either way so the ctor never hangs on a boot
      // failure.
      try {
        port_promise_.set_value(-1);
      } catch (const std::future_error&) {
      }
    });
    port_ = port_future.get();
  }

  ~FleetHarness() {
    Stop();
    std::filesystem::remove_all(dir_);
  }

  const Result<RouterSummary>& Stop() {
    if (thread_.joinable()) {
      stop_.Cancel();
      thread_.join();
    }
    return result_;
  }

  /// Joins Serve() without firing the stop token — for drain-verb tests.
  const Result<RouterSummary>& Join() {
    if (thread_.joinable()) thread_.join();
    return result_;
  }

  Router& router() { return *router_; }
  int port() const { return port_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  CancelToken stop_ = CancelToken::Cancellable();
  std::unique_ptr<Router> router_;
  std::promise<int> port_promise_;
  std::thread thread_;
  int port_ = -1;
  Result<RouterSummary> result_ = Status::Internal("serve never ran");
};

std::string EstimateLine(const std::string& workflow, int id,
                         const std::string& tenant = "") {
  std::string line = R"({"op":"estimate","workflow":")" + workflow + "\"";
  if (!tenant.empty()) line += R"(,"tenant":")" + tenant + "\"";
  line += ",\"id\":" + std::to_string(id) + "}";
  return line;
}

/// One request with client-side retries of retryable errors. Returns true
/// once served; any non-retryable error is an immediate test failure (the
/// fleet's core promise). Reconnects on severed connections — the router
/// itself never drops a healthy client, but harness shutdown races are not
/// what this asserts.
bool EstimateWithRetry(protocol::LineClient& client, int port,
                       const std::string& workflow, int id,
                       std::atomic<int>& retries) {
  for (int attempt = 0; attempt < 60; ++attempt) {
    if (!client.connected() && !client.Connect(port).ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    Result<std::string> response =
        client.Call(EstimateLine(workflow, id, "tenant-" +
                                                   std::to_string(id % 4)),
                    60.0);
    if (!response.ok()) {
      // Transport trouble talking to the router itself; reconnect.
      client.Close();
      retries.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    Result<Json> parsed = Json::Parse(response.value());
    EXPECT_TRUE(parsed.ok()) << response.value();
    if (!parsed.ok()) return false;
    EXPECT_EQ(parsed.value().GetNumber("id", -1), id) << response.value();
    if (parsed.value().GetBool("ok", false)) return true;

    const Json* error = parsed.value().Get("error");
    EXPECT_NE(error, nullptr) << response.value();
    if (error == nullptr) return false;
    // The headline invariant: under shard death, failover, shedding, and
    // drain, a client never sees a non-retryable error.
    EXPECT_TRUE(error->GetBool("retryable", false))
        << "non-retryable error (seed " << ChaosSeed()
        << "): " << response.value();
    if (!error->GetBool("retryable", false)) return false;
    if (error->GetString("code", "") == "UNAVAILABLE") {
      EXPECT_GT(error->GetNumber("retry_after_ms", 0.0), 0.0)
          << "UNAVAILABLE without retry_after_ms: " << response.value();
    }
    retries.fetch_add(1);
    const double pace_ms =
        std::min(error->GetNumber("retry_after_ms", 10.0), 50.0);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(pace_ms));
  }
  ADD_FAILURE() << "request " << id << " for " << workflow
                << " never served after 60 attempts (seed " << ChaosSeed()
                << ")";
  return false;
}

Result<Json> CallJson(int port, const std::string& request) {
  protocol::LineClient client;
  if (Status s = client.Connect(port); !s.ok()) return s;
  Result<std::string> response = client.Call(request, 30.0);
  if (!response.ok()) return response.status();
  return Json::Parse(response.value());
}

/// Per-shard entry from a stats fan-out response, nullptr when absent.
const Json* ShardEntry(const Json& response, const std::string& shard_id) {
  const Json* result = response.Get("result");
  if (result == nullptr) return nullptr;
  const Json* shards = result->Get("shards");
  if (shards == nullptr) return nullptr;
  for (const Json& shard : shards->AsArray()) {
    if (shard.GetString("shard_id", "") == shard_id) return &shard;
  }
  return nullptr;
}

/// Fleet-wide conservation: submitted == completed + failed + shed +
/// expired, with an idle queue — every request the fan-out can see is
/// accounted for by exactly one terminal counter.
void ExpectFleetConservation(const Json& stats_response) {
  const Json* result = stats_response.Get("result");
  ASSERT_NE(result, nullptr);
  const Json* fleet = result->Get("fleet");
  ASSERT_NE(fleet, nullptr) << result->Dump();
  const double submitted = fleet->GetNumber("submitted", -1);
  const double accounted = fleet->GetNumber("completed", 0) +
                           fleet->GetNumber("failed", 0) +
                           fleet->GetNumber("shed", 0) +
                           fleet->GetNumber("expired_in_queue", 0);
  EXPECT_GE(submitted, 0);
  EXPECT_EQ(submitted, accounted)
      << "fleet conservation broken (seed " << ChaosSeed()
      << "): " << fleet->Dump();
  EXPECT_EQ(fleet->GetNumber("queue_depth", -1), 0);
}

// ---------------------------------------------------------------------------

TEST(FleetTest, RoutesStickilyAndAggregatesStats) {
  ASSERT_FALSE(DagperfBin().empty())
      << "DAGPERF_BIN must point at the dagperf CLI (ctest sets it)";
  RouterOptions options;
  options.probe_interval_seconds = 0.02;
  FleetHarness fleet("sticky", 2, options);
  ASSERT_GT(fleet.port(), 0);

  // Every repeat of one route key lands on the shard the ring elects.
  const std::string owner =
      fleet.router().OwnerOf(Router::RouteKey("default", "TS-Q1"));
  ASSERT_FALSE(owner.empty());

  protocol::LineClient client;
  std::atomic<int> retries{0};
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(EstimateWithRetry(client, fleet.port(), "TS-Q1", i, retries));
  }

  Result<Json> stats = CallJson(fleet.port(), R"({"op":"stats","id":1})");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats.value().GetBool("ok", false)) << stats.value().Dump();

  // All six landed on `owner`, none elsewhere.
  const Json* owner_entry = ShardEntry(stats.value(), owner);
  ASSERT_NE(owner_entry, nullptr);
  const Json* owner_stats = owner_entry->Get("stats");
  ASSERT_NE(owner_stats, nullptr);
  EXPECT_EQ(owner_stats->GetNumber("submitted", -1), 6);
  for (const std::string other : {std::string("shard-0"),
                                  std::string("shard-1")}) {
    if (other == owner) continue;
    const Json* entry = ShardEntry(stats.value(), other);
    ASSERT_NE(entry, nullptr);
    const Json* entry_stats = entry->Get("stats");
    ASSERT_NE(entry_stats, nullptr);
    EXPECT_EQ(entry_stats->GetNumber("submitted", -1), 0)
        << "request leaked to " << other;
    // Shard-mode attribution: each shard echoes its id and readiness.
    EXPECT_EQ(entry_stats->GetString("shard_id", ""), other);
    EXPECT_TRUE(entry_stats->GetBool("ready", false));
  }
  ExpectFleetConservation(stats.value());

  // The router block reports fleet shape.
  const Json* router_block = stats.value().Get("result")->Get("router");
  ASSERT_NE(router_block, nullptr);
  EXPECT_EQ(router_block->GetNumber("shards_total", -1), 2);
  EXPECT_EQ(router_block->GetNumber("shards_up", -1), 2);

  // Unknown verbs name the supported set without disturbing the fleet.
  Result<Json> unknown = CallJson(fleet.port(), R"({"op":"nope","id":2})");
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(unknown.value().GetBool("ok", true));
  EXPECT_EQ(unknown.value().Get("error")->GetString("code", ""),
            "INVALID_ARGUMENT");

  const Result<RouterSummary>& summary = fleet.Stop();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary->stopped);
  EXPECT_GE(summary->requests, 8u);
}

TEST(FleetTest, RouterFrontEndAnswersBadLinesLikeAShard) {
  ASSERT_FALSE(DagperfBin().empty());
  RouterOptions options;
  options.probe_interval_seconds = 0.02;
  FleetHarness fleet("parity", 1, options);
  ASSERT_GT(fleet.port(), 0);
  const std::vector<ShardInfo> shards = fleet.router().Shards();
  ASSERT_EQ(shards.size(), 1u);

  protocol::LineClient to_router;
  protocol::LineClient to_shard;
  ASSERT_TRUE(to_router.Connect(fleet.port()).ok());
  ASSERT_TRUE(to_shard.Connect(shards[0].port).ok());
  // Lines that never become a request the router can act on: the answer is
  // the shard's own, byte for byte, and an id JSON cannot spell (1e400) is
  // never echoed.
  const std::vector<std::string> lines = {
      R"({"op":"stats","id":1e400})",
      R"({"op":"bogus","id":1e400})",
      "not json",
      "[1,2,3]",
      std::string(kDefaultMaxLineBytes + 16, 'x'),
  };
  for (const std::string& line : lines) {
    SCOPED_TRACE(line.substr(0, 32));
    Result<std::string> routed = to_router.Call(line, 30.0);
    Result<std::string> direct = to_shard.Call(line, 30.0);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    Result<Json> parsed = Json::Parse(routed.value());
    ASSERT_TRUE(parsed.ok()) << routed.value();
    EXPECT_FALSE(parsed.value().GetBool("ok", true));
    const Json* id = parsed.value().Get("id");
    ASSERT_NE(id, nullptr) << routed.value();
    EXPECT_TRUE(id->is_null()) << routed.value();
    EXPECT_EQ(routed.value(), direct.value());
  }
}

TEST(FleetTest, SaturatedShardShedsRetryablyAndRecovers) {
  ASSERT_FALSE(DagperfBin().empty());
  RouterOptions options;
  options.probe_interval_seconds = 0.02;
  // A single in-flight slot per shard: concurrent clients hammering one
  // route key must overflow and shed at the router.
  options.max_in_flight_per_shard = 1;
  FleetHarness fleet("shed", 2, options);
  ASSERT_GT(fleet.port(), 0);

  constexpr int kClients = 8;
  constexpr int kPerClient = 6;
  std::atomic<int> retries{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      protocol::LineClient client;
      for (int r = 0; r < kPerClient; ++r) {
        // Everyone asks for the same key: one shard takes the storm.
        if (EstimateWithRetry(client, fleet.port(), "WC-Q3", c * 100 + r,
                              retries)) {
          served.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(served.load(), kClients * kPerClient);

  Result<Json> stats = CallJson(fleet.port(), R"({"op":"stats","id":3})");
  ASSERT_TRUE(stats.ok());
  ExpectFleetConservation(stats.value());

  const Result<RouterSummary>& summary = fleet.Stop();
  ASSERT_TRUE(summary.ok());
  // With 8 concurrent clients against 1 slot, the router must have shed at
  // least once — and every shed above was retryable UNAVAILABLE (asserted
  // inside EstimateWithRetry).
  EXPECT_GT(summary->sheds, 0u) << "seed " << ChaosSeed();
}

TEST(FleetTest, ShardKillUnderLoadFailsOverAndRejoinsWarm) {
  ASSERT_FALSE(DagperfBin().empty());
  const std::uint64_t seed = ChaosSeed();
  RouterOptions options;
  options.probe_interval_seconds = 0.02;
  options.readmit_quorum = 2;
  FleetHarness fleet("chaos", 3, options);
  ASSERT_GT(fleet.port(), 0);

  // The workflow population: 16 distinct route keys spread over the ring.
  std::vector<std::string> workflows;
  for (int q = 1; q <= 16; ++q) {
    workflows.push_back("TS-Q" + std::to_string(q));
  }

  // Warm-up: serve each key twice so every shard holds warm state worth
  // snapshotting, then give the 0.2s snapshot timer time to persist it.
  {
    protocol::LineClient client;
    std::atomic<int> retries{0};
    int id = 100000;
    for (int round = 0; round < 2; ++round) {
      for (const std::string& workflow : workflows) {
        ASSERT_TRUE(EstimateWithRetry(client, fleet.port(), workflow, id++,
                                      retries));
      }
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  // Victim: the shard owning TS-Q1 — guaranteed warm for at least one key.
  const std::string victim =
      fleet.router().OwnerOf(Router::RouteKey("default", "TS-Q1"));
  ASSERT_FALSE(victim.empty());
  double victim_entries_pre = 0;
  pid_t victim_pid = -1;
  std::uint64_t victim_launches_pre = 0;
  {
    Result<Json> stats = CallJson(fleet.port(), R"({"op":"stats","id":4})");
    ASSERT_TRUE(stats.ok());
    const Json* entry = ShardEntry(stats.value(), victim);
    ASSERT_NE(entry, nullptr);
    const Json* checkpoints = entry->Get("stats")->Get("incremental");
    ASSERT_NE(checkpoints, nullptr);
    victim_entries_pre = checkpoints->GetNumber("entries", 0);
    EXPECT_GT(victim_entries_pre, 0) << "victim never warmed up";
    for (const ShardInfo& info : fleet.router().Shards()) {
      if (info.shard_id == victim) {
        victim_pid = info.pid;
        victim_launches_pre = info.launches;
      }
    }
    ASSERT_GT(victim_pid, 0);
  }

  // 64 mixed-tenant clients, seeded start jitter, retrying retryables.
  constexpr int kClients = 64;
  constexpr int kPerClient = 4;
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> jitters;
  for (int c = 0; c < kClients; ++c) jitters.push_back(rng() % 50000);
  std::atomic<int> retries{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::this_thread::sleep_for(std::chrono::microseconds(jitters[c]));
      protocol::LineClient client;
      for (int r = 0; r < kPerClient; ++r) {
        if (EstimateWithRetry(client, fleet.port(),
                              workflows[(c + r) % workflows.size()],
                              c * 1000 + r, retries)) {
          served.fetch_add(1);
        }
      }
    });
  }

  // Kill the victim mid-storm. SIGKILL: no handler runs, no goodbye — the
  // supervisor must notice, restart, and the ring must carry its arc to the
  // successor meanwhile.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::kill(victim_pid, SIGKILL), 0);

  for (std::thread& thread : clients) thread.join();
  // Zero lost requests: every one of the 256 eventually succeeded, and any
  // error on the way was retryable (enforced inside EstimateWithRetry).
  EXPECT_EQ(served.load(), kClients * kPerClient);

  // The supervisor restarts the victim and readmission waits for the probe
  // quorum; poll until it is back up.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool rejoined = false;
  while (std::chrono::steady_clock::now() < deadline) {
    for (const ShardInfo& info : fleet.router().Shards()) {
      if (info.shard_id == victim && info.state == ShardState::kUp &&
          info.launches > victim_launches_pre) {
        rejoined = true;
      }
    }
    if (rejoined) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(rejoined) << "victim never rejoined the ring (seed " << seed
                        << ")";

  // Warm rejoin: the restarted process restored its periodic DPWARM01
  // snapshot, so its checkpoint store starts at >= half its pre-kill
  // population rather than from zero.
  {
    Result<Json> stats = CallJson(fleet.port(), R"({"op":"stats","id":5})");
    ASSERT_TRUE(stats.ok());
    const Json* entry = ShardEntry(stats.value(), victim);
    ASSERT_NE(entry, nullptr);
    ASSERT_TRUE(entry->GetBool("reachable", false));
    const Json* checkpoints = entry->Get("stats")->Get("incremental");
    ASSERT_NE(checkpoints, nullptr);
    EXPECT_GE(checkpoints->GetNumber("entries", 0), 0.5 * victim_entries_pre)
        << "restarted shard came back cold (seed " << seed << ")";
    ExpectFleetConservation(stats.value());
  }

  // Graceful drain via the wire: the fleet saves final snapshots and
  // Serve() returns with drained set.
  Result<Json> drained = CallJson(fleet.port(), R"({"op":"drain","id":6})");
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(drained.value().GetBool("ok", false)) << drained.value().Dump();

  const Result<RouterSummary>& summary = fleet.Join();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary->drained);
  EXPECT_FALSE(summary->stopped);
  EXPECT_GE(summary->restarts, 1u) << "supervisor never restarted the victim";

  // Every shard left a final snapshot behind (drain handoff).
  for (int i = 0; i < 3; ++i) {
    const std::string snapshot =
        fleet.dir() + "/shard-" + std::to_string(i) + "/warm.snapshot";
    EXPECT_TRUE(std::filesystem::exists(snapshot))
        << snapshot << " missing after graceful drain";
  }
}

TEST(FleetTest, OneTenantsExpiredDeadlinesNeverRefuseOtherRequests) {
  ASSERT_FALSE(DagperfBin().empty());
  const std::string dir = "fleet_test_deadlines";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // One plain server, every flag but the port at its default: a full-scale
  // TS-Q9 estimate takes a few hundred microseconds cold, so a 40 us
  // deadline expires mid-estimate.
  ShardProcessOptions launch;
  launch.shard_id = "deadlines";
  launch.port_file = dir + "/serve.port";
  launch.stderr_file = dir + "/serve.log";
  launch.command = {DagperfBin(), "serve",     "--port", "0",
                    "--port-file", launch.port_file, "--threads", "1"};
  ShardProcess server(launch);
  ASSERT_TRUE(server.Start().ok());

  protocol::LineClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  const auto call = [&client](const std::string& line) -> Json {
    Result<std::string> response = client.Call(line, 60.0);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) return Json();
    Result<Json> parsed = Json::Parse(response.value());
    EXPECT_TRUE(parsed.ok()) << response.value();
    return parsed.ok() ? std::move(parsed).value() : Json();
  };
  const auto estimate = [](int id, const std::string& tenant, int nodes,
                           double deadline_s) {
    std::string line = R"({"op":"estimate","workflow":"TS-Q9","tenant":")" +
                       tenant + "\"";
    if (nodes > 0) line += ",\"nodes\":" + std::to_string(nodes);
    if (deadline_s > 0) line += ",\"deadline_s\":" + std::to_string(deadline_s);
    return line + ",\"id\":" + std::to_string(id) + "}";
  };

  // Prime one key: its complete result is now stored.
  ASSERT_TRUE(call(estimate(1, "other", 0, 0.0)).GetBool("ok", false));

  // Tenant "tight": 20 cold estimates (each its own node count) whose
  // deadlines expire. Each fails with its own DEADLINE_EXCEEDED at worst.
  int expired = 0;
  std::string other_errors;
  for (int i = 0; i < 20; ++i) {
    const Json answer = call(estimate(100 + i, "tight", 2 + i, 4e-5));
    if (answer.GetBool("ok", false)) continue;
    const Json* error = answer.Get("error");
    ASSERT_NE(error, nullptr) << answer.Dump();
    if (error->GetString("code", "") == "DEADLINE_EXCEEDED") {
      ++expired;
    } else {
      other_errors += "\n  tight request " + std::to_string(i) + ": " +
                      error->GetString("code", "") + ": " +
                      error->GetString("message", "");
    }
  }
  EXPECT_GE(expired, 8) << "the 40 us deadlines did not expire";
  EXPECT_TRUE(other_errors.empty()) << other_errors;

  // Tenant "other": the primed copy and a cold estimate with no deadline
  // are both answered.
  const Json warm = call(estimate(200, "other", 0, 0.0));
  EXPECT_TRUE(warm.GetBool("ok", false)) << warm.Dump();
  const Json cold = call(estimate(201, "other", 60, 0.0));
  EXPECT_TRUE(cold.GetBool("ok", false)) << cold.Dump();

  client.Close();
  server.Terminate();
  EXPECT_TRUE(server.WaitExit(30.0));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace router
}  // namespace dagperf
