#include "router/router.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/json.h"
#include "obs/metrics.h"
#include "resilience/retry.h"
#include "service/line_client.h"
#include "service/protocol.h"
#include "service/transport.h"

namespace dagperf {
namespace router {

namespace {

/// Pooled idle connections kept per shard; beyond this, finished
/// connections are simply closed.
constexpr int kMaxIdlePerShard = 8;

struct RouterMetrics {
  obs::Counter& requests;
  obs::Counter& reroutes;
  obs::Counter& restarts;
  obs::Counter& sheds;
  obs::Counter& upstream_errors;
  obs::Histogram& failover_latency_us;
};

RouterMetrics& Metrics() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  static RouterMetrics metrics{
      registry.GetCounter("router.requests"),
      registry.GetCounter("router.reroutes"),
      registry.GetCounter("router.restarts"),
      registry.GetCounter("router.sheds"),
      registry.GetCounter("router.upstream_errors"),
      registry.GetHistogram("router.failover_latency_us"),
  };
  return metrics;
}

/// The success line {"id":..,"ok":true,"result":..}; the id as
/// Protocol::TransportErrorLine writes it (null when absent).
std::string OkLine(const Json* id, const std::string& result_json) {
  return "{\"id\":" + (id == nullptr ? std::string("null") : id->DumpCompact()) +
         ",\"ok\":true,\"result\":" + result_json + "}";
}

ShardProcessOptions ProcessOptionsFrom(const ShardSpec& spec) {
  ShardProcessOptions options;
  options.shard_id = spec.shard_id;
  options.command = spec.command;
  options.port_file = spec.port_file;
  options.start_timeout_seconds = spec.start_timeout_seconds;
  options.stderr_file = spec.stderr_file;
  return options;
}

}  // namespace

struct Router::ShardRuntime {
  ShardRuntime(const ShardSpec& spec, const ShardHealthOptions& health_options)
      : process(ProcessOptionsFrom(spec)),
        health(health_options),
        shard_id(spec.shard_id) {}

  /// Owned by the monitor thread after Serve() starts it; the data path
  /// only reads the mirrored port/pid/launches fields under the router
  /// mutex.
  ShardProcess process;
  ShardHealth health;  // guarded by Router::mutex_
  std::string shard_id;

  // Guarded by Router::mutex_.
  int port = 0;
  pid_t pid = -1;
  std::uint64_t launches = 0;
  /// Bumped whenever the shard goes down: pooled connections from an older
  /// epoch belong to a dead process and are discarded instead of reused.
  std::uint64_t epoch = 0;
  std::vector<std::unique_ptr<protocol::LineClient>> idle;
  int in_flight = 0;
  double down_since_us = 0.0;

  // Monitor-thread private.
  double backoff_seconds = 0.0;
  double next_restart_us = 0.0;
  protocol::LineClient probe;
  int probe_port = 0;

  obs::Gauge* state_gauge = nullptr;
};

Router::Router(std::vector<ShardSpec> shards, RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.vnodes),
      halt_(CancelToken::LinkedTo({options_.stop})) {
  ShardHealthOptions health_options;
  health_options.readmit_quorum = options_.readmit_quorum;
  health_options.breaker_failure_threshold = options_.breaker_failure_threshold;
  health_options.breaker_open_seconds = options_.breaker_open_seconds;
  for (const ShardSpec& spec : shards) {
    shards_.push_back(std::make_unique<ShardRuntime>(spec, health_options));
    ShardRuntime& rt = *shards_.back();
    rt.state_gauge = &obs::MetricsRegistry::Default().GetGauge(
        "router.shard_state." + spec.shard_id);
    rt.state_gauge->Set(static_cast<double>(ShardState::kDown));
  }
}

Router::~Router() {
  halt_.Cancel();
  if (monitor_.joinable()) monitor_.join();
  // ShardProcess destructors SIGKILL any still-running children.
}

std::string Router::RouteKey(const std::string& cluster,
                             const std::string& workflow) {
  // Mirrors the warm store's key layout: the checkpoint global fingerprint
  // starts with `scope + '#'` (scope defaults to the cluster name), so
  // everything a shard computes for one (cluster, workflow) pair shares one
  // ring position.
  return (cluster.empty() ? "default" : cluster) + "#" + workflow;
}

std::string Router::OwnerOf(const std::string& route_key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.OwnerOf(route_key);
}

std::vector<ShardInfo> Router::Shards() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ShardInfo> out;
  out.reserve(shards_.size());
  for (const auto& rt : shards_) {
    ShardInfo info;
    info.shard_id = rt->shard_id;
    info.state = rt->health.state();
    info.port = rt->port;
    info.pid = rt->pid;
    info.launches = rt->launches;
    out.push_back(std::move(info));
  }
  return out;
}

Router::ShardRuntime* Router::FindShard(const std::string& shard_id) const {
  for (const auto& rt : shards_) {
    if (rt->shard_id == shard_id) return rt.get();
  }
  return nullptr;
}

void Router::MarkShardDownLocked(ShardRuntime& shard, double now_us,
                                 const std::string& why) {
  const bool was_down = shard.health.state() == ShardState::kDown &&
                        !ring_.HasShard(shard.shard_id);
  shard.health.MarkDown();
  ring_.RemoveShard(shard.shard_id);
  ++shard.epoch;
  shard.idle.clear();
  shard.state_gauge->Set(static_cast<double>(ShardState::kDown));
  if (!was_down) {
    shard.down_since_us = now_us;
    flight_.AddEvent("shard_down", shard.shard_id + ": " + why);
  }
}

void Router::ReadmitShardLocked(ShardRuntime& shard, double now_us) {
  ring_.AddShard(shard.shard_id);
  shard.state_gauge->Set(static_cast<double>(ShardState::kUp));
  if (shard.down_since_us > 0) {
    // Failover latency: death (or demotion) to readmission, covering the
    // supervisor restart, snapshot restore, and the probe quorum.
    Metrics().failover_latency_us.Record(now_us - shard.down_since_us);
    shard.down_since_us = 0.0;
  }
  flight_.AddEvent("shard_up", shard.shard_id + " readmitted on port " +
                                   std::to_string(shard.port));
}

void Router::RestartShard(ShardRuntime& shard, double now_us) {
  if (now_us < shard.next_restart_us || halt_.cancelled()) return;
  // Blocking (bounded by the spec's start timeout): a fleet rarely loses
  // two shards in one window, and probes resume as soon as the child has
  // published its port.
  const Status restarted = shard.process.Restart();
  if (restarted.ok()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shard.port = shard.process.port();
      shard.pid = shard.process.pid();
      shard.launches = shard.process.launches();
    }
    shard.backoff_seconds = 0.0;
    shard.next_restart_us = 0.0;
    Metrics().restarts.Add(1);
    {
      std::lock_guard<std::mutex> lock(summary_mutex_);
      ++summary_.restarts;
    }
    flight_.AddEvent("shard_restart",
                     shard.shard_id + " relaunched on port " +
                         std::to_string(shard.process.port()) +
                         " (launch " + std::to_string(shard.process.launches()) +
                         ")");
  } else {
    shard.backoff_seconds =
        shard.backoff_seconds <= 0
            ? options_.restart_backoff_initial_seconds
            : std::min(shard.backoff_seconds * 2,
                       options_.restart_backoff_max_seconds);
    shard.next_restart_us = now_us + shard.backoff_seconds * 1e6;
    flight_.AddEvent("shard_restart_failed",
                     shard.shard_id + ": " + restarted.message());
  }
}

void Router::ProbeShard(ShardRuntime& shard, double now_us) {
  int port;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    port = shard.port;
  }
  bool ok = false;
  if (port > 0) {
    if (shard.probe_port != port || !shard.probe.connected()) {
      shard.probe.Close();
      if (shard.probe.Connect(port).ok()) shard.probe_port = port;
    }
    if (shard.probe.connected()) {
      Result<std::string> response = shard.probe.Call(
          R"({"op":"stats","id":"probe"})", options_.probe_timeout_seconds);
      if (response.ok()) {
        Result<Json> parsed = Json::Parse(response.value());
        if (parsed.ok() && parsed.value().GetBool("ok", false)) {
          const Json* result = parsed.value().Get("result");
          // A shard that reports itself draining is alive but must not be
          // readmitted — it is on its way out.
          ok = result == nullptr || result->GetBool("ready", true);
        }
      } else {
        shard.probe.Close();
      }
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const ShardState before = shard.health.state();
  const bool readmitted = shard.health.RecordProbe(ok);
  if (readmitted) {
    ReadmitShardLocked(shard, now_us);
  } else if (before == ShardState::kUp &&
             shard.health.state() == ShardState::kDown) {
    MarkShardDownLocked(shard, now_us, "probe failures opened the breaker");
  }
}

void Router::MonitorLoop() {
  double next_probe_us = 0.0;
  while (!halt_.cancelled()) {
    const double now_us = obs::MonotonicUs();
    const bool probing = now_us >= next_probe_us;
    if (probing) {
      next_probe_us = now_us + options_.probe_interval_seconds * 1e6;
    }
    for (auto& rt : shards_) {
      ShardState state;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        state = rt->health.state();
      }
      if (state == ShardState::kDraining) continue;
      if (!rt->process.Alive()) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          MarkShardDownLocked(*rt, now_us, "process exited");
        }
        RestartShard(*rt, now_us);
        continue;
      }
      if (probing) ProbeShard(*rt, now_us);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::string Router::RouteAndForward(const std::string& line,
                                    const std::string& key, const Json* id) {
  std::vector<std::string> failed;
  bool rerouted = false;

  auto attempt = [&]() -> Result<std::string> {
    std::string target;
    ShardRuntime* rt = nullptr;
    int port = 0;
    std::uint64_t epoch = 0;
    std::unique_ptr<protocol::LineClient> conn;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      target = ring_.OwnerOf(key);
      if (!target.empty() &&
          std::find(failed.begin(), failed.end(), target) != failed.end()) {
        target = ring_.SuccessorOf(key, failed);
      }
      if (target.empty()) {
        return Status::Unavailable("no shard up for this key range")
            .WithRetryAfterMs(options_.retry_after_ms);
      }
      rt = FindShard(target);
      if (rt == nullptr) {
        return Status::Internal("ring referenced unknown shard " + target);
      }
      if (!failed.empty()) rerouted = true;
      if (rt->in_flight >= options_.max_in_flight_per_shard) {
        Metrics().sheds.Add(1);
        {
          // Shed, not failover: the shard is healthy, just saturated —
          // rerouting would scatter its warm key range across the fleet.
          std::lock_guard<std::mutex> summary_lock(summary_mutex_);
          ++summary_.sheds;
        }
        return Status::Unavailable("shard " + target +
                                   " at in-flight capacity")
            .WithRetryAfterMs(options_.retry_after_ms);
      }
      ++rt->in_flight;
      port = rt->port;
      epoch = rt->epoch;
      if (!rt->idle.empty()) {
        conn = std::move(rt->idle.back());
        rt->idle.pop_back();
      }
    }

    auto finish = [&](std::unique_ptr<protocol::LineClient> reusable,
                      const Status& outcome) {
      std::lock_guard<std::mutex> lock(mutex_);
      --rt->in_flight;
      if (reusable && rt->epoch == epoch &&
          static_cast<int>(rt->idle.size()) < kMaxIdlePerShard) {
        rt->idle.push_back(std::move(reusable));
      }
      const bool demoted = rt->health.RecordDataPath(outcome);
      if (demoted) {
        MarkShardDownLocked(*rt, obs::MonotonicUs(),
                            "data-path failures opened the breaker");
      }
    };

    if (!conn) {
      conn = std::make_unique<protocol::LineClient>();
      const Status connected = conn->Connect(port);
      if (!connected.ok()) {
        finish(nullptr, connected);
        Metrics().upstream_errors.Add(1);
        failed.push_back(target);
        return Status::Unavailable("shard " + target + " unreachable: " +
                                   connected.message());
      }
    }

    Result<std::string> response =
        conn->Call(line, options_.upstream_timeout_seconds);
    if (!response.ok()) {
      // Shard died (or hung) with this request in flight. The estimate is
      // idempotent, so the retry policy reroutes it to the ring successor;
      // when attempts run out the client sees retryable UNAVAILABLE.
      finish(nullptr, response.status());
      Metrics().upstream_errors.Add(1);
      failed.push_back(target);
      return Status::Unavailable("shard " + target + " failed mid-request: " +
                                 response.status().message());
    }
    finish(std::move(conn), Status::Ok());
    return std::move(response.value());
  };

  resilience::RetryOptions retry_options;
  retry_options.max_attempts = options_.max_attempts;
  retry_options.initial_backoff_ms = 2.0;
  retry_options.max_backoff_ms = 50.0;
  resilience::RetryPolicy policy(retry_options);
  Result<std::string> result = policy.Run<std::string>(attempt);

  if (rerouted) {
    Metrics().reroutes.Add(1);
    {
      std::lock_guard<std::mutex> lock(summary_mutex_);
      ++summary_.reroutes;
    }
    flight_.AddEvent("reroute", "key " + key + " rerouted off " +
                                    (failed.empty() ? "?" : failed.front()));
  }
  if (!result.ok()) {
    Status final_status =
        Status::Unavailable(result.status().message());
    final_status.set_retry_after_ms(result.status().retry_after_ms() > 0
                                        ? result.status().retry_after_ms()
                                        : options_.retry_after_ms);
    return Protocol::TransportErrorLine(final_status, id);
  }
  return result.value();
}

std::string Router::StatsFanout(const Json* id) {
  struct Row {
    std::string shard_id;
    ShardState state = ShardState::kDown;
    int port = 0;
    std::uint64_t launches = 0;
  };
  std::vector<Row> rows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& rt : shards_) {
      rows.push_back(
          {rt->shard_id, rt->health.state(), rt->port, rt->launches});
    }
  }

  Json shards = Json::MakeArray();
  double submitted = 0, completed = 0, failed = 0, shed = 0;
  double expired = 0, served_inline = 0, queue_depth = 0;
  int up = 0;
  for (const Row& row : rows) {
    Json entry = Json::MakeObject();
    entry.Set("shard_id", Json::MakeString(row.shard_id));
    entry.Set("state", Json::MakeString(ShardStateName(row.state)));
    entry.Set("port", Json::MakeNumber(row.port));
    entry.Set("launches", Json::MakeNumber(static_cast<double>(row.launches)));
    bool reachable = false;
    if (row.state != ShardState::kDown && row.port > 0) {
      protocol::LineClient client;
      if (client.Connect(row.port).ok()) {
        Result<std::string> response = client.Call(
            R"({"op":"stats","id":"fanout"})", options_.probe_timeout_seconds);
        if (response.ok()) {
          Result<Json> parsed = Json::Parse(response.value());
          if (parsed.ok() && parsed.value().GetBool("ok", false)) {
            const Json* result = parsed.value().Get("result");
            if (result != nullptr) {
              reachable = true;
              submitted += result->GetNumber("submitted", 0);
              completed += result->GetNumber("completed", 0);
              failed += result->GetNumber("failed", 0);
              shed += result->GetNumber("shed", 0);
              expired += result->GetNumber("expired_in_queue", 0);
              served_inline += result->GetNumber("served_inline", 0);
              queue_depth += result->GetNumber("queue_depth", 0);
              entry.Set("stats", *result);
            }
          }
        }
      }
    }
    if (row.state == ShardState::kUp) ++up;
    entry.Set("reachable", Json::MakeBool(reachable));
    shards.Append(std::move(entry));
  }

  Json fleet = Json::MakeObject();
  fleet.Set("submitted", Json::MakeNumber(submitted));
  fleet.Set("completed", Json::MakeNumber(completed));
  fleet.Set("failed", Json::MakeNumber(failed));
  fleet.Set("shed", Json::MakeNumber(shed));
  fleet.Set("expired_in_queue", Json::MakeNumber(expired));
  fleet.Set("served_inline", Json::MakeNumber(served_inline));
  fleet.Set("queue_depth", Json::MakeNumber(queue_depth));

  Json router_stats = Json::MakeObject();
  {
    std::lock_guard<std::mutex> lock(summary_mutex_);
    router_stats.Set("requests",
                     Json::MakeNumber(static_cast<double>(summary_.requests)));
    router_stats.Set("reroutes",
                     Json::MakeNumber(static_cast<double>(summary_.reroutes)));
    router_stats.Set("restarts",
                     Json::MakeNumber(static_cast<double>(summary_.restarts)));
    router_stats.Set("sheds",
                     Json::MakeNumber(static_cast<double>(summary_.sheds)));
  }
  router_stats.Set("shards_up", Json::MakeNumber(up));
  router_stats.Set("shards_total",
                   Json::MakeNumber(static_cast<double>(rows.size())));

  Json result = Json::MakeObject();
  result.Set("fleet", std::move(fleet));
  result.Set("shards", std::move(shards));
  result.Set("router", std::move(router_stats));
  return OkLine(id, result.DumpCompact());
}

std::string Router::HandleRequest(const std::string& line,
                                  bool* drain_requested) {
  Metrics().requests.Add(1);
  {
    std::lock_guard<std::mutex> lock(summary_mutex_);
    ++summary_.requests;
  }
  Json request;
  std::string error_line;
  if (!Protocol::ParseRequestLine(line, &request, &error_line)) {
    return error_line;
  }
  const Json* id = request.Get("id");
  const std::string op = request.GetString("op", "");

  if (op == "estimate" || op == "explain" || op == "sweep") {
    const std::string key = RouteKey(request.GetString("cluster", "default"),
                                     request.GetString("workflow", ""));
    return RouteAndForward(line, key, id);
  }
  if (op == "stats") return StatsFanout(id);
  if (op == "metrics") {
    return OkLine(id, obs::MetricsRegistry::Default().ToJson());
  }
  if (op == "flightrecorder") return OkLine(id, flight_.ToJson());
  if (op == "drain") {
    *drain_requested = true;
    Json result = Json::MakeObject();
    result.Set("draining", Json::MakeBool(true));
    result.Set("shards", Json::MakeNumber(static_cast<double>(shards_.size())));
    return OkLine(id, result.DumpCompact());
  }
  return Protocol::TransportErrorLine(
      Status::InvalidArgument(
          "unknown router op '" + op +
          "' (router ops: estimate, explain, sweep, stats, metrics, "
          "flightrecorder, drain)"),
      id);
}

void Router::ServeConnection(int fd) {
  const LineLimits limits{options_.max_line_bytes, kDefaultReadIdleSeconds};
  ServeLineConnection(
      fd, limits, halt_, [this](const std::string& line, const LineSink& send) {
        bool drain_requested = false;
        send(HandleRequest(line, &drain_requested));
        if (!drain_requested) return true;
        {
          std::lock_guard<std::mutex> lock(summary_mutex_);
          summary_.drained = true;
        }
        halt_.Cancel();
        return false;
      });
}

void Router::DrainFleet() {
  // The monitor stops first: it must not resurrect shards being drained.
  halt_.Cancel();
  if (monitor_.joinable()) monitor_.join();
  for (auto& rt : shards_) {
    int port;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (rt->health.state() == ShardState::kDraining) continue;
      rt->health.MarkDraining();
      ring_.RemoveShard(rt->shard_id);
      rt->state_gauge->Set(static_cast<double>(ShardState::kDraining));
      port = rt->port;
    }
    flight_.AddEvent("shard_drain", rt->shard_id + " draining");
    // Snapshot handoff: the drain verb makes the shard save its final
    // DPWARM01 snapshot and exit its serve loop; SIGTERM is the backstop
    // for a shard that is not serving its protocol (crashed mid-restart).
    if (port > 0) {
      protocol::LineClient client;
      if (client.Connect(port).ok()) {
        (void)client.Call(R"({"op":"drain","id":"drain"})",
                          options_.drain_grace_seconds);
      }
    }
    rt->process.Terminate();
    if (!rt->process.WaitExit(options_.drain_grace_seconds)) {
      rt->process.Kill();
      (void)rt->process.WaitExit(5.0);
    }
  }
}

Result<RouterSummary> Router::Serve() {
  // Launch every shard; boot is fail-fast (chaos starts after the fleet is
  // up, not during provisioning).
  for (auto& rt : shards_) {
    const Status started = rt->process.Start();
    if (!started.ok()) {
      halt_.Cancel();
      return started;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    rt->port = rt->process.port();
    rt->pid = rt->process.pid();
    rt->launches = rt->process.launches();
  }

  monitor_ = std::thread([this] { MonitorLoop(); });

  // Wait for the initial probe quorum so the first client request does not
  // race shard warm-up; stragglers join late through normal readmission.
  const auto startup_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(options_.startup_wait_seconds);
  for (;;) {
    int ready = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& rt : shards_) {
        if (rt->health.state() == ShardState::kUp) ++ready;
      }
    }
    if (ready == static_cast<int>(shards_.size()) || halt_.cancelled()) break;
    if (std::chrono::steady_clock::now() >= startup_deadline) {
      if (ready == 0) {
        DrainFleet();
        return Status::Unavailable("no shard became healthy within " +
                                   std::to_string(options_.startup_wait_seconds) +
                                   "s");
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Listener first, then the fleet (monitor, drain verbs, SIGTERM), then
  // client connections.
  bool stopped = false;
  LoopbackOptions listen;
  listen.port = options_.port;
  listen.on_listen = [this](int port) {
    if (options_.on_listen) options_.on_listen(port);
    flight_.AddEvent("router", "listening; fleet of " +
                                   std::to_string(shards_.size()) + " shards");
  };
  Result<std::uint64_t> accepted = ServeLoopback(
      listen, halt_, [this](int fd) { ServeConnection(fd); },
      [this, &stopped] {
        stopped = options_.stop.cancelled();
        DrainFleet();
      });
  if (!accepted.ok()) {
    DrainFleet();
    return accepted.status();
  }

  std::lock_guard<std::mutex> lock(summary_mutex_);
  summary_.connections = accepted.value();
  summary_.stopped = stopped;
  return summary_;
}

}  // namespace router
}  // namespace dagperf
