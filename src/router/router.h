#ifndef DAGPERF_ROUTER_ROUTER_H_
#define DAGPERF_ROUTER_ROUTER_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/json.h"
#include "common/status.h"
#include "obs/request_record.h"
#include "router/health.h"
#include "router/ring.h"
#include "router/supervisor.h"
#include "service/transport.h"

namespace dagperf {
namespace router {

/// One shard's launch recipe — see ShardProcessOptions for field meaning.
/// The command must start a `dagperf serve` that writes `port_file` and,
/// for warm restarts, points --snapshot-dir at the shard's own directory.
struct ShardSpec {
  std::string shard_id;
  std::vector<std::string> command;
  std::string port_file;
  std::string stderr_file;
  double start_timeout_seconds = 30.0;
};

struct RouterOptions {
  /// Router listen port; 0 binds an ephemeral port (reported via on_listen).
  int port = 0;
  std::function<void(int port)> on_listen;
  /// External stop signal (the `dagperf route` SIGTERM path). Firing it
  /// gracefully drains the fleet: every shard gets a drain verb (final
  /// snapshot save) then SIGTERM.
  CancelToken stop;

  /// Ring geometry. 128 vnodes keeps per-shard share within ~20% of
  /// uniform for small fleets.
  int vnodes = 128;
  /// Bounded in-flight per shard; excess requests are shed at the router
  /// with UNAVAILABLE{retryable, retry_after_ms}.
  int max_in_flight_per_shard = 64;

  /// Active health checks: every interval each live shard gets a `stats`
  /// probe over a dedicated connection.
  double probe_interval_seconds = 0.05;
  double probe_timeout_seconds = 2.0;
  /// Consecutive probe successes before a restarted shard rejoins the ring.
  int readmit_quorum = 2;
  /// Passive scoring (transport errors on the data path) — failures before
  /// a shard is demoted without waiting for a probe.
  int breaker_failure_threshold = 3;
  double breaker_open_seconds = 0.25;

  /// Per-attempt upstream response deadline on the data path.
  double upstream_timeout_seconds = 30.0;
  /// Attempts per routed request (1 + failovers to ring successors).
  /// Estimates are idempotent, so rerouting a request whose shard died
  /// mid-flight is safe.
  int max_attempts = 3;
  /// retry_after_ms attached to router-generated UNAVAILABLE responses
  /// (shed, no shards up, failover exhausted).
  double retry_after_ms = 25.0;

  /// Supervisor restart backoff for crashed shards.
  double restart_backoff_initial_seconds = 0.05;
  double restart_backoff_max_seconds = 2.0;

  /// How long a draining shard gets between SIGTERM and SIGKILL.
  double drain_grace_seconds = 5.0;
  /// How long Serve() waits at boot for every shard to pass its initial
  /// probe quorum before opening the listener (shards that miss it join
  /// late through the normal readmission path).
  double startup_wait_seconds = 30.0;

  /// Request line cap; a line stalled mid-frame for kDefaultReadIdleSeconds
  /// is closed (service/transport.h).
  std::size_t max_line_bytes = kDefaultMaxLineBytes;
};

struct RouterSummary {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t sheds = 0;
  bool stopped = false;  ///< options.stop fired (vs. a drain verb).
  bool drained = false;
};

/// Point-in-time view of one shard, for tests and the stats fan-out.
struct ShardInfo {
  std::string shard_id;
  ShardState state = ShardState::kDown;
  int port = 0;
  pid_t pid = -1;
  std::uint64_t launches = 0;
};

/// The `dagperf route` process: fronts N child `dagperf serve` shards over
/// the NDJSON/TCP protocol. Requests are routed on a consistent-hash ring
/// keyed by cluster-scope fingerprint (cluster + workflow), so repeats of a
/// key always land on the shard whose PrefixCheckpointStore is warm for
/// it. Each shard is health-checked (active stats probes + passive
/// error scoring through CircuitBreaker), supervised (crashed children are
/// restarted with their --snapshot-dir so they rejoin warm from their
/// DPWARM01 snapshot), and readmitted to the ring only after a probe
/// quorum. While a shard is down its arc reroutes to the ring successor;
/// in-flight requests on a dying shard fail over transparently (estimates
/// are idempotent) or resolve as retryable UNAVAILABLE with retry_after_ms.
///
/// Router-handled verbs: estimate / explain / sweep (routed), stats
/// (fan-out + fleet aggregate + per-shard health), flightrecorder (the
/// router's own event ring), drain (fleet-wide graceful drain). Everything
/// else is INVALID_ARGUMENT naming the supported set. Lines that are not a
/// request object get the shard's own answers (Protocol::ParseRequestLine),
/// byte for byte.
class Router {
 public:
  Router(std::vector<ShardSpec> shards, RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Starts the shards, waits for their initial health quorum, opens the
  /// listener, and serves until a drain verb or options.stop. Returns after
  /// the fleet has been drained (snapshot handoff: drain verb, then
  /// SIGTERM) and every child has exited.
  Result<RouterSummary> Serve();

  /// The ring key for a request: cluster-scope fingerprint. Matches the
  /// scope prefix both warm stores key by, so one shard accumulates all
  /// warm state for a given (cluster, workflow) pair.
  static std::string RouteKey(const std::string& cluster,
                              const std::string& workflow);

  /// Current owner of a route key ("" while no shard is up). Test/bench
  /// hook for picking a victim shard.
  std::string OwnerOf(const std::string& route_key) const;

  std::vector<ShardInfo> Shards() const;

  obs::FlightRecorder& flight_recorder() { return flight_; }

 private:
  struct ShardRuntime;

  ShardRuntime* FindShard(const std::string& shard_id) const;
  void MarkShardDownLocked(ShardRuntime& shard, double now_us,
                           const std::string& why);
  void ReadmitShardLocked(ShardRuntime& shard, double now_us);
  void MonitorLoop();
  void ProbeShard(ShardRuntime& shard, double now_us);
  void RestartShard(ShardRuntime& shard, double now_us);
  /// One client connection on the shared line transport, with the
  /// router's request front end as its handler.
  void ServeConnection(int fd);
  std::string HandleRequest(const std::string& line, bool* drain_requested);
  std::string RouteAndForward(const std::string& line, const std::string& key,
                              const Json* id);
  std::string StatsFanout(const Json* id);
  /// Stops the monitor, then drains every shard (drain verb, SIGTERM).
  void DrainFleet();

  std::vector<std::unique_ptr<ShardRuntime>> shards_;
  RouterOptions options_;

  mutable std::mutex mutex_;  // ring + shard health/port/pool state
  ConsistentHashRing ring_;

  CancelToken halt_;  // linked to options_.stop; also fired by drain verb
  std::thread monitor_;
  obs::FlightRecorder flight_;

  std::mutex summary_mutex_;
  RouterSummary summary_;
};

}  // namespace router
}  // namespace dagperf

#endif  // DAGPERF_ROUTER_ROUTER_H_
