#ifndef DAGPERF_SERVICE_METRICS_HTTP_H_
#define DAGPERF_SERVICE_METRICS_HTTP_H_

#include <cstdint>
#include <functional>

#include "common/cancel.h"
#include "common/status.h"

namespace dagperf {

/// A deliberately tiny HTTP/1.0 scrape endpoint for Prometheus: GET /metrics
/// answers the text exposition of MetricsRegistry::Default()
/// (obs/prom.h), everything else answers 404/405. One request per
/// connection. Listener, accept loop and sends are the NDJSON transport's
/// (service/transport.h); only the HTTP head reader is this file's own.
///
/// This is NOT a general HTTP server: no keep-alive, no TLS, no auth, bound
/// to 127.0.0.1 only. `dagperf serve --metrics-port` runs it on a side
/// thread next to the NDJSON transport.
struct MetricsHttpOptions {
  /// Port to bind on 127.0.0.1; 0 asks the kernel for a free port.
  int port = 0;

  /// Called once with the actually-bound port before the first accept.
  std::function<void(int)> on_listen;

  /// Invoked before each scrape is rendered — the serve loop uses it to
  /// refresh derived gauges (SLO windows) so the scrape sees live values.
  std::function<void()> before_scrape;

  /// Stop serving when this fires (checked between requests, within one
  /// poll interval).
  CancelToken stop;

  /// Stop after this many answered requests; 0 = until `stop`.
  int max_requests = 0;
};

struct MetricsHttpSummary {
  /// Requests answered, any status code.
  std::uint64_t requests = 0;
  /// The stop token ended the loop (as opposed to max_requests).
  bool stopped = false;
};

/// Blocks serving scrapes until `stop` fires or `max_requests` is reached.
/// An error Status means the listening socket could not be set up.
Result<MetricsHttpSummary> ServeMetricsHttp(const MetricsHttpOptions& options);

}  // namespace dagperf

#endif  // DAGPERF_SERVICE_METRICS_HTTP_H_
