#include "service/metrics_http.h"

#include <cerrno>
#include <string>

#include <poll.h>
#include <sys/socket.h>

#include "obs/metrics.h"
#include "obs/prom.h"
#include "service/transport.h"

namespace dagperf {

namespace {

/// Headers past this size are dropped — a scraper sends a one-line GET.
constexpr std::size_t kMaxHeaderBytes = 8192;
/// A peer that cannot finish its one-line request in this long is cut loose.
constexpr double kHeaderTimeoutSeconds = 5.0;

std::string HttpResponse(int code, const std::string& reason,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

/// Reads until the end of the request headers (blank line), with a byte cap
/// and a wall-clock bound. Returns false when the request never completed.
bool ReadRequestHead(int fd, const CancelToken& stop, std::string* head) {
  char chunk[1024];
  const double start_us = obs::MonotonicUs();
  while (!stop.cancelled()) {
    if (head->find("\r\n\r\n") != std::string::npos ||
        head->find("\n\n") != std::string::npos) {
      return true;
    }
    if (head->size() > kMaxHeaderBytes) return false;
    if ((obs::MonotonicUs() - start_us) * 1e-6 > kHeaderTimeoutSeconds) {
      return false;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollIntervalMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready == 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {
      // EOF before the blank line — but a bare "GET /metrics\n" from netcat
      // deserves an answer too; accept any complete first line.
      return head->find('\n') != std::string::npos;
    }
    head->append(chunk, static_cast<std::size_t>(n));
  }
  return false;
}

void AnswerScrape(int fd, const MetricsHttpOptions& options) {
  std::string head;
  if (!ReadRequestHead(fd, options.stop, &head)) return;
  // Request line: METHOD SP TARGET [SP VERSION].
  const std::size_t line_end = head.find_first_of("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::size_t method_end = request_line.find(' ');
  std::string method = request_line.substr(0, method_end);
  std::string target;
  if (method_end != std::string::npos) {
    const std::size_t target_start = method_end + 1;
    const std::size_t target_end = request_line.find(' ', target_start);
    target = request_line.substr(target_start, target_end == std::string::npos
                                                   ? std::string::npos
                                                   : target_end - target_start);
  }
  if (const std::size_t query = target.find('?'); query != std::string::npos) {
    target.resize(query);
  }

  if (method != "GET") {
    SendAll(fd, HttpResponse(405, "Method Not Allowed", "text/plain",
                             "only GET is served\n"));
    return;
  }
  if (target == "/metrics") {
    if (options.before_scrape) options.before_scrape();
    SendAll(fd,
            HttpResponse(200, "OK", "text/plain; version=0.0.4; charset=utf-8",
                         obs::WritePrometheusText()));
    return;
  }
  if (target == "/" || target == "/healthz") {
    SendAll(fd, HttpResponse(200, "OK", "text/plain",
                             "ok — metrics at /metrics\n"));
    return;
  }
  SendAll(fd, HttpResponse(404, "Not Found", "text/plain",
                           "not found — metrics at /metrics\n"));
}

}  // namespace

Result<MetricsHttpSummary> ServeMetricsHttp(const MetricsHttpOptions& options) {
  Result<std::uint64_t> accepted = ServeLoopback(
      {options.port, options.on_listen, options.max_requests}, options.stop,
      [&options](int fd) { AnswerScrape(fd, options); }, nullptr);
  if (!accepted.ok()) return accepted.status();
  MetricsHttpSummary summary;
  summary.requests = accepted.value();
  summary.stopped = options.stop.cancelled();
  return summary;
}

}  // namespace dagperf
