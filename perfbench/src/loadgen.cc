#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <thread>

#include "obs/metrics.h"
#include "process.h"
#include "service/line_client.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using dagperf::Json;

constexpr std::size_t kMaxKeptErrors = 5;
constexpr int kAnswerTimeoutMs = 30000;
constexpr auto kProbeEvery = std::chrono::milliseconds(200);
constexpr double kProbeSliceS = 0.01;

struct Conn {
  int fd = -1;
  std::string buf;
  std::int64_t op = -1;  // Request in flight, -1 when idle.
  Clock::time_point sent;
};

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendLine(int fd, const std::string& line) {
  static const char kNewline = '\n';
  iovec iov[2] = {{const_cast<char*>(line.data()), line.size()},
                  {const_cast<char*>(&kNewline), 1}};
  std::size_t remaining = line.size() + 1;
  int first = 0;
  while (remaining > 0) {
    msghdr msg{};
    msg.msg_iov = iov + first;
    msg.msg_iovlen = 2 - first;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    remaining -= static_cast<std::size_t>(n);
    std::size_t advance = static_cast<std::size_t>(n);
    while (advance > 0 && first < 2) {
      const std::size_t step = std::min(advance, iov[first].iov_len);
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + step;
      iov[first].iov_len -= step;
      advance -= step;
      if (iov[first].iov_len == 0) ++first;
    }
  }
  return true;
}

double NumberAfter(const std::string& line, const char* key) {
  const std::size_t pos = line.find(key);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(line.c_str() + pos + std::strlen(key), nullptr);
}

// Reads an ok answer into `r`; false when the line is not an ok answer.
// Estimate answers are scanned for the few fields kept (the result object's
// keys are written sorted, and `makespan_s` occurs once); sweep answers are
// parsed in full.
bool ReadOkAnswer(const std::string& line, bool sweep, OpRecord* r,
                  std::vector<CandidateAnswer>* candidates) {
  if (line.find(",\"ok\":true,\"result\":{") == std::string::npos) return false;
  if (!sweep) {
    r->makespan_s = NumberAfter(line, "\"makespan_s\":");
    r->queue_wait_ms = static_cast<float>(NumberAfter(line, "\"queue_wait_ms\":"));
    r->service_ms = static_cast<float>(NumberAfter(line, "\"service_ms\":"));
    r->states = static_cast<std::int32_t>(NumberAfter(line, "\"states\":"));
    return !std::isnan(r->makespan_s);
  }
  dagperf::Result<Json> parsed = Json::Parse(line);
  if (!parsed.ok()) return false;
  const Json* result = parsed.value().Get("result");
  const Json* list = result != nullptr ? result->Get("candidates") : nullptr;
  if (list == nullptr || list->type() != Json::Type::kArray) return false;
  r->service_ms = static_cast<float>(result->GetNumber("service_ms", 0.0));
  r->first_candidate = static_cast<std::uint32_t>(candidates->size());
  for (const Json& c : list->AsArray()) {
    candidates->push_back({c.GetBool("ok", false), c.GetNumber("makespan_s", 0.0)});
  }
  return true;
}

}  // namespace

LoadResult RunClosedLoop(const std::vector<Request>& stream, bool sweep,
                         int port, int connections,
                         const Supervision& supervision,
                         dagperf::obs::TraceRecorder* trace, HostProbe* probe) {
  LoadResult out;
  out.ops.resize(stream.size());
  std::vector<Conn> conns(static_cast<std::size_t>(connections));
  std::deque<std::size_t> retry;
  std::size_t next = 0;
  std::size_t done = 0;
  std::size_t answered = 0;
  const Clock::time_point start = Clock::now();
  const double start_us = dagperf::obs::MonotonicUs();  // Trace timebase.
  Clock::duration paused{0};
  bool pausing = false;  // No new request goes out until the probe has run.
  const auto since_start = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - start - paused).count();
  };

  const auto dispatch = [&](Conn& c) {
    c.op = -1;
    if (pausing) return true;
    std::size_t op;
    if (!retry.empty()) {
      op = retry.front();
      retry.pop_front();
    } else if (next < stream.size()) {
      op = next++;
    } else {
      return true;
    }
    c.op = static_cast<std::int64_t>(op);
    ++out.ops[op].attempts;
    c.sent = Clock::now();
    return SendLine(c.fd, stream[op].line);
  };

  // Gives every idle connection its next request. A request being retried
  // after a lost connection goes out alone, so when the server dies again
  // the request in flight is the one that killed it.
  const auto fill = [&]() {
    for (Conn& c : conns) {
      if (c.fd < 0 || c.op >= 0) continue;
      if (!retry.empty()) {
        const bool busy = std::any_of(conns.begin(), conns.end(),
                                      [](const Conn& o) { return o.op >= 0; });
        if (busy) return true;
      }
      if (!dispatch(c)) return false;
    }
    return true;
  };

  const auto record = [&](std::size_t op, const std::string& line,
                          std::int64_t latency_ns, Clock::time_point sent,
                          int lane) {
    OpRecord& r = out.ops[op];
    r.latency_ns = latency_ns;
    r.done_s = static_cast<float>(since_start(Clock::now()));
    r.response_bytes = static_cast<std::uint32_t>(line.size() + 1);
    if (ReadOkAnswer(line, sweep, &r, &out.candidates)) {
      r.state = OpState::kOk;
      ++answered;
    } else {
      r.state = OpState::kError;
      ++out.error_responses;
      if (out.first_errors.size() < kMaxKeptErrors) {
        out.first_errors.push_back(line.substr(0, 300));
      }
    }
    ++done;
    if (trace != nullptr) {
      dagperf::obs::ChromeTraceEvent e;
      e.name = sweep ? "sweep" : "estimate";
      e.cat = "client";
      e.ts_us =
          start_us + std::chrono::duration<double, std::micro>(sent - start).count();
      e.dur_us = static_cast<double>(latency_ns) / 1e3;
      e.pid = 1;
      e.tid = lane;
      e.num_args = {{"op", static_cast<double>(op)},
                    {"queue_wait_ms", r.queue_wait_ms},
                    {"service_ms", r.service_ms}};
      trace->Add(std::move(e));
    }
  };

  // Consumes every complete line buffered on `c`. With `redispatch`, the
  // connection's next request is sent before the answer is examined.
  const auto consume = [&](Conn& c, int lane, bool redispatch) {
    std::size_t nl;
    while ((nl = c.buf.find('\n')) != std::string::npos) {
      const Clock::time_point now = Clock::now();
      std::string line = c.buf.substr(0, nl);
      c.buf.erase(0, nl + 1);
      if (c.op < 0) continue;  // An answer nobody waits for.
      const std::size_t op = static_cast<std::size_t>(c.op);
      const Clock::time_point sent = c.sent;
      // The next request goes out before this answer is examined.
      c.op = -1;
      const bool sent_ok = !redispatch || fill();
      record(op, line,
             std::chrono::duration_cast<std::chrono::nanoseconds>(now - sent).count(),
             sent, lane);
      if (!sent_ok) return false;
    }
    return true;
  };

  const auto connect_all = [&]() {
    for (Conn& c : conns) {
      c.fd = Connect(port);
      if (c.fd < 0) return false;
    }
    return fill();
  };

  // A connection broke. Keep every answer that already arrived, requeue or
  // fail the requests still in flight, restart a dead server, reconnect.
  const auto recover = [&]() {
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      char tmp[65536];
      ssize_t n;
      while (c.fd >= 0 && (n = ::recv(c.fd, tmp, sizeof(tmp), MSG_DONTWAIT)) > 0) {
        c.buf.append(tmp, static_cast<std::size_t>(n));
      }
      consume(c, static_cast<int>(i), /*redispatch=*/false);
    }
    for (Conn& c : conns) {
      if (c.op >= 0) {
        OpRecord& r = out.ops[static_cast<std::size_t>(c.op)];
        if (r.attempts >= 2) {
          r.state = OpState::kLostTwice;
          out.killers.push_back(static_cast<std::size_t>(c.op));
          ++done;
        } else {
          retry.push_front(static_cast<std::size_t>(c.op));
        }
        c.op = -1;
      }
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
      c.buf.clear();
    }
    const Clock::time_point t0 = Clock::now();
    bool died = false;
    while (!(died = supervision.exited()) &&
           Clock::now() - t0 < std::chrono::seconds(2)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (died) {
      port = supervision.restart();
      ++out.restarts;
      if (port < 0) return false;
    }
    return done >= stream.size() || connect_all();
  };

  Clock::time_point last = start;
  Clock::time_point sampled = start;
  Clock::time_point probed = start;
  const auto take_sample = [&]() {
    sampled = Clock::now();
    Sample sample;
    sample.t_s = since_start(sampled);
    sample.answered = answered;
    sample.restarts = out.restarts;
    sample.steal_ticks = StealTicks();
    sample.rss_mb = supervision.rss_mb();
    out.samples.push_back(sample);
  };
  take_sample();
  if (!connect_all() && !recover()) {
    out.fatal = "cannot reach the server";
  }
  std::vector<pollfd> fds(conns.size());
  while (out.fatal.empty() && done < stream.size()) {
    if (pausing && std::none_of(conns.begin(), conns.end(),
                                [](const Conn& c) { return c.op >= 0; })) {
      const Clock::time_point t0 = Clock::now();
      out.probe_us.push_back(probe->Slice(kProbeSliceS));
      probed = Clock::now();
      paused += probed - t0;
      pausing = false;
      if (!fill() && !recover()) out.fatal = "cannot restart the server";
      continue;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i] = {conns[i].fd, POLLIN, 0};
    }
    const int ready = ::poll(fds.data(), fds.size(), kAnswerTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      out.fatal = "the server stopped answering";
      break;
    }
    bool broken = false;
    for (std::size_t i = 0; i < conns.size() && !broken; ++i) {
      if (fds[i].revents == 0) continue;
      Conn& c = conns[i];
      char tmp[65536];
      const ssize_t n = ::recv(c.fd, tmp, sizeof(tmp), 0);
      if (n > 0) {
        c.buf.append(tmp, static_cast<std::size_t>(n));
        if (!consume(c, static_cast<int>(i), /*redispatch=*/true)) broken = true;
      } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
        broken = true;
      }
    }
    last = Clock::now();
    if (last - sampled >= std::chrono::milliseconds(100)) take_sample();
    if (probe != nullptr && last - probed >= kProbeEvery) pausing = true;
    if (broken && !recover()) out.fatal = "cannot restart the server";
  }
  take_sample();
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  out.wall_s = since_start(last);
  return out;
}

std::string SendEach(int port, const std::vector<Request>& lines) {
  dagperf::protocol::LineClient client;
  if (dagperf::Status st = client.Connect(port); !st.ok()) return st.ToString();
  for (const Request& r : lines) {
    dagperf::Result<std::string> answer = client.Call(r.line, 60.0);
    if (!answer.ok()) return answer.status().ToString();
    if (answer.value().find(",\"ok\":true,") == std::string::npos) {
      return "request " + r.line + " answered " + answer.value().substr(0, 300);
    }
  }
  return "";
}

dagperf::Result<Json> Query(int port, const std::string& line) {
  dagperf::protocol::LineClient client;
  if (dagperf::Status st = client.Connect(port); !st.ok()) return st;
  dagperf::Result<std::string> answer = client.Call(line, 60.0);
  if (!answer.ok()) return answer.status();
  dagperf::Result<Json> parsed = Json::Parse(answer.value());
  if (!parsed.ok()) return parsed.status();
  if (!parsed.value().GetBool("ok", false)) {
    return dagperf::Status::Internal("answer not ok: " + answer.value().substr(0, 300));
  }
  return parsed;
}

}  // namespace perfbench
