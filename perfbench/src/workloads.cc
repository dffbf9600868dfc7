#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/json.h"
#include "dag/spec_io.h"
#include "workloads/suite.h"

namespace perfbench {

namespace {

// Warm keys: the suite x eight node counts around the paper's 11-node
// cluster, 51 x 8 = 408 keys.
constexpr int kWarmMinNodes = 8;
constexpr int kWarmNodeCounts = 8;
constexpr std::size_t kWarmKeys = 408;

// Zipf exponent for flow / key popularity. The popularity ranking is one
// fixed permutation; the seed draws the request sequence from it, so every
// seed offers the same mix of cheap and costly flows.
constexpr double kZipfExponent = 0.99;
constexpr std::uint64_t kPopularitySeed = 0x9097;

// Cold inline documents: a suite shape at a log-uniform input scale, on a
// uniformly drawn cluster size.
constexpr double kColdMinScale = 0.25;
constexpr double kColdMaxScale = 4.0;
constexpr int kColdMinNodes = 4;
constexpr int kColdMaxNodes = 64;

// Tuning sessions: `kSessionLength` sweeps over a window of `kWindow`
// consecutive sizes that slides one step per request.
constexpr int kWindow = 8;
constexpr int kSessionLength = 12;
constexpr int kSessionMinStart = 2;
constexpr int kSessionMaxStart = 24;

// The self-test regenerates this many leading requests.
constexpr std::size_t kSelfTestPrefix = 2000;

// SplitMix64: small, seedable, and identical on every platform (the
// standard distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  int Int(int lo, int hi) {  // Inclusive.
    return lo + static_cast<int>(Next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

// Zipf over `n` items in a fixed, shuffled popularity order.
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n), rank_to_item_(n) {
    Rng rng(kPopularitySeed);
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    for (std::size_t i = 0; i < n; ++i) rank_to_item_[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(rank_to_item_[i - 1], rank_to_item_[rng.Next() % i]);
    }
  }
  std::size_t Sample(Rng& rng) const {
    const double u = rng.Uniform();
    const std::size_t rank =
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return rank_to_item_[std::min(rank, cdf_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> rank_to_item_;
};

Request NamedEstimate(std::size_t id, int flow, int nodes) {
  Request r;
  r.flow = flow;
  r.nodes = nodes;
  r.line = "{\"op\":\"estimate\",\"id\":" + std::to_string(id) +
           ",\"workflow\":\"" + SuiteNames()[flow] +
           "\",\"nodes\":" + std::to_string(nodes) + "}";
  return r;
}

std::vector<Request> WarmKeys() {
  std::vector<Request> keys;
  for (int f = 0; f < static_cast<int>(SuiteNames().size()); ++f) {
    for (int n = 0; n < kWarmNodeCounts; ++n) {
      keys.push_back(NamedEstimate(keys.size(), f, kWarmMinNodes + n));
    }
  }
  return keys;
}

void MakeWarm(Workload* w, Rng& rng, std::size_t ops) {
  w->prime = WarmKeys();
  const Zipf zipf(w->prime.size());
  for (std::size_t i = 0; i < ops; ++i) {
    const Request& key = w->prime[zipf.Sample(rng)];
    w->requests.push_back(NamedEstimate(i, key.flow, key.nodes));
  }
}

void MakeCold(Workload* w, Rng& rng, std::size_t ops) {
  const int shapes = static_cast<int>(SuiteNames().size());
  for (std::size_t i = 0; i < ops; ++i) {
    const int shape = rng.Int(0, shapes - 1);
    const double scale =
        kColdMinScale * std::pow(kColdMaxScale / kColdMinScale, rng.Uniform());
    const int nodes = rng.Int(kColdMinNodes, kColdMaxNodes);
    dagperf::Result<dagperf::NamedFlow> flow =
        dagperf::TableThreeFlow(SuiteNames()[shape], scale);
    if (!flow.ok()) {
      throw std::runtime_error("cannot build " + SuiteNames()[shape] + ": " +
                               flow.status().ToString());
    }
    Request r;
    r.nodes = nodes;
    r.line = "{\"op\":\"estimate\",\"id\":" + std::to_string(i) +
             ",\"nodes\":" + std::to_string(nodes) + ",\"flow\":" +
             dagperf::WorkflowToJson(flow.value().flow).DumpCompact() + "}";
    w->requests.push_back(std::move(r));
  }
}

void MakeTuner(Workload* w, Rng& rng, std::size_t ops) {
  const Zipf zipf(SuiteNames().size());
  while (w->requests.size() < ops) {
    const int flow = static_cast<int>(zipf.Sample(rng));
    const int start = rng.Int(kSessionMinStart, kSessionMaxStart);
    for (int step = 0; step < kSessionLength && w->requests.size() < ops;
         ++step) {
      Request r;
      r.flow = flow;
      r.nodes = start + step;
      r.window = kWindow;
      r.line = "{\"op\":\"sweep\",\"id\":" + std::to_string(w->requests.size()) +
               ",\"workflow\":\"" + SuiteNames()[flow] + "\",\"nodes_list\":[";
      for (int k = 0; k < kWindow; ++k) {
        if (k > 0) r.line += ",";
        r.line += std::to_string(r.nodes + k);
      }
      r.line += "]}";
      w->requests.push_back(std::move(r));
    }
  }
}

// FNV-1a over the first `limit` request lines (each followed by '\n').
std::uint64_t StreamDigest(const std::vector<Request>& requests,
                           std::size_t limit) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ULL;
  };
  for (std::size_t i = 0; i < std::min(limit, requests.size()); ++i) {
    for (char c : requests[i].line) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  return h;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "warm-zipf", "cold-inline", "tuner-neighbourhood", "routed-zipf"};
  return names;
}

const std::vector<std::string>& SuiteNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    dagperf::Result<std::vector<dagperf::NamedFlow>> suite =
        dagperf::TableThreeSuite(1.0);
    if (!suite.ok()) throw std::runtime_error(suite.status().ToString());
    for (const dagperf::NamedFlow& flow : suite.value()) {
      out.push_back(flow.name);
    }
    return out;
  }();
  return names;
}

std::size_t OpsPerSecond(const std::string& workload) {
  if (workload == "warm-zipf") return 20000;
  if (workload == "routed-zipf") return 14000;
  if (workload == "cold-inline") return 1200;
  if (workload == "tuner-neighbourhood") return 12000;
  return 0;
}

Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      std::size_t ops) {
  Workload w;
  w.name = name;
  // The workload name is folded into the seed so two workloads run with the
  // same --seed do not share their random draws.
  std::uint64_t mixed = seed;
  for (char c : name) mixed = mixed * 131 + static_cast<unsigned char>(c);
  Rng rng(mixed);
  if (name == "warm-zipf" || name == "routed-zipf") {
    // routed-zipf replays warm-zipf's stream: same seed, same requests.
    Rng warm_rng(seed * 131 + 0x5741524D);
    MakeWarm(&w, warm_rng, ops);
    w.routed = (name == "routed-zipf");
  } else if (name == "cold-inline") {
    w.inline_flow = true;
    MakeCold(&w, rng, ops);
  } else if (name == "tuner-neighbourhood") {
    w.sweep = true;
    MakeTuner(&w, rng, ops);
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return w;
}

std::string SelfTest(const Workload& workload, std::uint64_t seed) {
  const std::size_t prefix = std::min(kSelfTestPrefix, workload.requests.size());
  const Workload again = MakeWorkload(workload.name, seed, prefix);
  const Workload other = MakeWorkload(workload.name, seed + 1, prefix);
  if (StreamDigest(again.requests, prefix) !=
      StreamDigest(workload.requests, prefix)) {
    return "the same seed produced a different request stream";
  }
  if (StreamDigest(other.requests, prefix) ==
      StreamDigest(workload.requests, prefix)) {
    return "a different seed produced the same request stream";
  }

  char buf[160];
  if (workload.name == "warm-zipf" || workload.name == "routed-zipf") {
    std::set<std::pair<int, int>> keys;
    for (const Request& r : workload.prime) keys.insert({r.flow, r.nodes});
    if (keys.size() != kWarmKeys || workload.prime.size() != kWarmKeys) {
      std::snprintf(buf, sizeof(buf), "warm key set has %zu keys, not %zu",
                    keys.size(), kWarmKeys);
      return buf;
    }
    for (const Request& r : workload.requests) {
      if (keys.count({r.flow, r.nodes}) == 0) {
        return "a warm request names a key that set-up did not prime";
      }
    }
  } else if (workload.name == "cold-inline") {
    // Nearly every request must miss: the flow documents (with their node
    // counts) are all distinct.
    std::set<std::string> docs;
    for (const Request& r : workload.requests) {
      docs.insert(r.line.substr(r.line.find(",\"nodes\":")));
    }
    if (docs.size() < workload.requests.size() * 99 / 100) {
      std::snprintf(buf, sizeof(buf), "only %zu of %zu cold documents distinct",
                    docs.size(), workload.requests.size());
      return buf;
    }
  } else if (workload.name == "tuner-neighbourhood") {
    // Every sweep covers kWindow sizes; within a session each request adds
    // exactly one new size; keys stay inside the 51 x 41 key space.
    const int max_nodes = kSessionMaxStart + kSessionLength - 1 + kWindow - 1;
    for (std::size_t i = 0; i < workload.requests.size(); ++i) {
      const Request& r = workload.requests[i];
      if (r.window != kWindow || r.nodes < kSessionMinStart ||
          r.nodes + r.window - 1 > max_nodes) {
        return "a tuner sweep has the wrong window";
      }
      const Request* prev = i % kSessionLength == 0
                                ? nullptr
                                : &workload.requests[i - 1];
      if (prev != nullptr &&
          (prev->flow != r.flow || r.nodes != prev->nodes + 1)) {
        return "a tuner window did not slide by one size within its session";
      }
    }
  }
  return "";
}

}  // namespace perfbench
