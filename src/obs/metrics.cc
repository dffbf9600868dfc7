#include "obs/metrics.h"

#include <chrono>
#include <cmath>
#include <cstdio>

namespace dagperf {
namespace obs {

namespace internal {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool MetricsEnabled() { return internal::Enabled(); }

double Histogram::BucketLowerBound(int i) {
  return std::ldexp(1.0, i - kZeroBucket);
}

void Histogram::Record(double value) {
  if (!internal::Enabled()) return;
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[static_cast<size_t>(BucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  for (int i = 0; i < kBuckets; ++i) {
    s.buckets[static_cast<size_t>(i)] =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cumulative += buckets[static_cast<size_t>(i)];
    if (static_cast<double>(cumulative) >= target) {
      // Geometric midpoint of [2^k, 2^(k+1)) = 2^k * sqrt(2).
      return BucketLowerBound(i) * std::sqrt(2.0);
    }
  }
  return BucketLowerBound(kBuckets - 1);
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  Snapshot s;
  std::lock_guard<std::mutex> lock(mutex_);
  s.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    s.counters.emplace_back(name, counter->value());
  }
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    s.gauges.emplace_back(name, gauge->value());
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    s.histograms.emplace_back(name, histogram->Snap());
  }
  return s;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  const Snapshot s = Snap();
  std::string out = "{\n  \"metrics_enabled\": ";
  out += MetricsEnabled() ? "true" : "false";
  out += ",\n  \"counters\": {";
  for (size_t i = 0; i < s.counters.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendEscaped(out, s.counters[i].first);
    out += ": ";
    out += std::to_string(s.counters[i].second);
  }
  out += "\n  },\n  \"gauges\": {";
  for (size_t i = 0; i < s.gauges.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendEscaped(out, s.gauges[i].first);
    out += ": ";
    AppendNumber(out, s.gauges[i].second);
  }
  out += "\n  },\n  \"histograms\": {";
  for (size_t i = 0; i < s.histograms.size(); ++i) {
    const auto& [name, h] = s.histograms[i];
    out += i == 0 ? "\n    " : ",\n    ";
    AppendEscaped(out, name);
    out += ": {\"count\": " + std::to_string(h.count) + ", \"sum\": ";
    AppendNumber(out, h.sum);
    out += ", \"mean\": ";
    AppendNumber(out, h.mean());
    out += ", \"p50\": ";
    AppendNumber(out, h.Quantile(0.50));
    out += ", \"p95\": ";
    AppendNumber(out, h.Quantile(0.95));
    out += ", \"p99\": ";
    AppendNumber(out, h.Quantile(0.99));
    out += ", \"buckets\": [";
    bool first = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t count = h.buckets[static_cast<size_t>(b)];
      if (count == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += '[';
      AppendNumber(out, Histogram::BucketLowerBound(b));
      out += ", " + std::to_string(count) + ']';
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

double MonotonicUs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace obs
}  // namespace dagperf
