#include "obs/window.h"

#include <algorithm>

namespace dagperf {
namespace obs {

namespace {

std::uint64_t EpochOf(double now_us, double epoch_seconds) {
  const double epoch_us = epoch_seconds * 1e6;
  if (!(now_us > 0.0) || !(epoch_us > 0.0)) return 0;
  return static_cast<std::uint64_t>(now_us / epoch_us);
}

/// How many whole epochs a window spans, current partial epoch included.
int EpochSpan(double window_seconds, double epoch_seconds) {
  if (!(window_seconds > 0.0)) return 1;
  const int span =
      static_cast<int>(window_seconds / std::max(epoch_seconds, 1e-9) + 0.5);
  return std::clamp(span, 1, kWindowEpochs);
}

}  // namespace

template <typename Counts>
std::unique_lock<std::mutex> internal::EpochLanes<Counts>::Prepare(
    Epoch& lane, int writer, std::uint64_t epoch) {
  std::unique_lock<std::mutex> shared(shared_mutex_, std::defer_lock);
  if (writer == kWriterSlots) shared.lock();
  const std::uint64_t held =
      lane.epoch_plus_one.load(std::memory_order_relaxed);
  if (held == epoch + 1) return shared;
  std::lock_guard<std::mutex> lock(mutex_);
  if (held != 0) {
    Epoch& slot = ring_[static_cast<std::size_t>((held - 1) % kWindowEpochs)];
    const std::uint64_t slot_held =
        slot.epoch_plus_one.load(std::memory_order_relaxed);
    if (slot_held < held) {
      slot.counts.Clear();
      slot.epoch_plus_one.store(held, std::memory_order_relaxed);
    }
    // A newer epoch in the slot means the lane's epoch left the ring.
    if (slot_held <= held) lane.counts.AddTo(slot.counts);
    lane.counts.Clear();
  }
  lane.epoch_plus_one.store(epoch + 1, std::memory_order_relaxed);
  return shared;
}

// The windowed types below are EpochLanes' only users.
template class internal::EpochLanes<WindowedHistogram::Counts>;
template class internal::EpochLanes<WindowedCounter::Counts>;

WindowedHistogram::WindowedHistogram(WindowOptions options) : options_(options) {
  options_.epoch_seconds = std::max(1e-6, options_.epoch_seconds);
}

void WindowedHistogram::Counts::AddTo(Counts& into) const {
  internal::Bump(into.sum, sum.load(std::memory_order_relaxed));
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    internal::Bump(into.buckets[b], buckets[b].load(std::memory_order_relaxed));
  }
}

void WindowedHistogram::Counts::Clear() {
  sum.store(0.0, std::memory_order_relaxed);
  for (auto& bucket : buckets) bucket.store(0, std::memory_order_relaxed);
}

void WindowedHistogram::Record(double value, double now_us) {
  if (!internal::Enabled()) return;
  const std::size_t bucket =
      static_cast<std::size_t>(Histogram::BucketIndex(value));
  lanes_.Record(EpochOf(now_us, options_.epoch_seconds),
                [bucket, value](Counts& counts) {
                  internal::Bump(counts.buckets[bucket], std::uint64_t{1});
                  internal::Bump(counts.sum, value);
                });
}

Histogram::Snapshot WindowedHistogram::Snap(double window_seconds,
                                            double now_us) const {
  Histogram::Snapshot snapshot;
  lanes_.Visit(EpochOf(now_us, options_.epoch_seconds),
               EpochSpan(window_seconds, options_.epoch_seconds),
               [&snapshot](const Counts& counts) {
                 snapshot.sum += counts.sum.load(std::memory_order_relaxed);
                 for (int b = 0; b < Histogram::kBuckets; ++b) {
                   const std::uint64_t n =
                       counts.buckets[static_cast<std::size_t>(b)].load(
                           std::memory_order_relaxed);
                   snapshot.buckets[static_cast<std::size_t>(b)] += n;
                   snapshot.count += n;
                 }
               });
  return snapshot;
}

WindowedCounter::WindowedCounter(WindowOptions options) : options_(options) {
  options_.epoch_seconds = std::max(1e-6, options_.epoch_seconds);
}

void WindowedCounter::Counts::AddTo(Counts& into) const {
  internal::Bump(into.value, value.load(std::memory_order_relaxed));
}

void WindowedCounter::Counts::Clear() {
  value.store(0, std::memory_order_relaxed);
}

void WindowedCounter::Add(std::uint64_t n, double now_us) {
  if (!internal::Enabled()) return;
  lanes_.Record(EpochOf(now_us, options_.epoch_seconds),
                [n](Counts& counts) { internal::Bump(counts.value, n); });
}

std::uint64_t WindowedCounter::Sum(double window_seconds, double now_us) const {
  std::uint64_t total = 0;
  lanes_.Visit(EpochOf(now_us, options_.epoch_seconds),
               EpochSpan(window_seconds, options_.epoch_seconds),
               [&total](const Counts& counts) {
                 total += counts.value.load(std::memory_order_relaxed);
               });
  return total;
}

}  // namespace obs
}  // namespace dagperf
