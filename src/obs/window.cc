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

WindowedHistogram::WindowedHistogram(WindowOptions options) : options_(options) {
  options_.epoch_seconds = std::max(1e-6, options_.epoch_seconds);
}

WindowedHistogram::Slot* WindowedHistogram::LiveSlot(std::uint64_t epoch) {
  Slot& slot = slots_[static_cast<std::size_t>(epoch % kWindowEpochs)];
  const std::uint64_t live = epoch << 1;
  std::uint64_t tag = slot.tag.load(std::memory_order_acquire);
  if (tag == live) return &slot;
  if (tag > live) return nullptr;  // A newer epoch claimed the slot already.
  if (tag & internal::kResettingBit) return nullptr;  // Mid-reset elsewhere.
  // Claim: tag -> resetting, zero the slot, publish the live tag. Writers
  // that lose the CAS re-read and either see the live tag or spin out.
  if (!slot.tag.compare_exchange_strong(tag, live | internal::kResettingBit,
                                        std::memory_order_acq_rel)) {
    return nullptr;
  }
  slot.count.store(0, std::memory_order_relaxed);
  slot.sum.store(0.0, std::memory_order_relaxed);
  for (auto& bucket : slot.buckets) bucket.store(0, std::memory_order_relaxed);
  slot.tag.store(live, std::memory_order_release);
  return &slot;
}

void WindowedHistogram::Record(double value, double now_us) {
  if (!internal::Enabled()) return;
  const std::uint64_t epoch = EpochOf(now_us, options_.epoch_seconds);
  for (int attempt = 0; attempt < 64; ++attempt) {
    Slot* slot = LiveSlot(epoch);
    if (slot == nullptr) continue;  // Reset in flight; retry.
    slot->count.fetch_add(1, std::memory_order_relaxed);
    slot->sum.fetch_add(value, std::memory_order_relaxed);
    slot->buckets[static_cast<std::size_t>(Histogram::BucketIndex(value))]
        .fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Pathological contention on a resetting slot: drop the sample rather than
  // spin unboundedly on an observability path.
}

Histogram::Snapshot WindowedHistogram::Snap(double window_seconds,
                                            double now_us) const {
  Histogram::Snapshot snapshot;
  const std::uint64_t now_epoch = EpochOf(now_us, options_.epoch_seconds);
  const int span = EpochSpan(window_seconds, options_.epoch_seconds);
  for (int back = 0; back < span; ++back) {
    if (static_cast<std::uint64_t>(back) > now_epoch) break;
    const std::uint64_t epoch = now_epoch - static_cast<std::uint64_t>(back);
    const Slot& slot = slots_[static_cast<std::size_t>(epoch % kWindowEpochs)];
    if (slot.tag.load(std::memory_order_acquire) != (epoch << 1)) continue;
    snapshot.count += slot.count.load(std::memory_order_relaxed);
    snapshot.sum += slot.sum.load(std::memory_order_relaxed);
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      snapshot.buckets[static_cast<std::size_t>(b)] +=
          slot.buckets[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
    }
  }
  return snapshot;
}

WindowedCounter::WindowedCounter(WindowOptions options) : options_(options) {
  options_.epoch_seconds = std::max(1e-6, options_.epoch_seconds);
}

WindowedCounter::Slot* WindowedCounter::LiveSlot(std::uint64_t epoch) {
  Slot& slot = slots_[static_cast<std::size_t>(epoch % kWindowEpochs)];
  const std::uint64_t live = epoch << 1;
  std::uint64_t tag = slot.tag.load(std::memory_order_acquire);
  if (tag == live) return &slot;
  if (tag > live) return nullptr;
  if (tag & internal::kResettingBit) return nullptr;
  if (!slot.tag.compare_exchange_strong(tag, live | internal::kResettingBit,
                                        std::memory_order_acq_rel)) {
    return nullptr;
  }
  slot.value.store(0, std::memory_order_relaxed);
  slot.tag.store(live, std::memory_order_release);
  return &slot;
}

void WindowedCounter::Add(std::uint64_t n, double now_us) {
  if (!internal::Enabled()) return;
  const std::uint64_t epoch = EpochOf(now_us, options_.epoch_seconds);
  for (int attempt = 0; attempt < 64; ++attempt) {
    Slot* slot = LiveSlot(epoch);
    if (slot == nullptr) continue;
    slot->value.fetch_add(n, std::memory_order_relaxed);
    return;
  }
}

std::uint64_t WindowedCounter::Sum(double window_seconds, double now_us) const {
  std::uint64_t total = 0;
  const std::uint64_t now_epoch = EpochOf(now_us, options_.epoch_seconds);
  const int span = EpochSpan(window_seconds, options_.epoch_seconds);
  for (int back = 0; back < span; ++back) {
    if (static_cast<std::uint64_t>(back) > now_epoch) break;
    const std::uint64_t epoch = now_epoch - static_cast<std::uint64_t>(back);
    const Slot& slot = slots_[static_cast<std::size_t>(epoch % kWindowEpochs)];
    if (slot.tag.load(std::memory_order_acquire) != (epoch << 1)) continue;
    total += slot.value.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace obs
}  // namespace dagperf
