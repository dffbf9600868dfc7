#ifndef DAGPERF_OBS_WINDOW_H_
#define DAGPERF_OBS_WINDOW_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "obs/metrics.h"

namespace dagperf {
namespace obs {

/// Sliding-window aggregation over a ring of fixed-duration epochs.
///
/// Cumulative counters answer "how many ever"; serving questions are "what
/// is the p99 *right now*" and "what fraction of the last minute failed".
/// WindowedHistogram / WindowedCounter keep a ring of `kEpochs` epoch slots,
/// each `epoch_seconds` wide on the shared MonotonicUs timebase. Recording
/// lands in the slot of the current epoch; a snapshot sums the slots whose
/// epoch falls inside the requested window. Old epochs are recycled in
/// place, so memory is fixed and no background thread is needed.
///
/// Concurrency: recording is lock-free (relaxed atomics on the slot, same
/// discipline as obs::Histogram) and gated on the process-wide metrics flag
/// — disarmed cost is one relaxed load. Epoch rotation is a two-phase tag
/// protocol per slot: the rotating writer CASes the slot tag to a "resetting"
/// sentinel, zeroes the slot, then publishes the new epoch tag; concurrent
/// writers that observe the sentinel re-read until the slot is live. A
/// writer that stalls across an entire epoch boundary between computing its
/// epoch and recording can land its sample in the successor epoch — a
/// bounded, benign smear (samples are never lost, windows never double
/// count), the standard trade for lock-free rotation.
///
/// Time is injectable (`now_us` parameters, defaulting to MonotonicUs()) so
/// rotation is deterministically testable.

/// Epoch ring geometry shared by the windowed types. With the default
/// 5-second epochs the 64-slot ring covers > 5 minutes of lookback — the
/// 10s / 1m / 5m windows the SLO tracker reports all fit.
struct WindowOptions {
  double epoch_seconds = 5.0;
};

inline constexpr int kWindowEpochs = 64;

namespace internal {
/// Slot tags: epoch E is published as E*2; E*2+1 marks a reset in progress.
inline constexpr std::uint64_t kResettingBit = 1;
}  // namespace internal

/// A histogram whose samples expire: the log2 bucket layout of
/// obs::Histogram replicated per epoch slot.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(WindowOptions options = {});

  /// Records `value` into the current epoch's slot. No-op while metrics are
  /// disabled (one relaxed load). `now_us` is on the MonotonicUs timebase.
  void Record(double value) { Record(value, MonotonicUs()); }
  void Record(double value, double now_us);

  /// Sums every live epoch inside `window_seconds` ending at `now_us` into
  /// one Histogram::Snapshot (the current partial epoch included). An empty
  /// window yields count == 0 and Quantile() == 0.
  Histogram::Snapshot Snap(double window_seconds) const {
    return Snap(window_seconds, MonotonicUs());
  }
  Histogram::Snapshot Snap(double window_seconds, double now_us) const;

  double epoch_seconds() const { return options_.epoch_seconds; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> tag{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::array<std::atomic<std::uint64_t>, Histogram::kBuckets> buckets{};
  };

  /// Returns the slot for `epoch`, rotating it (two-phase reset) if it still
  /// holds an older epoch. Null while another thread is mid-reset.
  Slot* LiveSlot(std::uint64_t epoch);

  WindowOptions options_;
  std::array<Slot, static_cast<std::size_t>(kWindowEpochs)> slots_;
};

/// A counter whose increments expire, same ring discipline.
class WindowedCounter {
 public:
  explicit WindowedCounter(WindowOptions options = {});

  void Add(std::uint64_t n = 1) { Add(n, MonotonicUs()); }
  void Add(std::uint64_t n, double now_us);

  /// Total increments inside `window_seconds` ending at `now_us`.
  std::uint64_t Sum(double window_seconds) const {
    return Sum(window_seconds, MonotonicUs());
  }
  std::uint64_t Sum(double window_seconds, double now_us) const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> tag{0};
    std::atomic<std::uint64_t> value{0};
  };

  Slot* LiveSlot(std::uint64_t epoch);

  WindowOptions options_;
  std::array<Slot, static_cast<std::size_t>(kWindowEpochs)> slots_;
};

}  // namespace obs
}  // namespace dagperf

#endif  // DAGPERF_OBS_WINDOW_H_
