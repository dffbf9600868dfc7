#ifndef DAGPERF_OBS_WINDOW_H_
#define DAGPERF_OBS_WINDOW_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "obs/metrics.h"
#include "obs/writer_slot.h"

namespace dagperf {
namespace obs {

/// Sliding-window aggregation over a ring of fixed-duration epochs.
///
/// Cumulative counters answer "how many ever"; serving questions are "what
/// is the p99 *right now*" and "what fraction of the last minute failed".
/// WindowedHistogram / WindowedCounter keep a ring of `kEpochs` epoch slots,
/// each `epoch_seconds` wide on the shared MonotonicUs timebase. Recording
/// lands in the current epoch; a snapshot sums the epochs inside the
/// requested window. Old epochs are recycled in place, so memory is fixed
/// and no background thread is needed.
///
/// Concurrency: recording is gated on the process-wide metrics flag —
/// disarmed cost is one relaxed load. A sample goes into the current epoch
/// of the calling thread's lane (one per writer slot, obs/writer_slot.h)
/// with relaxed loads and stores, no atomic read-modify-write. When a
/// lane's thread moves to another epoch, the lane's counts are added into
/// the ring slot of their epoch under the ring's mutex (dropped if a newer
/// epoch already holds that slot); snapshots read the ring and the lanes
/// under the same mutex, so a sample is counted once, in its lane or in
/// the ring.
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

/// Adds `n` to an atomic that only the caller writes.
template <typename T>
void Bump(std::atomic<T>& value, T n) {
  value.store(value.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
}

/// The epoch ring and writer lanes of one windowed type. `Counts` is a
/// struct of relaxed atomics with `void AddTo(Counts& into) const` and
/// `void Clear()`.
template <typename Counts>
class EpochLanes {
 public:
  /// Calls `add(counts)` on the calling thread's lane, rotated to `epoch`
  /// first; `add` bumps its fields (Bump).
  template <typename Add>
  void Record(std::uint64_t epoch, Add&& add) {
    const int writer = WriterSlot();
    Epoch& lane = lanes_[static_cast<std::size_t>(writer)];
    if (writer != kWriterSlots &&
        lane.epoch_plus_one.load(std::memory_order_relaxed) == epoch + 1) {
      add(lane.counts);
      return;
    }
    std::unique_lock<std::mutex> shared = Prepare(lane, writer, epoch);
    add(lane.counts);
  }

  /// Calls `read(counts)` for the ring slots and lanes holding an epoch in
  /// (now_epoch - span, now_epoch].
  template <typename Read>
  void Visit(std::uint64_t now_epoch, int span, Read&& read) const {
    const auto in_window = [&](std::uint64_t epoch_plus_one) {
      return epoch_plus_one != 0 && epoch_plus_one - 1 <= now_epoch &&
             now_epoch - (epoch_plus_one - 1) <
                 static_cast<std::uint64_t>(span);
    };
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Epoch& slot : ring_) {
      if (in_window(slot.epoch_plus_one.load(std::memory_order_relaxed))) {
        read(slot.counts);
      }
    }
    for (const Epoch& lane : lanes_) {
      if (in_window(lane.epoch_plus_one.load(std::memory_order_relaxed))) {
        read(lane.counts);
      }
    }
  }

 private:
  /// One epoch's counts: a ring slot, or a writer lane's current epoch.
  struct Epoch {
    /// The epoch held, plus one; 0 while nothing is held.
    std::atomic<std::uint64_t> epoch_plus_one{0};
    Counts counts;
  };

  /// Record's rare steps: locks the shared lane (the lock is returned)
  /// and, when `lane` holds another epoch, adds it into the ring slot of
  /// that epoch under mutex_ and starts it on `epoch`. Defined in
  /// window.cc, so the common path inlined at each Record carries no lock
  /// code.
  std::unique_lock<std::mutex> Prepare(Epoch& lane, int writer,
                                       std::uint64_t epoch);

  /// Guards the ring and every lane's rotation.
  mutable std::mutex mutex_;
  /// Serialises the writers of the shared lane (lanes_[kWriterSlots]).
  std::mutex shared_mutex_;
  std::array<Epoch, static_cast<std::size_t>(kWindowEpochs)> ring_;
  std::array<Epoch, static_cast<std::size_t>(kWriterSlots + 1)> lanes_;
};

}  // namespace internal

/// A histogram whose samples expire: the log2 bucket layout of
/// obs::Histogram replicated per epoch slot.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(WindowOptions options = {});

  /// Records `value` into the current epoch of the thread's lane. No-op
  /// while metrics are disabled (one relaxed load). `now_us` is on the
  /// MonotonicUs timebase.
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
  /// No count: every sample lands in one bucket, so Snap sums the buckets.
  struct Counts {
    std::atomic<double> sum{0.0};
    std::array<std::atomic<std::uint64_t>, Histogram::kBuckets> buckets{};

    void AddTo(Counts& into) const;
    void Clear();
  };

  WindowOptions options_;
  internal::EpochLanes<Counts> lanes_;
};

/// A counter whose increments expire, same ring and lanes.
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
  struct Counts {
    std::atomic<std::uint64_t> value{0};

    void AddTo(Counts& into) const;
    void Clear();
  };

  WindowOptions options_;
  internal::EpochLanes<Counts> lanes_;
};

}  // namespace obs
}  // namespace dagperf

#endif  // DAGPERF_OBS_WINDOW_H_
