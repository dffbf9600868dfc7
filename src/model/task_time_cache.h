#ifndef DAGPERF_MODEL_TASK_TIME_CACHE_H_
#define DAGPERF_MODEL_TASK_TIME_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "model/task_time_source.h"

namespace dagperf {

/// Thread-safe memo table for task-time queries.
///
/// The state-based estimator asks its TaskTimeSource for a task time once
/// per (running stage, workflow state); across the states of one estimate —
/// and far more so across the candidates of a what-if sweep — the same
/// concurrent-execution context recurs constantly (e.g. every reducer-count
/// candidate shares the identical map-only states). The memo keys on an
/// *exact* serialisation of the EstimationContext (stage profile contents
/// and per-node task populations, raw double bits — no rounding), so a hit
/// returns bit-identical values to recomputation and cached estimates equal
/// uncached ones exactly.
///
/// Keys optionally carry a caller-supplied scope prefix so one memo can be
/// shared across sources or knob settings that the context alone does not
/// distinguish (e.g. different node hardware, different fixed overheads).
///
/// Internally the table is striped into kShardCount power-of-two shards
/// (hash-of-key → shard), each with its own reader-writer lock and hit/miss
/// counters, so concurrent sweeps and coalesced service requests contend on
/// 1/kShardCount of the keyspace instead of one global mutex. The striping
/// is invisible at the API: stats() rolls the per-shard counters up, and
/// Export() returns entries sorted by key so warm-state snapshot bytes stay
/// deterministic (and bit-compatible with the pre-sharded format).
///
/// All operations are safe to call concurrently.
class TaskTimeMemo {
 public:
  /// Lock stripes. Power of two so the shard index is a mask, sized so a
  /// pool of a few dozen sweep workers rarely collides on a stripe.
  static constexpr std::size_t kShardCount = 16;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Misses whose insert found the value already stored: two threads
    /// computed the same key concurrently (harmless — the source is
    /// deterministic — but duplicated work worth watching under load).
    std::uint64_t insert_races = 0;
    std::size_t entries = 0;
    /// Stripe count (constant for a build; surfaced so `stats` consumers
    /// can normalise contention numbers without a header dependency).
    std::size_t shards = kShardCount;

    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  Stats stats() const;

  /// Drops every entry and zeroes the per-shard hit/miss/race counters.
  /// The service calls this on drain, so post-drain `stats` gauges report
  /// the new epoch only — counters from before the drain never leak into
  /// hit-rate computed after it.
  void Clear();

  /// One memo entry in exported form — the warm-state snapshot
  /// (model/snapshot.h) serialises these; Entry itself stays private.
  struct ExportedEntry {
    std::string key;
    Duration time;
    NormalParams dist;
    bool has_time = false;
    bool has_dist = false;
  };

  /// Snapshot of every stored entry, sorted by key. The sort makes the
  /// export independent of shard iteration order and hash seeding, which
  /// keeps warm-state snapshot bytes (model/snapshot.h) deterministic for a
  /// given set of entries.
  std::vector<ExportedEntry> Export() const;

  /// Merges entries into the memo. Existing keys keep their stored value —
  /// sources are deterministic, so a colliding import carries the same bits
  /// either way. Hit/miss counters are untouched: imported warmth shows up
  /// as hits, exactly like warmth earned by serving.
  void Import(const std::vector<ExportedEntry>& entries);
  static std::string Fingerprint(const std::string& scope,
                                 const EstimationContext& context);

  /// Allocation-free variant for hot loops: rebuilds the key into `*out`
  /// (cleared first, capacity reused).
  static void FingerprintTo(const std::string& scope,
                            const EstimationContext& context, std::string* out);

 private:
  friend class MemoizedTaskTimeSource;

  struct Entry {
    Duration time;
    NormalParams dist;
    bool has_time = false;
    bool has_dist = false;
  };

  /// One lock stripe: a slice of the keyspace with its own mutex and
  /// counters. Counters live on the shard (not globally) so a hot stripe
  /// never bounces a process-wide cache line.
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::string, Entry> entries;
    mutable std::atomic<std::uint64_t> hits{0};
    mutable std::atomic<std::uint64_t> misses{0};
    mutable std::atomic<std::uint64_t> insert_races{0};
  };

  static std::size_t ShardIndex(std::string_view key) {
    static_assert((kShardCount & (kShardCount - 1)) == 0,
                  "shard count must be a power of two");
    return std::hash<std::string_view>{}(key) & (kShardCount - 1);
  }

  Shard& ShardFor(std::string_view key) { return shards_[ShardIndex(key)]; }
  const Shard& ShardFor(std::string_view key) const {
    return shards_[ShardIndex(key)];
  }

  std::array<Shard, kShardCount> shards_;
};

/// A TaskTimeSource decorator answering repeated queries from a TaskTimeMemo
/// instead of re-invoking the wrapped source (BOE solve or profile lookup).
///
/// The wrapped source must be deterministic (same context in, same value
/// out) and must outlive this object, as must the memo. Both conditions hold
/// for BoeTaskTimeSource and ProfileTaskTimeSource. Safe for concurrent use
/// when the wrapped source is (see the thread-safety contract in
/// task_time_source.h).
class MemoizedTaskTimeSource : public TaskTimeSource {
 public:
  MemoizedTaskTimeSource(const TaskTimeSource& base, TaskTimeMemo* memo,
                         std::string scope = "");

  Duration TaskTime(const EstimationContext& context) const override;
  NormalParams TaskTimeDist(const EstimationContext& context) const override;

  /// Probes one key per running stage. On any miss, one wrapped TaskTimes()
  /// call prices the whole state and fills every missing key. TaskTime()
  /// answers through this path, so one query warms the whole state.
  void TaskTimes(const EstimationContext& context,
                 std::vector<Duration>* out) const override;

  /// Attribution passes through uncached: it is queried only by explain
  /// reports (one-off, off the sweep hot path), and caching it would double
  /// every memo entry for data the sweeps never read.
  std::optional<TaskAttribution> Attribution(
      const EstimationContext& context) const override;

  /// Hit/miss counts observed through *this instance* — the memo's own
  /// stats aggregate every user of the table, which cannot attribute cache
  /// behaviour to one request. The service creates one decorator per
  /// request, so these counters classify that request's warm/cold path.
  /// Only maintained while obs metrics are enabled (one extra relaxed add
  /// per query when armed, nothing when not).
  std::uint64_t local_hits() const {
    return local_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t local_misses() const {
    return local_misses_.load(std::memory_order_relaxed);
  }

 private:
  void CountHit(TaskTimeMemo::Shard& shard) const;
  void CountMiss(TaskTimeMemo::Shard& shard) const;

  const TaskTimeSource& base_;
  TaskTimeMemo* memo_;
  std::string scope_;
  mutable std::atomic<std::uint64_t> local_hits_{0};
  mutable std::atomic<std::uint64_t> local_misses_{0};
};

}  // namespace dagperf

#endif  // DAGPERF_MODEL_TASK_TIME_CACHE_H_
