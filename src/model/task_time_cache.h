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
/// A memo is scoped to one batch of work: one EstimateBatch call (the
/// batch-local default) or one tuner session that passes its own memo to
/// each round. Nothing keeps a memo across serving requests; a recurring
/// request is answered by the prefix-checkpoint store (model/incremental.h).
///
/// Internally the table is striped into kShardCount power-of-two shards
/// (hash-of-key → shard), each with its own reader-writer lock and hit/miss
/// counters, so the workers of a parallel sweep contend on 1/kShardCount of
/// the keyspace instead of one global mutex. The striping is invisible at
/// the API: stats() rolls the per-shard counters up.
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

    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  Stats stats() const;

  /// The memo key of `context`: scope, '#', the exact bytes of every
  /// running stage, then the query index.
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

  Shard& ShardFor(std::string_view key) {
    static_assert((kShardCount & (kShardCount - 1)) == 0,
                  "shard count must be a power of two");
    return shards_[std::hash<std::string_view>{}(key) & (kShardCount - 1)];
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

  /// The skew-aware twin of TaskTimes(): one probe per running stage and, on
  /// any miss, one wrapped TaskTimeDists() call fills every missing key.
  void TaskTimeDists(const EstimationContext& context,
                     std::vector<NormalParams>* out) const override;

  /// Attribution passes through uncached: it is queried only by explain
  /// reports (one-off, off the sweep hot path), and caching it would double
  /// every memo entry for data the sweeps never read.
  std::optional<TaskAttribution> Attribution(
      const EstimationContext& context) const override;

 private:
  static void CountHit(TaskTimeMemo::Shard& shard);
  static void CountMiss(TaskTimeMemo::Shard& shard);

  /// TaskTimes and TaskTimeDists: probes the `has`/`value` half of each
  /// running stage's entry and, on any miss, fills every missing one from a
  /// single wrapped `solve` call.
  template <typename T>
  void Batched(const EstimationContext& context, std::vector<T>* out,
               bool TaskTimeMemo::Entry::*has, T TaskTimeMemo::Entry::*value,
               void (TaskTimeSource::*solve)(const EstimationContext&,
                                             std::vector<T>*) const) const;

  const TaskTimeSource& base_;
  TaskTimeMemo* memo_;
  std::string scope_;
};

}  // namespace dagperf

#endif  // DAGPERF_MODEL_TASK_TIME_CACHE_H_
