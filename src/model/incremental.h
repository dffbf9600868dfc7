#ifndef DAGPERF_MODEL_INCREMENTAL_H_
#define DAGPERF_MODEL_INCREMENTAL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/cluster_spec.h"
#include "dag/dag_workflow.h"
#include "model/state_estimator.h"
#include "scheduler/drf.h"

namespace dagperf {

/// Incremental re-estimation: prefix-resume checkpoints.
///
/// Sweep candidates in a tuner neighborhood typically differ in one knob of
/// one job, so their state trajectories (paper Algorithm 1) are identical up
/// to the first state in which the changed job participates. The estimator
/// checkpoints its complete dynamic state at job-completion boundaries; a
/// later candidate looks up the deepest checkpoint whose *structural prefix*
/// matches its own workflow and resumes the iteration there instead of
/// replaying it. Resumed estimates are bit-identical to full replay — the
/// checkpoint key is an exact-byte serialisation of everything the
/// trajectory up to that boundary depends on (see BuildKey), so a key match
/// guarantees the replay would have produced exactly the stored state.
///
/// Key structure (all numeric fields as raw bits, no rounding):
///   [scope, cluster, scheduler, estimator options]   -- global fingerprint
///   [sorted done-job ids]                            -- the prefix boundary
///   [for each ACTIVATED job (all parents done), ascending id:
///        id, stage profiles (map + reduce), parent ids]
///   [8-byte digest of the above]                     -- the store's hash
/// The digest is mixed from the global fingerprint's hash, the done ids and
/// each activated job's id and precomputed fingerprint hash, so a probe
/// compares stored keys in place instead of writing and hashing a key of
/// several KB (about 450 bytes per activated job). Equality is still on
/// every byte.
/// Only activated jobs enter the key: a job whose parents are not all done
/// cannot have run before the boundary, so its profile cannot have
/// influenced the trajectory — which is what lets candidates that differ
/// only in a not-yet-activated job share the full prefix, and even lets
/// workflows with different job counts share checkpoints.
///
/// Invalidation: there is none to do. Cluster, scheduler, and estimator
/// options are part of every key, so changing them simply misses. The
/// TaskTimeSource is NOT captured by the key (sources are opaque); callers
/// must set a distinct `checkpoint_scope` per source identity, exactly as
/// they scope a shared TaskTimeMemo (a sweep uses the same scope string for
/// both). See docs/performance.md.

/// One in-flight wave of tasks: `size` tasks that started together and have
/// completed `frac` of their duration (moved here from the estimator so
/// checkpoints can store wave state verbatim).
struct WaveState {
  double size = 0.0;
  double frac = 0.0;
  /// Whether this wave contains the stage's final tasks (it pays the
  /// straggler tail under Alg2).
  bool is_last = false;
};

/// Frozen dynamic state of one stage slot at a checkpoint boundary.
struct StageDynState {
  unsigned char ready = 0;
  unsigned char complete = 0;
  double not_started = 0.0;
  double start_time = -1.0;
  double end_time = 0.0;
  /// This slot's waves live in EstimatorCheckpoint::waves
  /// [wave_begin, wave_begin + wave_count).
  int wave_begin = 0;
  int wave_count = 0;
};

/// The estimator's complete dynamic state at one job-completion boundary,
/// plus the partial output produced so far. Restoring is a handful of
/// memcpy-style vector assigns (every record is trivially copyable).
struct EstimatorCheckpoint {
  std::string key;
  /// The job fingerprints of the flow that captured this checkpoint (empty
  /// when restored from a snapshot). A probe by a flow sharing their owner
  /// (DagWorkflow::shared_job_fingerprints) needs no byte compare of them;
  /// held weakly, so a checkpoint never keeps a dead flow's bytes alive.
  std::weak_ptr<const std::vector<std::string>> job_fingerprints;
  /// Completed jobs at the boundary, ascending.
  std::vector<JobId> done;
  /// Activated jobs (all parents done), ascending. Non-activated jobs have
  /// never run and are re-initialised fresh by the resuming estimate.
  std::vector<JobId> jobs;
  /// Two slots (map, reduce) per entry of `jobs`, in order.
  std::vector<StageDynState> stage_state;
  /// Flat wave pool indexed by StageDynState::wave_begin/wave_count.
  std::vector<WaveState> waves;
  double now = 0.0;
  int next_state_index = 1;
  /// Partial output: the states/running records/stage spans emitted so far.
  std::vector<StateEstimate> states;
  std::vector<RunningStageEstimate> running_pool;
  std::vector<StageSpanEstimate> stages;

  /// Approximate retained heap footprint, for the store's byte cap.
  std::size_t ByteSize() const;

  /// ByteSize() of a checkpoint holding these element counts, so a caller
  /// can ask PrefixCheckpointStore::Admits before building one.
  static std::size_t ByteSizeFor(std::size_t key_bytes, std::size_t done,
                                 std::size_t jobs, std::size_t stage_states,
                                 std::size_t waves, std::size_t states,
                                 std::size_t running, std::size_t stages);
};

/// Thread-safe store of prefix checkpoints, shared across the candidates of
/// a sweep and — as the service's one cross-request warm store — across
/// requests, scoped per cluster.
///
/// Inserts are first-wins (matching keys imply bit-identical content, so
/// either copy is correct) and stop once the byte cap is reached: rejecting
/// beats evicting because an estimate's resume depth then never depends on
/// concurrent eviction timing, keeping batch results deterministic.
class PrefixCheckpointStore {
 public:
  struct Options {
    /// Byte cap on retained checkpoints; inserts are rejected beyond it.
    std::size_t max_bytes = 64 * 1024 * 1024;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    /// Inserts rejected because the byte cap was reached.
    std::uint64_t rejected_full = 0;
    /// Total states skipped by resuming (the work saved).
    std::uint64_t resumed_states = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;

    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  PrefixCheckpointStore();
  explicit PrefixCheckpointStore(Options options);

  /// The deepest checkpoint matching a prefix of `flow` (most done jobs),
  /// or nullptr. Counts a hit or miss.
  std::shared_ptr<const EstimatorCheckpoint> Lookup(
      const DagWorkflow& flow, const std::string& global_fp) const;

  /// Whether the complete-result checkpoint of `flow` (every job done: the
  /// entry that turns an estimate into a copy) is stored under `global_fp`.
  /// Counts neither a hit nor a miss.
  bool HoldsCompleteResult(const DagWorkflow& flow,
                           const std::string& global_fp) const;

  /// Whether Insert would store a checkpoint of `bytes` (its ByteSize())
  /// under `key` right now — the estimator asks before paying the capture
  /// copies. False when the key is already stored, or when the byte cap
  /// would be exceeded; the latter counts in Stats::rejected_full exactly as
  /// a rejected Insert does, so the caller must not then Insert.
  bool Admits(const std::string& key, std::size_t bytes);

  /// Stores a checkpoint under its `key`. First insert wins; inserts beyond
  /// the byte cap are rejected (counted in Stats::rejected_full).
  void Insert(std::shared_ptr<const EstimatorCheckpoint> checkpoint);

  /// Called by a resuming estimate with the number of states it skipped;
  /// feeds Stats::resumed_states and the incremental.resume_depth histogram.
  void RecordResume(int states) const;

  void Clear();
  Stats stats() const;

  /// Snapshot of every stored checkpoint (order unspecified) — the
  /// warm-state snapshot (model/snapshot.h) serialises these.
  std::vector<std::shared_ptr<const EstimatorCheckpoint>> Export() const;

  /// Re-inserts checkpoints through Insert(): first-wins, byte-capped, and
  /// done-set registration all apply, so a restored store probes exactly
  /// like the store it was saved from.
  void Import(
      const std::vector<std::shared_ptr<const EstimatorCheckpoint>>& entries);

  /// Appends the global part of a checkpoint key: scope + everything the
  /// estimator consumes from cluster, scheduler, and options. Excludes
  /// max_states and budget — both only bound how far an estimate gets, never
  /// the values it computes on the way.
  static void AppendGlobalFingerprint(const std::string& scope,
                                      const ClusterSpec& cluster,
                                      const SchedulerConfig& scheduler,
                                      const EstimatorOptions& options,
                                      std::string* out);

  /// Builds the full key for the boundary `done` (sorted ascending) of
  /// `flow`, computing the activated set internally. Returns false when the
  /// done set cannot belong to this flow (an id out of range), in which
  /// case `*out` is unspecified.
  static bool BuildKey(const std::string& global_fp, const DagWorkflow& flow,
                       const JobId* done, std::size_t done_count,
                       std::string* out);

 private:
  /// A key described by its parts (BuildKey's inputs) instead of written
  /// out: probes compare it with stored keys in place.
  struct KeyParts;

  /// Hashes a checkpoint or a key by the key's trailing digest (keys
  /// shorter than a digest, which BuildKey never writes, are hashed whole)
  /// and a KeyParts by the digest of the key it describes.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const std::string& key) const;
    std::size_t operator()(
        const std::shared_ptr<const EstimatorCheckpoint>& checkpoint) const {
      return (*this)(checkpoint->key);
    }
    std::size_t operator()(const KeyParts& parts) const;
  };
  /// Equality of keys; a checkpoint stands for its key.
  struct KeyEqual {
    using is_transparent = void;
    using Checkpoint = std::shared_ptr<const EstimatorCheckpoint>;
    bool operator()(const Checkpoint& a, const Checkpoint& b) const {
      return a->key == b->key;
    }
    bool operator()(const std::string& key, const Checkpoint& c) const {
      return key == c->key;
    }
    bool operator()(const Checkpoint& c, const std::string& key) const {
      return key == c->key;
    }
    bool operator()(const KeyParts& parts, const Checkpoint& c) const;
    bool operator()(const Checkpoint& c, const KeyParts& parts) const {
      return (*this)(parts, c);
    }
  };

  void CountRejectedFull();

  Options options_;
  mutable std::shared_mutex mutex_;
  std::unordered_set<std::shared_ptr<const EstimatorCheckpoint>, KeyHash,
                     KeyEqual>
      entries_;
  /// Distinct done sets seen by Insert, ordered deepest-first (size
  /// descending, then lexicographic) — the probe sequence for Lookup.
  std::vector<std::vector<JobId>> done_sets_;
  std::size_t bytes_ = 0;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  mutable std::atomic<std::uint64_t> resumed_states_{0};
};

}  // namespace dagperf

#endif  // DAGPERF_MODEL_INCREMENTAL_H_
