#ifndef DAGPERF_MODEL_SNAPSHOT_H_
#define DAGPERF_MODEL_SNAPSHOT_H_

#include <cstddef>
#include <string>

#include "common/status.h"
#include "model/incremental.h"

namespace dagperf {

/// Warm-state snapshot: persists a PrefixCheckpointStore to disk so a
/// restarted serving shard does not greet its clients with a cold-cache
/// latency cliff (`dagperf serve --snapshot-dir`).
///
/// Format (binary, little-endian as written by the host — snapshots are a
/// same-host restart aid, not a portable interchange format):
///
///   magic            "DPWARM01"            8 bytes
///   format_version   u32                   bumped on any layout change
///   resource_count   u32                   kNumResources at save time
///   payload_size     u64                   bytes following the checksum
///   checksum         u64                   FNV-1a64 over the payload
///   payload          checkpoints, every numeric field written bit-exact
///                    (raw double/int bytes) so a restored store answers
///                    bit-identically to the saved one
///
/// Rejection is always clean: a truncated file, flipped bit, wrong magic, or
/// a snapshot from a binary with a different format/resource layout returns
/// a non-Ok Status with a diagnostic naming what failed, and the target
/// store is left exactly as it was — the caller simply cold-starts. A v2
/// file (which also carried a task-time memo section) is stale.
/// Loading never trusts a length field beyond the actual payload: every
/// read is bounds-checked before the checksum has a chance to lie.

struct SnapshotStats {
  std::size_t checkpoints = 0;
  /// Serialized payload size on disk.
  std::size_t bytes = 0;
};

/// Serialises `checkpoints` to `path` (written via a temp file + rename, so
/// a crash mid-save never leaves a torn snapshot under the real name).
/// Concurrent store writers are safe — Export takes the store's lock — but
/// the snapshot is a point-in-time cut, not a fence.
Status SaveWarmSnapshot(const std::string& path,
                        const PrefixCheckpointStore& checkpoints,
                        SnapshotStats* stats = nullptr);

/// Parses and validates the snapshot at `path`, then imports its
/// checkpoints into `checkpoints` (first-wins merge). On any validation
/// failure the target is untouched and the Status says why:
/// kNotFound (no such file), kInvalidArgument (corrupt: bad magic, size
/// mismatch, checksum mismatch, truncated field), kFailedPrecondition
/// (stale: a different format or resource layout).
Status LoadWarmSnapshot(const std::string& path,
                        PrefixCheckpointStore* checkpoints,
                        SnapshotStats* stats = nullptr);

/// LoadWarmSnapshot restricted to one cluster scope: only checkpoints whose
/// key starts with `scope + '#'` — the prefix the checkpoint store's global
/// fingerprint puts first — are imported; everything else in the snapshot
/// is skipped (and not counted in `stats`). Validation is unchanged: a
/// corrupt or stale snapshot is rejected whole, target untouched, even if
/// the surviving scope slice was intact. This is the router's warm-handoff
/// path: a shard importing a peer's snapshot takes only the key range the
/// ring assigns it.
Status LoadWarmSnapshotForScope(const std::string& path,
                                const std::string& scope,
                                PrefixCheckpointStore* checkpoints,
                                SnapshotStats* stats = nullptr);

}  // namespace dagperf

#endif  // DAGPERF_MODEL_SNAPSHOT_H_
