#include "model/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/resources.h"

namespace dagperf {

namespace {

constexpr char kMagic[8] = {'D', 'P', 'W', 'A', 'R', 'M', '0', '1'};
// v2: checkpoint keys end with an 8-byte digest (model/incremental.h), so a
// v1 checkpoint could never match a probe again. v3: the task-time memo
// section is gone; the payload holds checkpoints only.
constexpr std::uint32_t kFormatVersion = 3;
constexpr std::size_t kHeaderSize =
    sizeof(kMagic) + 2 * sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);

std::uint64_t Fnv1a64(const char* data, std::size_t size) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

// ---- writer ---------------------------------------------------------------

void PutU8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

void PutU32(std::string& out, std::uint32_t value) {
  char bits[sizeof(value)];
  std::memcpy(bits, &value, sizeof(value));
  out.append(bits, sizeof(value));
}

void PutU64(std::string& out, std::uint64_t value) {
  char bits[sizeof(value)];
  std::memcpy(bits, &value, sizeof(value));
  out.append(bits, sizeof(value));
}

void PutI64(std::string& out, std::int64_t value) {
  char bits[sizeof(value)];
  std::memcpy(bits, &value, sizeof(value));
  out.append(bits, sizeof(value));
}

void PutDouble(std::string& out, double value) {
  char bits[sizeof(value)];
  std::memcpy(bits, &value, sizeof(value));
  out.append(bits, sizeof(value));
}

void PutString(std::string& out, const std::string& value) {
  PutU64(out, value.size());
  out.append(value);
}

// ---- bounds-checked reader ------------------------------------------------

/// Every Read* fails soft (ok -> false, zero value) on underflow; callers
/// check cursor.ok once per record instead of per field. A corrupt length
/// can therefore never read past the payload or drive a giant allocation:
/// vector counts are validated against the bytes actually remaining.
struct Cursor {
  const char* data;
  std::size_t remaining;
  bool ok = true;

  bool Take(void* out, std::size_t size) {
    if (!ok || size > remaining) {
      ok = false;
      return false;
    }
    std::memcpy(out, data, size);
    data += size;
    remaining -= size;
    return true;
  }

  std::uint8_t ReadU8() {
    std::uint8_t value = 0;
    Take(&value, sizeof(value));
    return value;
  }
  std::uint32_t ReadU32() {
    std::uint32_t value = 0;
    Take(&value, sizeof(value));
    return value;
  }
  std::uint64_t ReadU64() {
    std::uint64_t value = 0;
    Take(&value, sizeof(value));
    return value;
  }
  std::int64_t ReadI64() {
    std::int64_t value = 0;
    Take(&value, sizeof(value));
    return value;
  }
  double ReadDouble() {
    double value = 0;
    Take(&value, sizeof(value));
    return value;
  }
  std::string ReadString() {
    const std::uint64_t size = ReadU64();
    if (!ok || size > remaining) {
      ok = false;
      return std::string();
    }
    std::string value(data, static_cast<std::size_t>(size));
    data += size;
    remaining -= static_cast<std::size_t>(size);
    return value;
  }
  /// Validates a vector count against the minimum bytes one element needs.
  std::size_t ReadCount(std::size_t min_element_bytes) {
    const std::uint64_t count = ReadU64();
    if (!ok || (min_element_bytes > 0 &&
                count > remaining / min_element_bytes)) {
      ok = false;
      return 0;
    }
    return static_cast<std::size_t>(count);
  }
};

// ---- checkpoint record serialisation --------------------------------------

void PutCheckpoint(std::string& out, const EstimatorCheckpoint& cp) {
  PutString(out, cp.key);
  PutU64(out, cp.done.size());
  for (JobId id : cp.done) PutI64(out, id);
  PutU64(out, cp.jobs.size());
  for (JobId id : cp.jobs) PutI64(out, id);
  PutU64(out, cp.stage_state.size());
  for (const StageDynState& s : cp.stage_state) {
    PutU8(out, s.ready);
    PutU8(out, s.complete);
    PutDouble(out, s.not_started);
    PutDouble(out, s.start_time);
    PutDouble(out, s.end_time);
    PutI64(out, s.wave_begin);
    PutI64(out, s.wave_count);
  }
  PutU64(out, cp.waves.size());
  for (const WaveState& w : cp.waves) {
    PutDouble(out, w.size);
    PutDouble(out, w.frac);
    PutU8(out, w.is_last ? 1 : 0);
  }
  PutDouble(out, cp.now);
  PutI64(out, cp.next_state_index);
  PutU64(out, cp.states.size());
  for (const StateEstimate& s : cp.states) {
    PutI64(out, s.index);
    PutDouble(out, s.start);
    PutDouble(out, s.duration);
    PutI64(out, s.running_begin);
    PutI64(out, s.running_count);
    PutI64(out, s.critical);
  }
  PutU64(out, cp.running_pool.size());
  for (const RunningStageEstimate& r : cp.running_pool) {
    PutI64(out, r.job);
    PutU8(out, static_cast<std::uint8_t>(r.kind));
    PutI64(out, r.parallelism);
    PutDouble(out, r.task_time_s);
    PutU8(out, r.has_attribution ? 1 : 0);
    PutU8(out, static_cast<std::uint8_t>(r.bottleneck));
    for (double share : r.utilization.values) PutDouble(out, share);
  }
  PutU64(out, cp.stages.size());
  for (const StageSpanEstimate& s : cp.stages) {
    PutI64(out, s.job);
    PutU8(out, static_cast<std::uint8_t>(s.kind));
    PutDouble(out, s.start);
    PutDouble(out, s.end);
  }
}

bool ReadCheckpoint(Cursor& cursor, EstimatorCheckpoint* cp) {
  cp->key = cursor.ReadString();
  const std::size_t done_count = cursor.ReadCount(sizeof(std::int64_t));
  cp->done.resize(done_count);
  for (std::size_t i = 0; i < done_count; ++i) {
    cp->done[i] = static_cast<JobId>(cursor.ReadI64());
  }
  const std::size_t job_count = cursor.ReadCount(sizeof(std::int64_t));
  cp->jobs.resize(job_count);
  for (std::size_t i = 0; i < job_count; ++i) {
    cp->jobs[i] = static_cast<JobId>(cursor.ReadI64());
  }
  const std::size_t stage_count = cursor.ReadCount(2 + 3 * sizeof(double));
  cp->stage_state.resize(stage_count);
  for (std::size_t i = 0; i < stage_count; ++i) {
    StageDynState& s = cp->stage_state[i];
    s.ready = cursor.ReadU8();
    s.complete = cursor.ReadU8();
    s.not_started = cursor.ReadDouble();
    s.start_time = cursor.ReadDouble();
    s.end_time = cursor.ReadDouble();
    s.wave_begin = static_cast<int>(cursor.ReadI64());
    s.wave_count = static_cast<int>(cursor.ReadI64());
  }
  const std::size_t wave_count = cursor.ReadCount(2 * sizeof(double) + 1);
  cp->waves.resize(wave_count);
  for (std::size_t i = 0; i < wave_count; ++i) {
    WaveState& w = cp->waves[i];
    w.size = cursor.ReadDouble();
    w.frac = cursor.ReadDouble();
    w.is_last = cursor.ReadU8() != 0;
  }
  cp->now = cursor.ReadDouble();
  cp->next_state_index = static_cast<int>(cursor.ReadI64());
  const std::size_t state_count = cursor.ReadCount(4 * sizeof(std::int64_t));
  cp->states.resize(state_count);
  for (std::size_t i = 0; i < state_count; ++i) {
    StateEstimate& s = cp->states[i];
    s.index = static_cast<int>(cursor.ReadI64());
    s.start = cursor.ReadDouble();
    s.duration = cursor.ReadDouble();
    s.running_begin = static_cast<int>(cursor.ReadI64());
    s.running_count = static_cast<int>(cursor.ReadI64());
    s.critical = static_cast<int>(cursor.ReadI64());
  }
  const std::size_t running_count = cursor.ReadCount(2 * sizeof(std::int64_t));
  cp->running_pool.resize(running_count);
  for (std::size_t i = 0; i < running_count; ++i) {
    RunningStageEstimate& r = cp->running_pool[i];
    r.job = static_cast<JobId>(cursor.ReadI64());
    r.kind = static_cast<StageKind>(cursor.ReadU8());
    r.parallelism = static_cast<int>(cursor.ReadI64());
    r.task_time_s = cursor.ReadDouble();
    r.has_attribution = cursor.ReadU8() != 0;
    r.bottleneck = static_cast<Resource>(cursor.ReadU8());
    for (double& share : r.utilization.values) share = cursor.ReadDouble();
  }
  const std::size_t span_count = cursor.ReadCount(sizeof(std::int64_t));
  cp->stages.resize(span_count);
  for (std::size_t i = 0; i < span_count; ++i) {
    StageSpanEstimate& s = cp->stages[i];
    s.job = static_cast<JobId>(cursor.ReadI64());
    s.kind = static_cast<StageKind>(cursor.ReadU8());
    s.start = cursor.ReadDouble();
    s.end = cursor.ReadDouble();
  }
  return cursor.ok;
}

}  // namespace

Status SaveWarmSnapshot(const std::string& path,
                        const PrefixCheckpointStore& checkpoints,
                        SnapshotStats* stats) {
  const std::vector<std::shared_ptr<const EstimatorCheckpoint>> stored =
      checkpoints.Export();

  std::string payload;
  payload.reserve(stored.size() * 512);
  PutU64(payload, stored.size());
  for (const auto& checkpoint : stored) PutCheckpoint(payload, *checkpoint);

  std::string file;
  file.reserve(payload.size() + 32);
  file.append(kMagic, sizeof(kMagic));
  PutU32(file, kFormatVersion);
  PutU32(file, static_cast<std::uint32_t>(kNumResources));
  PutU64(file, payload.size());
  PutU64(file, Fnv1a64(payload.data(), payload.size()));
  file.append(payload);

  // Temp-and-rename: a crash mid-write leaves at worst a stale .tmp, never a
  // torn file under the snapshot's real name.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("snapshot: cannot open " + tmp + " for writing");
    }
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    if (!out) {
      return Status::Internal("snapshot: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("snapshot: rename " + tmp + " -> " + path +
                            " failed");
  }
  if (stats != nullptr) {
    stats->checkpoints = stored.size();
    stats->bytes = payload.size();
  }
  return Status::Ok();
}

Result<std::vector<std::shared_ptr<const EstimatorCheckpoint>>>
DecodeWarmSnapshot(std::string_view file, const std::string& origin) {
  if (file.size() < kHeaderSize) {
    return Status::InvalidArgument(
        "snapshot: " + origin + " is truncated (" +
        std::to_string(file.size()) + " bytes, header needs " +
        std::to_string(kHeaderSize) + "): cold-starting");
  }
  Cursor header{file.data(), file.size()};
  char magic[sizeof(kMagic)];
  header.Take(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("snapshot: " + origin +
                                   " has a bad magic: cold-starting");
  }
  const std::uint32_t format = header.ReadU32();
  if (format != kFormatVersion) {
    return Status::FailedPrecondition(
        "snapshot: " + origin + " is format v" + std::to_string(format) +
        ", this binary writes v" + std::to_string(kFormatVersion) +
        ": stale, cold-starting");
  }
  const std::uint32_t resources = header.ReadU32();
  if (resources != static_cast<std::uint32_t>(kNumResources)) {
    return Status::FailedPrecondition(
        "snapshot: " + origin + " was saved with " + std::to_string(resources) +
        " resource dimensions, this binary has " +
        std::to_string(static_cast<int>(kNumResources)) +
        ": stale, cold-starting");
  }
  const std::uint64_t payload_size = header.ReadU64();
  const std::uint64_t checksum = header.ReadU64();
  if (payload_size != header.remaining) {
    return Status::InvalidArgument(
        "snapshot: " + origin + " payload size mismatch (header says " +
        std::to_string(payload_size) + ", file carries " +
        std::to_string(header.remaining) + "): truncated, cold-starting");
  }
  const std::uint64_t actual = Fnv1a64(header.data, header.remaining);
  if (actual != checksum) {
    return Status::InvalidArgument("snapshot: " + origin +
                                   " checksum mismatch: corrupt, "
                                   "cold-starting");
  }

  // Parse fully into local staging before touching the target: a payload
  // that passes the checksum but still trips a bounds check (a logic bug,
  // not line noise) must not leave the store half-imported.
  Cursor cursor{header.data, header.remaining};
  const std::size_t checkpoint_count =
      cursor.ReadCount(sizeof(std::uint64_t));
  std::vector<std::shared_ptr<const EstimatorCheckpoint>> restored;
  restored.reserve(checkpoint_count);
  for (std::size_t i = 0; i < checkpoint_count && cursor.ok; ++i) {
    auto checkpoint = std::make_shared<EstimatorCheckpoint>();
    if (!ReadCheckpoint(cursor, checkpoint.get())) break;
    restored.push_back(std::move(checkpoint));
  }
  if (!cursor.ok) {
    return Status::InvalidArgument(
        "snapshot: " + origin +
        " payload walks off a record boundary: corrupt, cold-starting");
  }
  if (cursor.remaining != 0) {
    return Status::InvalidArgument(
        "snapshot: " + origin + " carries " + std::to_string(cursor.remaining) +
        " trailing bytes: corrupt, cold-starting");
  }
  return restored;
}

namespace {

/// Shared loader; when `scope` is non-null only checkpoints with the
/// `scope + '#'` key prefix are imported. The filter runs after full
/// validation — a corrupt snapshot is rejected whole either way.
Status LoadWarmSnapshotImpl(const std::string& path, const std::string* scope,
                            PrefixCheckpointStore* checkpoints,
                            SnapshotStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("snapshot: no file at " + path);
  }
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::Internal("snapshot: read error on " + path);
  }
  auto decoded = DecodeWarmSnapshot(file, path);
  if (!decoded.ok()) return decoded.status();
  std::vector<std::shared_ptr<const EstimatorCheckpoint>> restored =
      std::move(decoded).value();

  if (scope != nullptr) {
    // The checkpoint store puts `scope + '#'` first in its keys (see
    // AppendGlobalFingerprint), so a prefix test selects exactly one
    // cluster scope's warm state — the '#' stops "default" from also
    // matching a "default2" scope.
    const std::string prefix = *scope + "#";
    restored.erase(
        std::remove_if(
            restored.begin(), restored.end(),
            [&prefix](const std::shared_ptr<const EstimatorCheckpoint>& c) {
              return c->key.compare(0, prefix.size(), prefix) != 0;
            }),
        restored.end());
  }

  checkpoints->Import(restored);
  if (stats != nullptr) {
    stats->checkpoints = restored.size();
    stats->bytes = file.size() - kHeaderSize;
  }
  return Status::Ok();
}

}  // namespace

Status LoadWarmSnapshot(const std::string& path,
                        PrefixCheckpointStore* checkpoints,
                        SnapshotStats* stats) {
  return LoadWarmSnapshotImpl(path, nullptr, checkpoints, stats);
}

Status LoadWarmSnapshotForScope(const std::string& path,
                                const std::string& scope,
                                PrefixCheckpointStore* checkpoints,
                                SnapshotStats* stats) {
  return LoadWarmSnapshotImpl(path, &scope, checkpoints, stats);
}

}  // namespace dagperf
