#include "model/incremental.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <mutex>
#include <numeric>

#include "obs/metrics.h"

namespace dagperf {

namespace {

/// incremental.* metric handles (obs/metrics.h), mirroring the store's
/// internal stats for `--metrics-json` and the serve dashboards.
struct IncrementalMetrics {
  obs::Counter& prefix_hits;
  obs::Counter& prefix_misses;
  obs::Counter& checkpoints_stored;
  obs::Counter& store_rejected;
  obs::Histogram& resume_depth;

  IncrementalMetrics()
      : prefix_hits(obs::MetricsRegistry::Default().GetCounter(
            "incremental.prefix_hits")),
        prefix_misses(obs::MetricsRegistry::Default().GetCounter(
            "incremental.prefix_misses")),
        checkpoints_stored(obs::MetricsRegistry::Default().GetCounter(
            "incremental.checkpoints_stored")),
        store_rejected(obs::MetricsRegistry::Default().GetCounter(
            "incremental.store_rejected")),
        resume_depth(obs::MetricsRegistry::Default().GetHistogram(
            "incremental.resume_depth")) {}
};

IncrementalMetrics& Metrics() {
  static IncrementalMetrics* metrics = new IncrementalMetrics();
  return *metrics;
}

/// Appends the raw bit pattern of a double — exact, no formatting loss.
void AppendBits(std::string& out, double value) {
  char bits[sizeof(double)];
  std::memcpy(bits, &value, sizeof(double));
  out.append(bits, sizeof(double));
}

void AppendInt(std::string& out, std::int64_t value) {
  char bits[sizeof(std::int64_t)];
  std::memcpy(bits, &value, sizeof(std::int64_t));
  out.append(bits, sizeof(std::int64_t));
}

/// One step of the key digest: xor in a word, then a multiply-xorshift.
std::uint64_t Mix(std::uint64_t h, std::uint64_t value) {
  h ^= value;
  h *= 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 32);
}

constexpr std::size_t kDigestBytes = sizeof(std::uint64_t);

}  // namespace

std::size_t EstimatorCheckpoint::ByteSize() const {
  return ByteSizeFor(key.size(), done.size(), jobs.size(), stage_state.size(),
                     waves.size(), states.size(), running_pool.size(),
                     stages.size());
}

std::size_t EstimatorCheckpoint::ByteSizeFor(
    std::size_t key_bytes, std::size_t done, std::size_t jobs,
    std::size_t stage_states, std::size_t waves, std::size_t states,
    std::size_t running, std::size_t stages) {
  return sizeof(EstimatorCheckpoint) + key_bytes + done * sizeof(JobId) +
         jobs * sizeof(JobId) + stage_states * sizeof(StageDynState) +
         waves * sizeof(WaveState) + states * sizeof(StateEstimate) +
         running * sizeof(RunningStageEstimate) +
         stages * sizeof(StageSpanEstimate);
}

PrefixCheckpointStore::PrefixCheckpointStore()
    : PrefixCheckpointStore(Options{}) {}

PrefixCheckpointStore::PrefixCheckpointStore(Options options)
    : options_(options) {}

void PrefixCheckpointStore::AppendGlobalFingerprint(
    const std::string& scope, const ClusterSpec& cluster,
    const SchedulerConfig& scheduler, const EstimatorOptions& options,
    std::string* out) {
  *out += scope;
  *out += '#';
  AppendInt(*out, cluster.num_nodes);
  AppendInt(*out, cluster.node.cores);
  AppendBits(*out, cluster.node.memory.value());
  const ResourceVector capacities = cluster.node.Capacities();
  for (double capacity : capacities.values) AppendBits(*out, capacity);
  AppendBits(*out, scheduler.vcores_per_core);
  AppendInt(*out, scheduler.max_tasks_per_node);
  *out += static_cast<char>(options.wave_model);
  *out += options.skew_aware ? '\1' : '\0';
  *out += options.attribute_bottlenecks ? '\1' : '\0';
  AppendBits(*out, options.node_speed_cv);
  *out += '#';
}

void PrefixCheckpointStore::AppendJobFingerprint(const DagWorkflow& flow,
                                                 JobId id, std::string* out) {
  // The bytes are precomputed at DagBuilder::Build() time (the flow is
  // immutable, the hot paths read them on every estimate) — see
  // DagWorkflow::job_fingerprint for the layout.
  out->append(flow.job_fingerprint(id));
}

struct PrefixCheckpointStore::KeyParts {
  const std::string* global_fp = nullptr;
  const DagWorkflow* flow = nullptr;
  const JobId* done = nullptr;
  std::size_t done_count = 0;
  /// Activated jobs (every parent done), ascending.
  std::vector<JobId> activated;
  std::uint64_t digest = 0;
  /// Bytes of the written key.
  std::size_t size = 0;

  /// Describes the key of boundary `done` of `flow`; false when a done id
  /// is out of range. `global_hash` is std::hash of `global`.
  bool Init(const std::string& global, std::size_t global_hash,
            const DagWorkflow& dag, const JobId* done_ids, std::size_t count) {
    global_fp = &global;
    flow = &dag;
    done = done_ids;
    done_count = count;
    const int n = dag.num_jobs();
    done_mark.assign(static_cast<std::size_t>(n), 0);
    digest = Mix(global_hash, count);
    for (std::size_t i = 0; i < count; ++i) {
      if (done_ids[i] < 0 || done_ids[i] >= n) return false;
      done_mark[static_cast<std::size_t>(done_ids[i])] = 1;
      digest = Mix(digest, static_cast<std::uint64_t>(done_ids[i]));
    }
    size = global.size() + sizeof(std::int64_t) * (1 + count) + 1 + kDigestBytes;
    activated.clear();
    for (JobId id = 0; id < n; ++id) {
      bool ready = true;
      for (JobId parent : dag.parents(id)) {
        if (!done_mark[static_cast<std::size_t>(parent)]) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      activated.push_back(id);
      size += sizeof(std::int64_t) + dag.job_fingerprint(id).size() + 1;
      digest = Mix(Mix(digest, static_cast<std::uint64_t>(id)),
                   dag.job_fingerprint_hash(id));
    }
    return true;
  }

  /// Emits the key's bytes in order through `sink(data, size) -> bool`,
  /// stopping at the first false; returns whether every call was true.
  template <typename Sink>
  bool Write(Sink&& sink) const {
    if (!WriteBoundary(sink)) return false;
    for (JobId id : activated) {
      const std::string& fp = flow->job_fingerprint(id);
      if (!Word(sink, id) || !sink(fp.data(), fp.size()) || !sink("|", 1)) {
        return false;
      }
    }
    return Word(sink, static_cast<std::int64_t>(digest));
  }

  /// Emits the key's first part: global fingerprint, done set, '#'.
  template <typename Sink>
  bool WriteBoundary(Sink&& sink) const {
    if (!sink(global_fp->data(), global_fp->size())) return false;
    if (!Word(sink, static_cast<std::int64_t>(done_count))) return false;
    for (std::size_t i = 0; i < done_count; ++i) {
      if (!Word(sink, done[i])) return false;
    }
    return sink("#", 1);
  }

 private:
  template <typename Sink>
  static bool Word(Sink& sink, std::int64_t value) {
    char bits[sizeof(value)];
    std::memcpy(bits, &value, sizeof(bits));
    return sink(bits, sizeof(bits));
  }

  std::vector<unsigned char> done_mark;
};

std::size_t PrefixCheckpointStore::KeyHash::operator()(
    const std::string& key) const {
  if (key.size() < kDigestBytes) return std::hash<std::string>()(key);
  std::uint64_t digest;
  std::memcpy(&digest, key.data() + key.size() - kDigestBytes, kDigestBytes);
  return static_cast<std::size_t>(digest);
}

std::size_t PrefixCheckpointStore::KeyHash::operator()(
    const KeyParts& parts) const {
  return static_cast<std::size_t>(parts.digest);
}

bool PrefixCheckpointStore::KeyEqual::operator()(
    const KeyParts& parts, const Checkpoint& checkpoint) const {
  const std::string& key = checkpoint->key;
  if (key.size() != parts.size) return false;
  std::uint64_t digest;
  std::memcpy(&digest, key.data() + key.size() - kDigestBytes, kDigestBytes);
  if (digest != parts.digest) return false;
  const char* at = key.data();
  const auto matches = [&at](const char* data, std::size_t size) {
    if (std::memcmp(at, data, size) != 0) return false;
    at += size;
    return true;
  };
  // The capturing flow, or a copy of it: equal fingerprints, so with equal
  // global fingerprint and done set, the activated jobs and everything
  // after them are equal too.
  const auto& shared = parts.flow->shared_job_fingerprints();
  if (!checkpoint->job_fingerprints.owner_before(shared) &&
      !shared.owner_before(checkpoint->job_fingerprints) &&
      !checkpoint->job_fingerprints.expired()) {
    return parts.WriteBoundary(matches);
  }
  return parts.Write(matches);
}

bool PrefixCheckpointStore::BuildKey(const std::string& global_fp,
                                     const DagWorkflow& flow, const JobId* done,
                                     std::size_t done_count, std::string* out) {
  thread_local KeyParts parts;
  if (!parts.Init(global_fp, std::hash<std::string>()(global_fp), flow, done,
                  done_count)) {
    return false;
  }
  out->clear();
  out->reserve(parts.size);
  parts.Write([out](const char* data, std::size_t size) {
    out->append(data, size);
    return true;
  });
  return true;
}

std::shared_ptr<const EstimatorCheckpoint> PrefixCheckpointStore::Lookup(
    const DagWorkflow& flow, const std::string& global_fp) const {
  thread_local KeyParts parts;
  const std::size_t global_hash = std::hash<std::string>()(global_fp);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    // done_sets_ is ordered deepest-first, so the first key match is the
    // checkpoint with the most completed jobs — the maximal shared prefix.
    for (const std::vector<JobId>& done : done_sets_) {
      if (!parts.Init(global_fp, global_hash, flow, done.data(), done.size())) {
        continue;
      }
      const auto it = entries_.find(parts);
      if (it != entries_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        Metrics().prefix_hits.Add(1);
        return *it;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  Metrics().prefix_misses.Add(1);
  return nullptr;
}

bool PrefixCheckpointStore::HoldsCompleteResult(
    const DagWorkflow& flow, const std::string& global_fp) const {
  thread_local KeyParts parts;
  thread_local std::vector<JobId> all;
  all.resize(static_cast<std::size_t>(flow.num_jobs()));
  std::iota(all.begin(), all.end(), JobId{0});
  parts.Init(global_fp, std::hash<std::string>()(global_fp), flow, all.data(),
             all.size());
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return entries_.find(parts) != entries_.end();
}

bool PrefixCheckpointStore::Admits(const std::string& key, std::size_t bytes) {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  if (entries_.find(key) != entries_.end()) return false;
  if (bytes_ + bytes > options_.max_bytes) {
    CountRejectedFull();
    return false;
  }
  return true;
}

void PrefixCheckpointStore::CountRejectedFull() {
  rejected_full_.fetch_add(1, std::memory_order_relaxed);
  Metrics().store_rejected.Add(1);
}

void PrefixCheckpointStore::Insert(
    std::shared_ptr<const EstimatorCheckpoint> checkpoint) {
  const std::size_t size = checkpoint->ByteSize();
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (entries_.find(checkpoint->key) != entries_.end()) return;  // First wins.
  if (bytes_ + size > options_.max_bytes) {
    CountRejectedFull();
    return;
  }
  // Register the done set for probing, deepest-first with lexicographic
  // tie-break (a deterministic total order, so probe sequences do not depend
  // on insertion interleaving).
  const auto deeper = [](const std::vector<JobId>& a,
                         const std::vector<JobId>& b) {
    if (a.size() != b.size()) return a.size() > b.size();
    return a < b;
  };
  const auto it = std::lower_bound(done_sets_.begin(), done_sets_.end(),
                                   checkpoint->done, deeper);
  if (it == done_sets_.end() || *it != checkpoint->done) {
    done_sets_.insert(it, checkpoint->done);
  }
  bytes_ += size;
  entries_.insert(std::move(checkpoint));
  inserts_.fetch_add(1, std::memory_order_relaxed);
  Metrics().checkpoints_stored.Add(1);
}

void PrefixCheckpointStore::RecordResume(int states) const {
  resumed_states_.fetch_add(static_cast<std::uint64_t>(states),
                            std::memory_order_relaxed);
  Metrics().resume_depth.Record(static_cast<double>(states));
}

void PrefixCheckpointStore::Clear() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  entries_.clear();
  done_sets_.clear();
  bytes_ = 0;
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  inserts_.store(0, std::memory_order_relaxed);
  rejected_full_.store(0, std::memory_order_relaxed);
  resumed_states_.store(0, std::memory_order_relaxed);
}

std::vector<std::shared_ptr<const EstimatorCheckpoint>>
PrefixCheckpointStore::Export() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::shared_ptr<const EstimatorCheckpoint>> out;
  out.reserve(entries_.size());
  for (const auto& checkpoint : entries_) out.push_back(checkpoint);
  return out;
}

void PrefixCheckpointStore::Import(
    const std::vector<std::shared_ptr<const EstimatorCheckpoint>>& entries) {
  for (const auto& checkpoint : entries) Insert(checkpoint);
}

PrefixCheckpointStore::Stats PrefixCheckpointStore::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.resumed_states = resumed_states_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(mutex_);
  s.entries = entries_.size();
  s.bytes = bytes_;
  return s;
}

}  // namespace dagperf
