#include "model/incremental.h"

#include <algorithm>
#include <cstring>
#include <mutex>

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

bool PrefixCheckpointStore::BuildKey(const std::string& global_fp,
                                     const std::vector<std::string>& job_fps,
                                     const DagWorkflow& flow, const JobId* done,
                                     std::size_t done_count, std::string* out) {
  const int n = flow.num_jobs();
  thread_local std::vector<unsigned char> done_mark;
  done_mark.assign(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < done_count; ++i) {
    if (done[i] < 0 || done[i] >= n) return false;
    done_mark[static_cast<std::size_t>(done[i])] = 1;
  }

  out->clear();
  *out += global_fp;
  AppendInt(*out, static_cast<std::int64_t>(done_count));
  for (std::size_t i = 0; i < done_count; ++i) AppendInt(*out, done[i]);
  *out += '#';
  for (JobId id = 0; id < n; ++id) {
    bool activated = true;
    for (JobId parent : flow.parents(id)) {
      if (!done_mark[static_cast<std::size_t>(parent)]) {
        activated = false;
        break;
      }
    }
    if (!activated) continue;
    AppendInt(*out, id);
    *out += job_fps[static_cast<std::size_t>(id)];
    *out += '|';
  }
  return true;
}

std::shared_ptr<const EstimatorCheckpoint> PrefixCheckpointStore::Lookup(
    const DagWorkflow& flow, const std::string& global_fp,
    const std::vector<std::string>& job_fps) const {
  thread_local std::string key;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    // done_sets_ is ordered deepest-first, so the first key match is the
    // checkpoint with the most completed jobs — the maximal shared prefix.
    for (const std::vector<JobId>& done : done_sets_) {
      if (!BuildKey(global_fp, job_fps, flow, done.data(), done.size(), &key)) {
        continue;
      }
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        Metrics().prefix_hits.Add(1);
        return it->second;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  Metrics().prefix_misses.Add(1);
  return nullptr;
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
  entries_.emplace(checkpoint->key, std::move(checkpoint));
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
  for (const auto& [key, checkpoint] : entries_) out.push_back(checkpoint);
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
