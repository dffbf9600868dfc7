#include "model/task_time_cache.h"

#include <cstring>
#include <mutex>

#include "common/check.h"
#include "obs/metrics.h"
#include "resilience/fault.h"

namespace dagperf {

namespace {

/// Chaos seam (latency-only, like model.task_time in task_time_source.cc):
/// memo.insert delays between compute and store, widening the insert-race
/// window the memo's last-write-wins path must tolerate.
resilience::FaultPoint& MemoInsertFault() {
  static resilience::FaultPoint& point =
      resilience::FaultInjector::Default().GetPoint("memo.insert");
  return point;
}

/// Registry mirrors of the memo's internal stats, so `dagperf
/// --metrics-json` and the sweep thread pool's dashboards see cache
/// behaviour without plumbing a memo pointer around. Aggregated across all
/// memo instances in the process.
struct MemoMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& insert_races;

  MemoMetrics()
      : hits(obs::MetricsRegistry::Default().GetCounter("memo.hits")),
        misses(obs::MetricsRegistry::Default().GetCounter("memo.misses")),
        insert_races(
            obs::MetricsRegistry::Default().GetCounter("memo.insert_races")) {}
};

MemoMetrics& Metrics() {
  static MemoMetrics* metrics = new MemoMetrics();
  return *metrics;
}

/// Appends the raw bit pattern of a double — exact, no formatting loss.
void AppendBits(std::string& out, double value) {
  char bits[sizeof(double)];
  std::memcpy(bits, &value, sizeof(double));
  out.append(bits, sizeof(double));
}

void AppendStage(std::string& out, const ParallelStage& ps) {
  const StageProfile& stage = *ps.stage;
  out += stage.name;
  out += '\0';
  out += static_cast<char>(stage.kind);
  AppendBits(out, static_cast<double>(stage.num_tasks));
  AppendBits(out, stage.task_size_cv);
  AppendBits(out, stage.slot.vcores);
  AppendBits(out, stage.slot.memory.value());
  for (const SubStageProfile& sub : stage.substages) {
    for (double demand : sub.demand.values) AppendBits(out, demand);
    out += ';';
  }
  AppendBits(out, ps.tasks_per_node);
  out += '|';
}

/// Rebuilds into `*out` every byte of the memo key except the trailing
/// query index, which AppendBits(static_cast<double>(query)) completes.
void ContextPrefixTo(const std::string& scope, const EstimationContext& context,
                     std::string* out) {
  std::string& key = *out;
  key.clear();
  key.reserve(scope.size() + 1 + context.running.size() * 96);
  key += scope;
  key += '#';
  for (const ParallelStage& ps : context.running) AppendStage(key, ps);
}

}  // namespace

std::string TaskTimeMemo::Fingerprint(const std::string& scope,
                                      const EstimationContext& context) {
  std::string key;
  FingerprintTo(scope, context, &key);
  return key;
}

void TaskTimeMemo::FingerprintTo(const std::string& scope,
                                 const EstimationContext& context,
                                 std::string* out) {
  ContextPrefixTo(scope, context, out);
  AppendBits(*out, static_cast<double>(context.query));
}

TaskTimeMemo::Stats TaskTimeMemo::stats() const {
  Stats s;
  for (const Shard& shard : shards_) {
    s.hits += shard.hits.load(std::memory_order_relaxed);
    s.misses += shard.misses.load(std::memory_order_relaxed);
    s.insert_races += shard.insert_races.load(std::memory_order_relaxed);
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    s.entries += shard.entries.size();
  }
  return s;
}

MemoizedTaskTimeSource::MemoizedTaskTimeSource(const TaskTimeSource& base,
                                               TaskTimeMemo* memo, std::string scope)
    : base_(base), memo_(memo), scope_(std::move(scope)) {}

void MemoizedTaskTimeSource::CountHit(TaskTimeMemo::Shard& shard) {
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  Metrics().hits.Add(1);
}

void MemoizedTaskTimeSource::CountMiss(TaskTimeMemo::Shard& shard) {
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  Metrics().misses.Add(1);
}

Duration MemoizedTaskTimeSource::TaskTime(const EstimationContext& context) const {
  // Served by the batched path: a miss prices and stores the whole state.
  // The query is read first, in case the wrapped source reuses `context`.
  const size_t query = context.query;
  DAGPERF_CHECK(query < context.running.size());
  static thread_local std::vector<Duration> times;
  TaskTimes(context, &times);
  return times[query];
}

template <typename T>
void MemoizedTaskTimeSource::Batched(
    const EstimationContext& context, std::vector<T>* out,
    bool TaskTimeMemo::Entry::*has, T TaskTimeMemo::Entry::*value,
    void (TaskTimeSource::*solve)(const EstimationContext&, std::vector<T>*)
        const) const {
  // The k per-query keys share every byte but the trailing query index, so
  // the context is serialised once and each probe rewrites only the tail.
  static thread_local std::string key;
  const size_t k = context.running.size();
  out->resize(k);
  ContextPrefixTo(scope_, context, &key);
  size_t prefix = key.size();
  std::vector<size_t> missing;  // Stays empty (no allocation) when warm.
  for (size_t q = 0; q < k; ++q) {
    key.resize(prefix);
    AppendBits(key, static_cast<double>(q));
    TaskTimeMemo::Shard& shard = memo_->ShardFor(key);
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end() && it->second.*has) {
      CountHit(shard);
      (*out)[q] = it->second.*value;
    } else {
      CountMiss(shard);
      missing.push_back(q);
    }
  }
  if (missing.empty()) return;

  // One solve prices the whole state; every missing key is filled from it.
  // The solve lands in a private buffer: `*out` may be a per-thread buffer
  // that a memoised source further down reuses.
  std::vector<T> computed;
  (base_.*solve)(context, &computed);
  (void)MemoInsertFault().Evaluate();
  out->assign(computed.begin(), computed.end());
  // The wrapped source may itself be memoised and reuse this thread's key
  // buffer, so the prefix is rebuilt rather than trusted.
  ContextPrefixTo(scope_, context, &key);
  prefix = key.size();
  for (const size_t q : missing) {
    key.resize(prefix);
    AppendBits(key, static_cast<double>(q));
    TaskTimeMemo::Shard& shard = memo_->ShardFor(key);
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    TaskTimeMemo::Entry& entry = shard.entries[key];
    // A racing thread may have stored first; the source is deterministic, so
    // both computed the same bits and either store is correct.
    if (entry.*has) {
      shard.insert_races.fetch_add(1, std::memory_order_relaxed);
      Metrics().insert_races.Add(1);
    }
    entry.*value = computed[q];
    entry.*has = true;
  }
}

void MemoizedTaskTimeSource::TaskTimes(const EstimationContext& context,
                                       std::vector<Duration>* out) const {
  Batched(context, out, &TaskTimeMemo::Entry::has_time,
          &TaskTimeMemo::Entry::time, &TaskTimeSource::TaskTimes);
}

void MemoizedTaskTimeSource::TaskTimeDists(
    const EstimationContext& context, std::vector<NormalParams>* out) const {
  Batched(context, out, &TaskTimeMemo::Entry::has_dist,
          &TaskTimeMemo::Entry::dist, &TaskTimeSource::TaskTimeDists);
}

NormalParams MemoizedTaskTimeSource::TaskTimeDist(
    const EstimationContext& context) const {
  static thread_local std::string key;
  TaskTimeMemo::FingerprintTo(scope_, context, &key);
  TaskTimeMemo::Shard& shard = memo_->ShardFor(key);
  {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end() && it->second.has_dist) {
      CountHit(shard);
      return it->second.dist;
    }
  }
  CountMiss(shard);
  const NormalParams dist = base_.TaskTimeDist(context);
  (void)MemoInsertFault().Evaluate();
  {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    TaskTimeMemo::Entry& entry = shard.entries[key];
    if (entry.has_dist) {
      shard.insert_races.fetch_add(1, std::memory_order_relaxed);
      Metrics().insert_races.Add(1);
    }
    entry.dist = dist;
    entry.has_dist = true;
  }
  return dist;
}

std::optional<TaskAttribution> MemoizedTaskTimeSource::Attribution(
    const EstimationContext& context) const {
  return base_.Attribution(context);
}

}  // namespace dagperf
