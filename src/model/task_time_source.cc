#include "model/task_time_source.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/stats.h"
#include "resilience/fault.h"

namespace dagperf {

namespace {

/// Chaos seam (latency-only: TaskTime has no error channel, so injected
/// error plans surface at service.execute instead — see docs/robustness.md).
/// model.task_time delays each BOE solve, wherever it is asked for: a serve
/// estimate, a memo miss in a sweep, or a direct library call.
resilience::FaultPoint& TaskTimeFault() {
  static resilience::FaultPoint& point =
      resilience::FaultInjector::Default().GetPoint("model.task_time");
  return point;
}

}  // namespace

NormalParams TaskTimeSource::TaskTimeDist(const EstimationContext& context) const {
  const double mean = TaskTime(context).seconds();
  DAGPERF_CHECK(context.query < context.running.size());
  const double cv = context.running[context.query].stage->task_size_cv;
  return {mean, mean * cv};
}

void TaskTimeSource::TaskTimeDists(const EstimationContext& context,
                                   std::vector<NormalParams>* out) const {
  static thread_local EstimationContext query;
  query.running = context.running;
  out->resize(context.running.size());
  for (size_t q = 0; q < context.running.size(); ++q) {
    query.query = q;
    (*out)[q] = TaskTimeDist(query);
  }
}

void TaskTimeSource::TaskTimes(const EstimationContext& context,
                               std::vector<Duration>* out) const {
  // Per-thread query context, so a warm call copies the running set into
  // reused capacity instead of allocating.
  static thread_local EstimationContext query;
  query.running = context.running;
  out->resize(context.running.size());
  for (size_t q = 0; q < context.running.size(); ++q) {
    query.query = q;
    (*out)[q] = TaskTime(query);
  }
}

BoeTaskTimeSource::BoeTaskTimeSource(const BoeModel& model, Duration fixed_overhead)
    : model_(model), fixed_overhead_(fixed_overhead) {}

Duration BoeTaskTimeSource::TaskTime(const EstimationContext& context) const {
  DAGPERF_CHECK(context.query < context.running.size());
  static thread_local std::vector<Duration> times;
  TaskTimes(context, &times);
  return times[context.query];
}

void BoeTaskTimeSource::TaskTimes(const EstimationContext& context,
                                  std::vector<Duration>* out) const {
  (void)TaskTimeFault().Evaluate();
  // Duration-only fast path: bit-identical to EstimateParallel's durations
  // without materialising the per-operation breakdown (Attribution still
  // pays for the full estimate, but only runs when attribution is on).
  static thread_local std::vector<double> durations;
  model_.EstimateDurations(context.running, &durations);
  out->resize(durations.size());
  for (size_t q = 0; q < durations.size(); ++q) {
    (*out)[q] = Duration(durations[q]) + fixed_overhead_;
  }
}

void BoeTaskTimeSource::TaskTimeDists(const EstimationContext& context,
                                      std::vector<NormalParams>* out) const {
  static thread_local std::vector<Duration> times;
  TaskTimes(context, &times);
  out->resize(times.size());
  for (size_t q = 0; q < times.size(); ++q) {
    const double mean = times[q].seconds();
    (*out)[q] = {mean, mean * context.running[q].stage->task_size_cv};
  }
}

std::optional<TaskAttribution> BoeTaskTimeSource::Attribution(
    const EstimationContext& context) const {
  DAGPERF_CHECK(context.query < context.running.size());
  const std::vector<TaskEstimate> estimates = model_.EstimateParallel(context.running);
  const TaskEstimate& task = estimates[context.query];
  TaskAttribution attribution;
  attribution.bottleneck = task.bottleneck;
  attribution.work_time = task.duration;
  for (const SubStageEstimate& substage : task.substages) {
    for (const OpEstimate& op : substage.ops) {
      if (op.time.is_infinite()) continue;
      attribution.busy[op.resource] += op.time.seconds();
    }
  }
  return attribution;
}

ProfileTaskTimeSource::ProfileTaskTimeSource(ProfileStatistic statistic)
    : statistic_(statistic) {}

void ProfileTaskTimeSource::AddProfile(const std::string& stage_name,
                                       std::vector<double> durations) {
  DAGPERF_CHECK_MSG(!durations.empty(), "empty profile sample");
  const SampleStats stats = ComputeStats(durations);
  profiles_[stage_name] = Entry{stats.mean, stats.median, stats.stddev};
}

void ProfileTaskTimeSource::AddContextProfile(
    const std::vector<std::string>& running, const std::string& stage_name,
    std::vector<double> durations) {
  DAGPERF_CHECK_MSG(!durations.empty(), "empty context profile sample");
  std::vector<const std::string*> names;
  for (const auto& name : running) names.push_back(&name);
  std::string key;
  ContextKeyTo(names, stage_name, &key);
  const SampleStats stats = ComputeStats(durations);
  context_profiles_[key] = Entry{stats.mean, stats.median, stats.stddev};
}

void ProfileTaskTimeSource::ContextKeyTo(std::vector<const std::string*>& running,
                                         const std::string& stage_name,
                                         std::string* out) {
  std::sort(running.begin(), running.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  out->clear();
  for (const std::string* name : running) {
    *out += *name;
    *out += '|';
  }
  *out += '\0';
  *out += stage_name;
}

namespace {

/// Pooled within-wave standard deviation: tasks dispatched at the same
/// instant (wave-mates) run under identical contention, so their dispersion
/// is the skew component Alg2-Normal should model. The raw sample stddev
/// also absorbs cross-state contention shifts, which would wrongly inflate
/// every wave-max estimate.
double WithinWaveStddev(const std::vector<TaskRecord>& tasks, JobId job,
                        StageKind stage) {
  std::map<long long, std::pair<double, std::vector<double>>> groups;
  for (const auto& t : tasks) {
    if (t.job != job || t.stage != stage) continue;
    const long long key = llround(t.start * 100.0);  // 10 ms start buckets.
    groups[key].second.push_back(t.duration());
  }
  double ss = 0.0;
  size_t n = 0;
  for (auto& [key, group] : groups) {
    const std::vector<double>& durations = group.second;
    double mean = 0.0;
    for (double d : durations) mean += d;
    mean /= static_cast<double>(durations.size());
    for (double d : durations) ss += (d - mean) * (d - mean);
    n += durations.size();
  }
  return n > 0 ? std::sqrt(ss / static_cast<double>(n)) : 0.0;
}

}  // namespace

Result<ProfileTaskTimeSource> ProfileTaskTimeSource::FromSimulation(
    const DagWorkflow& flow, const SimResult& result, ProfileStatistic statistic) {
  ProfileTaskTimeSource source(statistic);
  for (JobId id = 0; id < flow.num_jobs(); ++id) {
    const JobProfile& job = flow.job(id);
    const std::vector<double> map_durations = result.TaskDurations(id, StageKind::kMap);
    if (map_durations.empty()) {
      return Status::FailedPrecondition(job.map.name + ": no profiled map tasks");
    }
    source.AddProfile(job.map.name, map_durations);
    source.profiles_[job.map.name].stddev =
        WithinWaveStddev(result.tasks(), id, StageKind::kMap);
    if (job.has_reduce()) {
      const std::vector<double> reduce_durations =
          result.TaskDurations(id, StageKind::kReduce);
      if (reduce_durations.empty()) {
        return Status::FailedPrecondition(job.reduce->name +
                                          ": no profiled reduce tasks");
      }
      source.AddProfile(job.reduce->name, reduce_durations);
      source.profiles_[job.reduce->name].stddev =
          WithinWaveStddev(result.tasks(), id, StageKind::kReduce);
    }
  }

  // Contention buckets: durations of tasks attributed to each workflow
  // state, keyed by the names of the stages running in that state. States
  // with the same running set pool their samples.
  const auto stage_name = [&flow](JobId id, StageKind kind) -> const std::string& {
    return kind == StageKind::kMap ? flow.job(id).map.name
                                   : flow.job(id).reduce->name;
  };
  // Bucket key -> (stage name, pooled durations).
  std::map<std::string, std::pair<std::string, std::vector<double>>> buckets;
  std::vector<const std::string*> running;
  std::string key;
  for (const auto& state : result.states()) {
    running.clear();
    for (const auto& [id, kind] : state.running) running.push_back(&stage_name(id, kind));
    for (const auto& [id, kind] : state.running) {
      const std::vector<double> durations =
          result.TaskDurationsInState(id, kind, state.index);
      if (durations.empty()) continue;
      ContextKeyTo(running, stage_name(id, kind), &key);
      auto& bucket = buckets[key];
      bucket.first = stage_name(id, kind);
      bucket.second.insert(bucket.second.end(), durations.begin(), durations.end());
    }
  }
  for (auto& [bucket_key, bucket] : buckets) {
    const SampleStats stats = ComputeStats(bucket.second);
    Entry entry{stats.mean, stats.median, stats.stddev};
    // The contention bucket pins the level; the spread still comes from the
    // stage's within-wave skew, rescaled to the bucket's mean.
    const auto global = source.profiles_.find(bucket.first);
    if (global != source.profiles_.end() && global->second.mean > 0) {
      entry.stddev = global->second.stddev * stats.mean / global->second.mean;
    }
    source.context_profiles_[bucket_key] = entry;
  }
  return source;
}

bool ProfileTaskTimeSource::HasProfile(const std::string& stage_name) const {
  return profiles_.count(stage_name) > 0;
}

const ProfileTaskTimeSource::Entry& ProfileTaskTimeSource::Lookup(
    const EstimationContext& context) const {
  DAGPERF_CHECK(context.query < context.running.size());
  const std::string& name = context.running[context.query].stage->name;
  // Per-thread key scratch: a warm lookup allocates nothing.
  static thread_local std::vector<const std::string*> running;
  static thread_local std::string key;
  running.clear();
  for (const auto& ps : context.running) running.push_back(&ps.stage->name);
  ContextKeyTo(running, name, &key);
  const auto ctx_it = context_profiles_.find(key);
  if (ctx_it != context_profiles_.end()) return ctx_it->second;
  auto it = profiles_.find(name);
  DAGPERF_CHECK_MSG(it != profiles_.end(), name.c_str());
  return it->second;
}

Duration ProfileTaskTimeSource::TaskTime(const EstimationContext& context) const {
  const Entry& entry = Lookup(context);
  return Duration(statistic_ == ProfileStatistic::kMean ? entry.mean : entry.median);
}

NormalParams ProfileTaskTimeSource::TaskTimeDist(
    const EstimationContext& context) const {
  const Entry& entry = Lookup(context);
  return {entry.mean, entry.stddev};
}

}  // namespace dagperf
