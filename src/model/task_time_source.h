#ifndef DAGPERF_MODEL_TASK_TIME_SOURCE_H_
#define DAGPERF_MODEL_TASK_TIME_SOURCE_H_

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "boe/boe_model.h"
#include "common/status.h"
#include "common/units.h"
#include "dag/dag_workflow.h"
#include "sim/sim_result.h"
#include "workload/job_profile.h"

namespace dagperf {

/// Parameters of a normal task-time distribution (Alg2-Normal input).
struct NormalParams {
  double mean = 0.0;
  double stddev = 0.0;
};

/// The concurrent execution context a task-time query refers to: every stage
/// running in the current workflow state with its per-node task population.
/// `query` indexes the stage being asked about.
struct EstimationContext {
  std::vector<ParallelStage> running;
  size_t query = 0;
};

/// Resource attribution of one task in a context — the data behind the
/// bottleneck-explain reports (model/explain.h). `busy` holds, per
/// resource, the seconds the resource is active while the task runs (the
/// time pushing the task's demand through its allocated share); dividing by
/// `work_time` gives the utilisation share, exactly 1.0 for the resource
/// that paces every sub-stage.
struct TaskAttribution {
  /// The arg-max of the BOE model: bottleneck of the task's longest
  /// sub-stage (paper §III's "the" bottleneck of the stage).
  Resource bottleneck = Resource::kCpu;
  ResourceVector busy;
  /// Modeled task work time (excludes any fixed container overhead).
  Duration work_time;

  /// Fraction of the task's work time resource `r` is active, in [0, 1].
  double UtilizationShare(Resource r) const {
    const double t = work_time.seconds();
    return t > 0 ? std::min(1.0, busy[r] / t) : 0.0;
  }
};

/// Supplies per-task execution-time estimates to the state-based workflow
/// estimator. Two families exist, matching the paper's methodology:
///
///  * BoeTaskTimeSource — the full analytical model (BOE), used when no
///    profile of the target execution exists (Figs. 4/6, Table II).
///  * ProfileTaskTimeSource — statistics of profiled task durations captured
///    at the same degree of parallelism, used in §V-C / Table III to isolate
///    the state-based machinery's error from task-level model error.
///
/// Thread safety contract: TaskTime()/TaskTimes()/TaskTimeDist() must be
/// safe to call concurrently and must be deterministic — the same context
/// always yields the same value, and TaskTimes() yields exactly the values
/// the per-query TaskTime() calls would. Implementations are therefore const
/// and read-only after construction (mutation such as AddProfile must happen
/// before the source is shared). The sweep engine's memo cache
/// (model/task_time_cache.h) additionally relies on determinism for its
/// bit-identical-results guarantee.
class TaskTimeSource {
 public:
  virtual ~TaskTimeSource() = default;

  /// Point estimate of one task's duration in the given context.
  virtual Duration TaskTime(const EstimationContext& context) const = 0;

  /// Point estimates for every running stage of the context at once:
  /// `(*out)[q]` equals TaskTime() with `context.query = q`, bit for bit;
  /// `context.query` itself is ignored. `*out` is resized to
  /// `context.running.size()` (capacity reused). The estimator prices each
  /// skew-unaware workflow state with one call, so a source whose queries
  /// share work (BOE solves the whole state at once) should override this.
  /// The default loops over TaskTime() on one per-thread context copy and
  /// allocates nothing once warm.
  virtual void TaskTimes(const EstimationContext& context,
                         std::vector<Duration>* out) const;

  /// Distribution estimate for skew-aware (Alg2) wave makespans. The default
  /// derives the spread from the stage's task-size CV around TaskTime().
  virtual NormalParams TaskTimeDist(const EstimationContext& context) const;

  /// Distribution estimates for every running stage at once, the skew-aware
  /// twin of TaskTimes(): `(*out)[q]` equals TaskTimeDist() with
  /// `context.query = q`, bit for bit; `context.query` is ignored and
  /// `*out` is resized to `context.running.size()`. The estimator prices
  /// each skew-aware state with one call. The default loops over
  /// TaskTimeDist() on one per-thread context copy.
  virtual void TaskTimeDists(const EstimationContext& context,
                             std::vector<NormalParams>* out) const;

  /// Resource attribution of the queried task: which resource bottlenecks
  /// it and how busy each resource is. nullopt when the source has no
  /// resource-level model (profiled durations carry no attribution).
  /// Queried by the estimator only when EstimatorOptions::
  /// attribute_bottlenecks is set — off the sweep hot path.
  virtual std::optional<TaskAttribution> Attribution(
      const EstimationContext& context) const {
    (void)context;
    return std::nullopt;
  }
};

/// Task times computed by the BOE model from stage profiles and the current
/// contention context. TaskTime(), the default TaskTimeDist() and
/// TaskTimeDists() answer through TaskTimes(), so every solve crosses the
/// `model.task_time` chaos seam (docs/robustness.md) exactly once.
class BoeTaskTimeSource : public TaskTimeSource {
 public:
  /// `fixed_overhead` is added to every task (container startup cost — a
  /// constant any profiling pass measures trivially).
  explicit BoeTaskTimeSource(const BoeModel& model,
                             Duration fixed_overhead = Duration(0));

  Duration TaskTime(const EstimationContext& context) const override;

  /// One BOE solve for all running stages of the state.
  void TaskTimes(const EstimationContext& context,
                 std::vector<Duration>* out) const override;

  /// One BOE solve too: each stage's spread is its task-size CV around the
  /// solved point estimate, as in the default TaskTimeDist().
  void TaskTimeDists(const EstimationContext& context,
                     std::vector<NormalParams>* out) const override;

  /// Full BOE attribution: bottleneck = the model's arg-max for the queried
  /// stage; busy seconds = per-resource operation times summed across the
  /// task's sub-stages.
  std::optional<TaskAttribution> Attribution(
      const EstimationContext& context) const override;

 private:
  const BoeModel& model_;
  Duration fixed_overhead_;
};

/// Which statistic of the profiled sample a point query returns.
enum class ProfileStatistic { kMean, kMedian };

/// Task times looked up from a profile of observed durations, keyed by stage
/// name. Queries for unknown stages abort: the estimator must only be run on
/// workflows the profile covers.
///
/// Profiles are *contention-matched* when built via FromSimulation (the
/// paper's §V-C methodology: "task execution time profiles with the
/// identical degree of parallelism for each stage"): task durations are
/// additionally bucketed by the set of stages that were running when the
/// task executed, and a query is answered from the bucket matching its
/// EstimationContext, falling back to the stage's global statistics when no
/// matching bucket exists.
class ProfileTaskTimeSource : public TaskTimeSource {
 public:
  explicit ProfileTaskTimeSource(ProfileStatistic statistic);

  /// Records a sample of observed task durations for `stage_name` (global
  /// bucket).
  void AddProfile(const std::string& stage_name, std::vector<double> durations);

  /// Records durations observed while exactly `running` (sorted stage
  /// names) were executing.
  void AddContextProfile(const std::vector<std::string>& running,
                         const std::string& stage_name,
                         std::vector<double> durations);

  /// Profiles every stage of `flow` from a simulated (or otherwise
  /// measured) execution, with per-state contention buckets.
  static Result<ProfileTaskTimeSource> FromSimulation(const DagWorkflow& flow,
                                                      const SimResult& result,
                                                      ProfileStatistic statistic);

  Duration TaskTime(const EstimationContext& context) const override;
  NormalParams TaskTimeDist(const EstimationContext& context) const override;

  bool HasProfile(const std::string& stage_name) const;

 private:
  struct Entry {
    double mean = 0.0;
    double median = 0.0;
    double stddev = 0.0;
  };
  /// Best entry for the query: contention-matched bucket if present,
  /// otherwise the stage's global statistics.
  const Entry& Lookup(const EstimationContext& context) const;
  /// Rebuilds into `*out` the contention-bucket key of `stage_name` when the
  /// stages named in `running` run together: the sorted names, each
  /// followed by '|', then '\0' and the stage name. Sorts `running`.
  static void ContextKeyTo(std::vector<const std::string*>& running,
                           const std::string& stage_name, std::string* out);

  ProfileStatistic statistic_;
  std::map<std::string, Entry> profiles_;
  /// ContextKeyTo(running set, stage name) -> stats.
  std::map<std::string, Entry> context_profiles_;
};

}  // namespace dagperf

#endif  // DAGPERF_MODEL_TASK_TIME_SOURCE_H_
