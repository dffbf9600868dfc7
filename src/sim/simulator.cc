#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <vector>

#include "cluster/rate_solver.h"
#include "cluster/validate.h"
#include "common/check.h"
#include "common/rng.h"
#include "dag/validate.h"

namespace dagperf {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;

struct SimTask {
  int uid = 0;
  JobId job = 0;
  StageKind stage = StageKind::kMap;
  int index = 0;
  /// 1 for the original attempt, 2 for a speculative backup.
  int attempt = 1;
  int node = -1;
  double scale = 1.0;
  /// -1 while in the fixed startup phase, then the sub-stage index.
  int substage = -1;
  double startup_remaining = 0.0;
  /// Fraction of the current sub-stage left, in (0, 1].
  double remaining = 1.0;
  /// Sub-stage fractions per second (startup phase: wall-clock countdown).
  double rate = 0.0;
  double start = 0.0;
  bool done = false;
  /// Wall-clock bookkeeping for per-phase ground truth.
  double phase_entry = 0.0;
  double startup_s = 0.0;
  std::vector<double> substage_s;
};

struct StageRt {
  const StageProfile* profile = nullptr;
  bool schedulable = false;
  bool started = false;
  bool complete = false;
  int completed = 0;
  /// Attempts currently holding a container.
  int running_attempts = 0;
  double start_time = 0.0;
  double end_time = 0.0;
  std::vector<double> scales;
  /// Logical task indexes awaiting (re-)dispatch, FIFO.
  std::deque<int> pending_indexes;
  /// Logical tasks already completed (speculation: first attempt wins).
  std::vector<char> task_done;
  /// Logical tasks that already have a backup attempt.
  std::vector<char> speculated;
  /// Durations of completed tasks (for the speculation median).
  std::vector<double> completed_durations;

  int pending() const { return static_cast<int>(pending_indexes.size()); }
};

struct JobRt {
  const JobProfile* profile = nullptr;
  int unfinished_parents = 0;
  StageRt map;
  StageRt reduce;
  bool done = false;
  // Container usage for DRF dominant-share bookkeeping.
  double used_vcores = 0.0;
  double used_memory = 0.0;
};

struct NodeRt {
  /// Per-node speed multiplier applied to all resource capacities.
  double speed = 1.0;
  double last_update = 0.0;
  std::vector<int> tasks;  // uids
  double used_vcores = 0.0;
  double used_memory = 0.0;
  int used_slots = 0;
  double next_finish = kInf;
  bool dirty = false;
};

class SimRun {
 public:
  SimRun(const ClusterSpec& cluster, const SchedulerConfig& scheduler,
         const SimOptions& options, const DagWorkflow& flow)
      : cluster_(cluster),
        scheduler_(scheduler),
        options_(options),
        flow_(flow),
        rng_(options.seed),
        capacities_(cluster.node.Capacities()) {
    node_vcores_ = cluster_.node.cores * scheduler_.vcores_per_core;
    node_memory_ = cluster_.node.memory.value();
    total_vcores_ = node_vcores_ * cluster_.num_nodes;
    total_memory_ = node_memory_ * cluster_.num_nodes;
    per_task_caps_[Resource::kCpu] = 1.0;
  }

  Result<SimResult> Run();

 private:
  StageRt& stage_rt(JobId job, StageKind kind) {
    return kind == StageKind::kMap ? jobs_[job].map : jobs_[job].reduce;
  }

  void InitJobs();
  void MakeSchedulable(JobId job, StageKind kind);
  Status Dispatch();
  bool TryPreempt();
  int PickNode(const SlotDemand& demand) const;
  bool NodeFits(const NodeRt& node, const SlotDemand& demand) const;
  void Settle(int node_idx);
  void Recompute(int node_idx);
  void FinishSubStage(SimTask& task);
  void FailTask(SimTask& task);
  void CompleteTask(SimTask& task);
  /// Grants a container on `node_idx` to attempt `attempt` of the logical
  /// task `index` of (job_id, kind).
  void PlaceAttempt(JobId job_id, StageKind kind, int index, int attempt,
                    int node_idx);
  /// Releases an attempt's slot and marks it discarded (no record).
  void DiscardAttempt(SimTask& task);
  /// Puts the attempt's logical task back in the pending queue unless a
  /// sibling attempt still runs or the task already completed.
  void RequeueIfNoLiveAttempt(const SimTask& task);
  /// Kills still-running sibling attempts of (job, kind, index) except
  /// `winner_uid`.
  void KillSiblings(JobId job, StageKind kind, int index, int winner_uid);
  /// Launches backup attempts for stragglers (SimOptions::enable_speculation).
  void MaybeSpeculate();
  void CompleteStage(JobId job, StageKind kind);

  const ClusterSpec& cluster_;
  const SchedulerConfig& scheduler_;
  const SimOptions& options_;
  const DagWorkflow& flow_;
  Rng rng_;
  ResourceVector capacities_;
  ResourceVector per_task_caps_;

  double node_vcores_ = 0.0;
  double node_memory_ = 0.0;
  double total_vcores_ = 0.0;
  double total_memory_ = 0.0;

  double now_ = 0.0;
  std::vector<JobRt> jobs_;
  std::vector<NodeRt> nodes_;
  std::vector<SimTask> tasks_;
  int running_tasks_ = 0;
  int unfinished_jobs_ = 0;

  std::vector<TaskRecord> task_records_;
  std::vector<StageRecord> stage_records_;
  std::vector<UsageSegment> usage_segments_;
};

void SimRun::InitJobs() {
  const int n = flow_.num_jobs();
  jobs_.resize(n);
  unfinished_jobs_ = n;
  for (JobId id = 0; id < n; ++id) {
    JobRt& job = jobs_[id];
    job.profile = &flow_.job(id);
    job.unfinished_parents = static_cast<int>(flow_.parents(id).size());
    job.map.profile = &job.profile->map;
    if (job.profile->has_reduce()) job.reduce.profile = &*job.profile->reduce;
  }
  for (JobId id : flow_.Sources()) MakeSchedulable(id, StageKind::kMap);
}

void SimRun::MakeSchedulable(JobId job, StageKind kind) {
  StageRt& st = stage_rt(job, kind);
  DAGPERF_CHECK(st.profile != nullptr);
  st.schedulable = true;
  // Draw per-task demand scales. Map splits are uniform; reduce partitions
  // follow a log-normal with the profiled coefficient of variation,
  // normalised to preserve the stage's total volume.
  const int n = st.profile->num_tasks;
  st.scales.assign(n, 1.0);
  st.task_done.assign(n, 0);
  st.speculated.assign(n, 0);
  st.pending_indexes.clear();
  for (int i = 0; i < n; ++i) st.pending_indexes.push_back(i);
  const double cv = st.profile->task_size_cv;
  if (cv > 1e-9 && n > 1) {
    // Log-normal parameters for mean 1, coefficient of variation cv.
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = -0.5 * sigma2;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      st.scales[i] = rng_.LogNormal(mu, std::sqrt(sigma2));
      sum += st.scales[i];
    }
    const double norm = static_cast<double>(n) / sum;
    for (double& s : st.scales) s *= norm;
  }
}

bool SimRun::NodeFits(const NodeRt& node, const SlotDemand& demand) const {
  if (scheduler_.max_tasks_per_node > 0 &&
      node.used_slots + 1 > scheduler_.max_tasks_per_node) {
    return false;
  }
  return node.used_vcores + demand.vcores <= node_vcores_ + kEps &&
         node.used_memory + demand.memory.value() <= node_memory_ + kEps;
}

int SimRun::PickNode(const SlotDemand& demand) const {
  // Least-loaded placement: fewest running tasks, then most free vcores.
  int best = -1;
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    if (!NodeFits(nodes_[i], demand)) continue;
    if (best < 0 || nodes_[i].used_slots < nodes_[best].used_slots ||
        (nodes_[i].used_slots == nodes_[best].used_slots &&
         nodes_[i].used_vcores < nodes_[best].used_vcores)) {
      best = i;
    }
  }
  return best;
}

Status SimRun::Dispatch() {
  while (true) {
    // Candidate stages with pending tasks, ordered by the owning job's
    // dominant share (DRF): grant to the least-served job first.
    JobId best_job = -1;
    StageKind best_kind = StageKind::kMap;
    double best_share = kInf;
    for (JobId id = 0; id < flow_.num_jobs(); ++id) {
      for (StageKind kind : {StageKind::kMap, StageKind::kReduce}) {
        if (kind == StageKind::kReduce && !jobs_[id].profile->has_reduce()) continue;
        const StageRt& st =
            kind == StageKind::kMap ? jobs_[id].map : jobs_[id].reduce;
        if (!st.schedulable || st.complete) continue;
        if (st.pending_indexes.empty()) continue;
        const double share = std::max(jobs_[id].used_vcores / total_vcores_,
                                      jobs_[id].used_memory / total_memory_);
        if (share < best_share) {
          best_share = share;
          best_job = id;
          best_kind = kind;
        }
      }
    }
    if (best_job < 0) return Status::Ok();

    StageRt& st = stage_rt(best_job, best_kind);
    const SlotDemand& demand = st.profile->slot;
    if (demand.vcores > node_vcores_ + kEps ||
        demand.memory.value() > node_memory_ + kEps) {
      return Status::FailedPrecondition(
          st.profile->name + ": container demand exceeds node capacity");
    }
    const int node_idx = PickNode(demand);
    if (node_idx < 0) {
      // Cluster full. Other candidates share the same fate only if their
      // shape also fails everywhere; try the next-best candidate by simply
      // stopping — with homogeneous shapes (the common case) nothing fits.
      // A finer policy would skip just this stage; the approximation only
      // delays dispatch to the next event.
      return Status::Ok();
    }

    const int index = st.pending_indexes.front();
    st.pending_indexes.pop_front();
    PlaceAttempt(best_job, best_kind, index, /*attempt=*/1, node_idx);
  }
}

void SimRun::PlaceAttempt(JobId job_id, StageKind kind, int index, int attempt,
                          int node_idx) {
  StageRt& st = stage_rt(job_id, kind);
  const SlotDemand& demand = st.profile->slot;

  SimTask task;
  task.uid = static_cast<int>(tasks_.size());
  task.job = job_id;
  task.stage = kind;
  task.index = index;
  task.attempt = attempt;
  task.node = node_idx;
  task.scale = st.scales[index];
  task.startup_remaining = options_.task_startup_seconds;
  task.substage = task.startup_remaining > 0 ? -1 : 0;
  task.remaining = 1.0;
  task.start = now_;
  task.phase_entry = now_;

  Settle(node_idx);
  NodeRt& node = nodes_[node_idx];
  node.tasks.push_back(task.uid);
  node.used_slots += 1;
  node.used_vcores += demand.vcores;
  node.used_memory += demand.memory.value();
  node.dirty = true;
  jobs_[job_id].used_vcores += demand.vcores;
  jobs_[job_id].used_memory += demand.memory.value();

  st.running_attempts += 1;
  if (!st.started) {
    st.started = true;
    st.start_time = now_;
  }
  tasks_.push_back(task);
  ++running_tasks_;
}

bool SimRun::TryPreempt() {
  // Fair-share targets over every incomplete schedulable stage.
  struct Key {
    JobId job;
    StageKind kind;
  };
  std::vector<StageDemand> demands;
  std::vector<Key> keys;
  for (JobId id = 0; id < flow_.num_jobs(); ++id) {
    for (StageKind kind : {StageKind::kMap, StageKind::kReduce}) {
      if (kind == StageKind::kReduce && !jobs_[id].profile->has_reduce()) continue;
      const StageRt& st = kind == StageKind::kMap ? jobs_[id].map : jobs_[id].reduce;
      if (!st.schedulable || st.complete) continue;
      StageDemand d;
      d.slot = st.profile->slot;
      d.remaining_tasks = st.profile->num_tasks - st.completed;
      if (d.remaining_tasks <= 0) continue;
      demands.push_back(d);
      keys.push_back({id, kind});
    }
  }
  if (demands.size() < 2) return false;

  DrfAllocator allocator(cluster_, scheduler_);
  const std::vector<int> targets = allocator.Allocate(demands);

  bool starved = false;
  for (size_t i = 0; i < keys.size(); ++i) {
    const StageRt& st = stage_rt(keys[i].job, keys[i].kind);
    if (st.pending() > 0 && st.running_attempts < targets[i]) starved = true;
  }
  if (!starved) return false;

  // Victim: the stage most above its fair share.
  int victim = -1;
  int worst_overage = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const StageRt& st = stage_rt(keys[i].job, keys[i].kind);
    const int overage = st.running_attempts - targets[i];
    if (overage > worst_overage) {
      worst_overage = overage;
      victim = static_cast<int>(i);
    }
  }
  if (victim < 0) return false;

  // Kill the victim stage's newest container (least work lost).
  int victim_uid = -1;
  double newest_start = -1.0;
  for (const auto& task : tasks_) {
    if (task.done || task.job != keys[victim].job || task.stage != keys[victim].kind) {
      continue;
    }
    if (task.start > newest_start) {
      newest_start = task.start;
      victim_uid = task.uid;
    }
  }
  if (victim_uid < 0) return false;

  SimTask& task = tasks_[victim_uid];
  now_ = std::max(now_, nodes_[task.node].last_update);
  Settle(task.node);
  DiscardAttempt(task);
  RequeueIfNoLiveAttempt(task);
  return true;
}

void SimRun::DiscardAttempt(SimTask& task) {
  task.done = true;  // No TaskRecord is written for a discarded attempt.
  --running_tasks_;
  NodeRt& node = nodes_[task.node];
  node.tasks.erase(std::find(node.tasks.begin(), node.tasks.end(), task.uid));
  const SlotDemand& demand = stage_rt(task.job, task.stage).profile->slot;
  node.used_slots -= 1;
  node.used_vcores -= demand.vcores;
  node.used_memory -= demand.memory.value();
  node.dirty = true;
  jobs_[task.job].used_vcores -= demand.vcores;
  jobs_[task.job].used_memory -= demand.memory.value();
  stage_rt(task.job, task.stage).running_attempts -= 1;
}

void SimRun::RequeueIfNoLiveAttempt(const SimTask& task) {
  StageRt& st = stage_rt(task.job, task.stage);
  if (st.task_done[task.index]) return;  // Another attempt already won.
  for (const auto& other : tasks_) {
    if (!other.done && other.job == task.job && other.stage == task.stage &&
        other.index == task.index) {
      return;  // A sibling attempt is still running.
    }
  }
  st.pending_indexes.push_back(task.index);
  st.speculated[task.index] = 0;  // A fresh attempt may speculate again.
}

void SimRun::KillSiblings(JobId job, StageKind kind, int index, int winner_uid) {
  for (auto& other : tasks_) {
    if (other.done || other.uid == winner_uid) continue;
    if (other.job == job && other.stage == kind && other.index == index) {
      now_ = std::max(now_, nodes_[other.node].last_update);
      Settle(other.node);
      DiscardAttempt(other);
    }
  }
}

void SimRun::MaybeSpeculate() {
  for (JobId id = 0; id < flow_.num_jobs(); ++id) {
    for (StageKind kind : {StageKind::kMap, StageKind::kReduce}) {
      if (kind == StageKind::kReduce && !jobs_[id].profile->has_reduce()) continue;
      StageRt& st = stage_rt(id, kind);
      if (!st.schedulable || st.complete || !st.pending_indexes.empty()) continue;
      // Need a meaningful median to judge stragglers against.
      if (static_cast<int>(st.completed_durations.size()) * 4 <
          st.profile->num_tasks) {
        continue;
      }
      std::vector<double> durations = st.completed_durations;
      std::nth_element(durations.begin(), durations.begin() + durations.size() / 2,
                       durations.end());
      const double median = durations[durations.size() / 2];
      const double cutoff = options_.speculation_threshold * median;
      for (const auto& task : tasks_) {
        if (task.done || task.job != id || task.stage != kind) continue;
        if (task.attempt > 1 || st.speculated[task.index]) continue;
        if (st.task_done[task.index]) continue;
        if (now_ - task.start <= cutoff) continue;
        const int node_idx = PickNode(st.profile->slot);
        if (node_idx < 0) return;  // No free slot anywhere; stop trying.
        st.speculated[task.index] = 1;
        PlaceAttempt(id, kind, task.index, /*attempt=*/2, node_idx);
      }
    }
  }
}

void SimRun::Settle(int node_idx) {
  NodeRt& node = nodes_[node_idx];
  const double dt = now_ - node.last_update;
  if (dt > 0) {
    UsageSegment segment;
    segment.start = node.last_update;
    segment.end = now_;
    bool any_usage = false;
    for (int uid : node.tasks) {
      SimTask& task = tasks_[uid];
      if (task.substage < 0) {
        task.startup_remaining = std::max(0.0, task.startup_remaining - dt);
      } else if (task.rate == kInf) {
        task.remaining = 0.0;
      } else {
        const double progressed = std::min(task.remaining, task.rate * dt);
        task.remaining = std::max(0.0, task.remaining - task.rate * dt);
        const ResourceVector& demand =
            stage_rt(task.job, task.stage).profile->substages[task.substage].demand;
        for (Resource r : kAllResources) {
          if (demand[r] > 0) {
            segment.consumed[r] += demand[r] * task.scale * progressed;
            any_usage = true;
          }
        }
      }
    }
    if (any_usage) usage_segments_.push_back(std::move(segment));
  }
  node.last_update = now_;
}

void SimRun::Recompute(int node_idx) {
  NodeRt& node = nodes_[node_idx];
  std::vector<Flow> flows;
  std::vector<int> flow_uids;
  for (int uid : node.tasks) {
    const SimTask& task = tasks_[uid];
    if (task.substage < 0) continue;  // Startup phase: no resource demand.
    const StageProfile& profile = *stage_rt(task.job, task.stage).profile;
    Flow flow;
    flow.population = 1.0;
    flow.demand = profile.substages[task.substage].demand * task.scale;
    flow.per_task_cap = per_task_caps_;
    flows.push_back(flow);
    flow_uids.push_back(uid);
  }
  const std::vector<FlowRate> rates =
      SolveRates(capacities_ * node.speed, flows);
  for (size_t i = 0; i < flow_uids.size(); ++i) {
    tasks_[flow_uids[i]].rate = rates[i].progress_rate;
  }
  node.next_finish = kInf;
  for (int uid : node.tasks) {
    const SimTask& task = tasks_[uid];
    double finish;
    if (task.substage < 0) {
      finish = node.last_update + task.startup_remaining;
    } else if (task.rate == kInf) {
      finish = node.last_update;
    } else if (task.rate <= 0) {
      finish = kInf;
    } else {
      finish = node.last_update + task.remaining / task.rate;
    }
    node.next_finish = std::min(node.next_finish, finish);
  }
  node.dirty = false;
}

void SimRun::FinishSubStage(SimTask& task) {
  if (task.substage < 0) {
    task.startup_s = now_ - task.phase_entry;
    task.phase_entry = now_;
    task.substage = 0;
    task.remaining = 1.0;
    return;
  }
  // Fault injection: the attempt dies at a sub-stage boundary and the task
  // re-queues with all progress lost (MapReduce re-execution semantics).
  if (options_.task_failure_prob > 0 &&
      rng_.NextDouble() < options_.task_failure_prob) {
    FailTask(task);
    return;
  }
  task.substage_s.push_back(now_ - task.phase_entry);
  task.phase_entry = now_;
  const StageProfile& profile = *stage_rt(task.job, task.stage).profile;
  if (task.substage + 1 < static_cast<int>(profile.substages.size())) {
    task.substage += 1;
    task.remaining = 1.0;
    return;
  }
  CompleteTask(task);
}

void SimRun::FailTask(SimTask& task) {
  DiscardAttempt(task);
  RequeueIfNoLiveAttempt(task);
}

void SimRun::CompleteTask(SimTask& task) {
  StageRt& st = stage_rt(task.job, task.stage);
  if (st.task_done[task.index]) {
    // A sibling attempt won a same-instant race; this one is discarded.
    DiscardAttempt(task);
    return;
  }
  st.task_done[task.index] = 1;
  st.completed_durations.push_back(now_ - task.start);

  task.done = true;
  --running_tasks_;

  TaskRecord record;
  record.job = task.job;
  record.stage = task.stage;
  record.index = task.index;
  record.node = task.node;
  record.start = task.start;
  record.end = now_;
  record.startup_s = task.startup_s;
  record.substage_s = task.substage_s;
  task_records_.push_back(record);

  NodeRt& node = nodes_[task.node];
  node.tasks.erase(std::find(node.tasks.begin(), node.tasks.end(), task.uid));
  const SlotDemand& demand = stage_rt(task.job, task.stage).profile->slot;
  node.used_slots -= 1;
  node.used_vcores -= demand.vcores;
  node.used_memory -= demand.memory.value();
  node.dirty = true;
  jobs_[task.job].used_vcores -= demand.vcores;
  jobs_[task.job].used_memory -= demand.memory.value();
  st.running_attempts -= 1;

  if (options_.enable_speculation) {
    KillSiblings(task.job, task.stage, task.index, task.uid);
  }
  st.completed += 1;
  if (st.completed == st.profile->num_tasks) CompleteStage(task.job, task.stage);
}

void SimRun::CompleteStage(JobId job_id, StageKind kind) {
  StageRt& st = stage_rt(job_id, kind);
  st.complete = true;
  st.end_time = now_;

  StageRecord record;
  record.job = job_id;
  record.stage = kind;
  record.start = st.start_time;
  record.end = st.end_time;
  stage_records_.push_back(record);

  JobRt& job = jobs_[job_id];
  if (kind == StageKind::kMap && job.profile->has_reduce()) {
    MakeSchedulable(job_id, StageKind::kReduce);
    return;
  }
  job.done = true;
  --unfinished_jobs_;
  for (JobId child : flow_.children(job_id)) {
    if (--jobs_[child].unfinished_parents == 0) {
      MakeSchedulable(child, StageKind::kMap);
    }
  }
}

Result<SimResult> SimRun::Run() {
  nodes_.resize(cluster_.num_nodes);
  if (options_.node_speed_cv > 0) {
    // Log-normal with mean 1 and the configured coefficient of variation.
    const double sigma2 = std::log(1.0 + options_.node_speed_cv * options_.node_speed_cv);
    for (auto& node : nodes_) {
      node.speed = rng_.LogNormal(-0.5 * sigma2, std::sqrt(sigma2));
    }
  }
  InitJobs();
  Status st = Dispatch();
  if (!st.ok()) return st;
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    if (nodes_[i].dirty) Recompute(i);
  }
  if (running_tasks_ == 0) {
    return Status::FailedPrecondition(flow_.name() +
                                      ": no task could be scheduled at start");
  }

  while (running_tasks_ > 0) {
    // Next event: the earliest sub-stage/startup completion on any node.
    int node_idx = -1;
    double t_next = kInf;
    for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
      if (nodes_[i].next_finish < t_next) {
        t_next = nodes_[i].next_finish;
        node_idx = i;
      }
    }
    DAGPERF_CHECK_MSG(node_idx >= 0, "running tasks but no pending event");
    if (t_next > options_.max_sim_seconds) {
      return Status::Internal(flow_.name() + ": simulated time bound exceeded");
    }
    now_ = std::max(now_, t_next);
    Settle(node_idx);

    // Process every completion on this node at this instant; sub-stage
    // completions may cascade (e.g. zero-demand sub-stages finish at once).
    bool progressed = true;
    while (progressed) {
      progressed = false;
      // Iterate over a copy: CompleteTask mutates node.tasks.
      const std::vector<int> uids = nodes_[node_idx].tasks;
      for (int uid : uids) {
        SimTask& task = tasks_[uid];
        if (task.done) continue;
        if (task.substage < 0 && task.startup_remaining <= kEps) {
          FinishSubStage(task);
          nodes_[node_idx].dirty = true;
          progressed = true;
        } else if (task.substage >= 0 &&
                   (task.remaining <= kEps || task.rate == kInf)) {
          FinishSubStage(task);
          nodes_[node_idx].dirty = true;
          progressed = true;
        }
      }
      if (progressed) {
        // New sub-stages change the demand mix; re-solve before checking for
        // further instant completions (infinite-rate sub-stages).
        Settle(node_idx);
        Recompute(node_idx);
        // Instant follow-ups only when some rate is infinite.
        bool instant = false;
        for (int uid : nodes_[node_idx].tasks) {
          const SimTask& t = tasks_[uid];
          if (!t.done && t.substage >= 0 && t.rate == kInf) instant = true;
        }
        if (!instant) break;
      }
    }

    st = Dispatch();
    if (!st.ok()) return st;
    if (options_.enable_preemption) {
      int guard = cluster_.num_nodes * 64;
      while (TryPreempt()) {
        st = Dispatch();
        if (!st.ok()) return st;
        if (--guard <= 0) break;
      }
    }
    if (options_.enable_speculation) MaybeSpeculate();
    for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
      if (nodes_[i].dirty) Recompute(i);
    }

    if (running_tasks_ == 0 && unfinished_jobs_ > 0) {
      return Status::FailedPrecondition(flow_.name() +
                                        ": deadlock — jobs remain but no task runs");
    }
  }

  DAGPERF_CHECK(unfinished_jobs_ == 0);
  return SimResult(std::move(task_records_), std::move(stage_records_), now_,
                   std::move(usage_segments_),
                   capacities_ * static_cast<double>(cluster_.num_nodes));
}

}  // namespace

Simulator::Simulator(const ClusterSpec& cluster, const SchedulerConfig& scheduler,
                     const SimOptions& options)
    : cluster_(cluster), scheduler_(scheduler), options_(options) {
  ValidationReport report = ValidateClusterSpec(cluster_);
  if (!(scheduler_.vcores_per_core > 0)) {  // NaN-safe.
    report.Add("/scheduler/vcores_per_core",
               "must be positive, got " +
                   std::to_string(scheduler_.vcores_per_core));
  }
  if (!(options_.task_startup_seconds >= 0) ||
      !std::isfinite(options_.task_startup_seconds)) {
    report.Add("/options/task_startup_seconds",
               "must be finite and >= 0, got " +
                   std::to_string(options_.task_startup_seconds));
  }
  init_ = report.ToStatus("simulator config");
}

Result<SimResult> Simulator::Run(const DagWorkflow& flow) const {
  if (!init_.ok()) return init_;
  if (Status valid = ValidateWorkflow(flow).ToStatus(flow.name()); !valid.ok()) {
    return valid;
  }
  SimRun run(cluster_, scheduler_, options_, flow);
  return run.Run();
}

}  // namespace dagperf
