#include "dag/dag_workflow.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <set>

#include "common/check.h"

namespace dagperf {

namespace {

/// Appends the raw bit patterns of numeric fields — exact, no formatting
/// loss. Numeric blocks go through a stack buffer in one append() each; the
/// serialiser runs once per job at Build() time, but the bytes it produces
/// are compared and hashed on every incremental-estimation lookup, so the
/// layout stays dense and deterministic.
void AppendStageProfile(std::string& out, const StageProfile& stage) {
  out += stage.name;
  out += '\0';
  char head[1 + 4 * sizeof(double)];
  char* p = head;
  *p++ = static_cast<char>(stage.kind);
  const double fields[4] = {static_cast<double>(stage.num_tasks),
                            stage.task_size_cv, stage.slot.vcores,
                            stage.slot.memory.value()};
  std::memcpy(p, fields, sizeof(fields));
  out.append(head, sizeof(head));
  for (const SubStageProfile& sub : stage.substages) {
    char block[sizeof(sub.demand.values) + 1];
    std::memcpy(block, sub.demand.values.data(), sizeof(sub.demand.values));
    block[sizeof(sub.demand.values)] = ';';
    out.append(block, sizeof(block));
  }
  out += '|';
}

void AppendInt64(std::string& out, std::int64_t value) {
  char bits[sizeof(std::int64_t)];
  std::memcpy(bits, &value, sizeof(std::int64_t));
  out.append(bits, sizeof(std::int64_t));
}

}  // namespace

const JobProfile& DagWorkflow::job(JobId id) const {
  DAGPERF_CHECK(id >= 0 && id < num_jobs());
  return jobs_[id];
}

const std::vector<JobId>& DagWorkflow::parents(JobId id) const {
  DAGPERF_CHECK(id >= 0 && id < num_jobs());
  return parents_[id];
}

const std::string& DagWorkflow::job_fingerprint(JobId id) const {
  DAGPERF_CHECK(id >= 0 && id < num_jobs());
  return (*job_fingerprints_)[id];
}

std::size_t DagWorkflow::job_fingerprint_hash(JobId id) const {
  DAGPERF_CHECK(id >= 0 && id < num_jobs());
  return job_fingerprint_hashes_[id];
}

const std::vector<JobId>& DagWorkflow::children(JobId id) const {
  DAGPERF_CHECK(id >= 0 && id < num_jobs());
  return children_[id];
}

std::vector<JobId> DagWorkflow::Sources() const {
  std::vector<JobId> out;
  for (JobId id = 0; id < num_jobs(); ++id) {
    if (parents_[id].empty()) out.push_back(id);
  }
  return out;
}

std::vector<JobId> DagWorkflow::TopologicalOrder() const {
  std::vector<int> indegree(num_jobs());
  for (JobId id = 0; id < num_jobs(); ++id) {
    indegree[id] = static_cast<int>(parents_[id].size());
  }
  // Min-heap on id for a stable order.
  std::priority_queue<JobId, std::vector<JobId>, std::greater<JobId>> ready;
  for (JobId id = 0; id < num_jobs(); ++id) {
    if (indegree[id] == 0) ready.push(id);
  }
  std::vector<JobId> order;
  order.reserve(num_jobs());
  while (!ready.empty()) {
    const JobId id = ready.top();
    ready.pop();
    order.push_back(id);
    for (JobId child : children_[id]) {
      if (--indegree[child] == 0) ready.push(child);
    }
  }
  DAGPERF_CHECK_MSG(static_cast<int>(order.size()) == num_jobs(),
                    "workflow contains a cycle (Build() should have rejected it)");
  return order;
}

int DagWorkflow::TotalStages() const {
  int stages = 0;
  for (const auto& job : jobs_) stages += job.has_reduce() ? 2 : 1;
  return stages;
}

DagBuilder::DagBuilder(std::string name) : name_(std::move(name)) {}

JobId DagBuilder::AddJob(JobSpec spec) {
  specs_.push_back(std::move(spec));
  return static_cast<JobId>(specs_.size()) - 1;
}

DagBuilder& DagBuilder::AddEdge(JobId from, JobId to) {
  edges_.emplace_back(from, to);
  return *this;
}

JobId DagBuilder::AddJobAfter(JobId after, JobSpec spec) {
  const JobId id = AddJob(std::move(spec));
  AddEdge(after, id);
  return id;
}

Result<DagWorkflow> DagBuilder::Build() && {
  const int n = static_cast<int>(specs_.size());
  if (n == 0) return Status::InvalidArgument(name_ + ": workflow has no jobs");

  std::set<std::pair<JobId, JobId>> seen;
  for (const auto& [from, to] : edges_) {
    if (from < 0 || from >= n || to < 0 || to >= n) {
      return Status::InvalidArgument(name_ + ": edge references unknown job");
    }
    if (from == to) {
      return Status::InvalidArgument(name_ + ": self edge on job " +
                                     specs_[from].name);
    }
    if (!seen.insert({from, to}).second) {
      return Status::InvalidArgument(name_ + ": duplicate edge");
    }
  }

  DagWorkflow flow;
  flow.name_ = name_;
  flow.edges_ = edges_;
  flow.parents_.resize(n);
  flow.children_.resize(n);
  for (const auto& [from, to] : edges_) {
    flow.children_[from].push_back(to);
    flow.parents_[to].push_back(from);
  }
  for (auto& v : flow.parents_) std::sort(v.begin(), v.end());
  for (auto& v : flow.children_) std::sort(v.begin(), v.end());

  // Cycle check via Kahn's algorithm.
  std::vector<int> indegree(n);
  for (JobId id = 0; id < n; ++id) {
    indegree[id] = static_cast<int>(flow.parents_[id].size());
  }
  std::queue<JobId> ready;
  for (JobId id = 0; id < n; ++id) {
    if (indegree[id] == 0) ready.push(id);
  }
  int visited = 0;
  while (!ready.empty()) {
    const JobId id = ready.front();
    ready.pop();
    ++visited;
    for (JobId child : flow.children_[id]) {
      if (--indegree[child] == 0) ready.push(child);
    }
  }
  if (visited != n) return Status::InvalidArgument(name_ + ": cycle detected");

  flow.jobs_.reserve(n);
  for (const auto& spec : specs_) {
    Result<JobProfile> profile = CompileJob(spec);
    if (!profile.ok()) return profile.status();
    flow.jobs_.push_back(std::move(profile).value());
  }

  // Structural fingerprints, precomputed while the flow is being frozen:
  // the compiled stage profiles plus the sorted parent list, byte-exact.
  auto fingerprints =
      std::make_shared<std::vector<std::string>>(static_cast<std::size_t>(n));
  flow.job_fingerprint_hashes_.resize(n);
  const std::hash<std::string> hasher;
  for (JobId id = 0; id < n; ++id) {
    std::string& fp = (*fingerprints)[id];
    const JobProfile& job = flow.jobs_[id];
    AppendStageProfile(fp, job.map);
    fp += job.has_reduce() ? '\1' : '\0';
    if (job.has_reduce()) AppendStageProfile(fp, *job.reduce);
    const std::vector<JobId>& parents = flow.parents_[id];
    AppendInt64(fp, static_cast<std::int64_t>(parents.size()));
    for (JobId parent : parents) AppendInt64(fp, parent);
    flow.job_fingerprint_hashes_[id] = hasher(fp);
  }
  flow.job_fingerprints_ = std::move(fingerprints);
  return flow;
}

}  // namespace dagperf
