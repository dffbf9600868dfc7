#ifndef DAGPERF_DAG_DAG_WORKFLOW_H_
#define DAGPERF_DAG_DAG_WORKFLOW_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "workload/job_profile.h"
#include "workload/job_spec.h"

namespace dagperf {

/// Index of a job within its workflow.
using JobId = int;

/// A DAG workflow per Definition 1 of the paper: a set of jobs J and edges E
/// where (j_m, j_n) means j_n may start only after j_m completes. Multiple
/// source jobs (and generally any antichain) run in parallel.
///
/// Instances are immutable once built; construct via DagBuilder, which
/// compiles each JobSpec and validates the topology.
class DagWorkflow {
 public:
  const std::string& name() const { return name_; }
  int num_jobs() const { return static_cast<int>(jobs_.size()); }
  const JobProfile& job(JobId id) const;
  const std::vector<JobProfile>& jobs() const { return jobs_; }
  const std::vector<std::pair<JobId, JobId>>& edges() const { return edges_; }

  const std::vector<JobId>& parents(JobId id) const;
  const std::vector<JobId>& children(JobId id) const;

  /// Jobs with no parents (runnable at workflow start).
  std::vector<JobId> Sources() const;

  /// A topological order of the jobs (stable: ties broken by id).
  std::vector<JobId> TopologicalOrder() const;

  /// Total schedulable stages across jobs (map + reduce), the upper bound on
  /// workflow state transitions contributed by stage starts/completions.
  int TotalStages() const;

  /// Exact-byte structural fingerprint of one job: the compiled stage
  /// profiles (every field a task-time model can read) plus the sorted
  /// parent list. Two jobs with equal fingerprints are interchangeable for
  /// any estimate — the incremental engine keys checkpoint prefixes on these
  /// bytes and the sweep engine orders candidates by them. Precomputed at
  /// Build() time, because the hot re-estimation paths read them on every
  /// call while the flow itself is immutable.
  const std::string& job_fingerprint(JobId id) const;
  const std::vector<std::string>& job_fingerprints() const {
    return *job_fingerprints_;
  }
  /// The same vector as shared by this flow and its copies, and by no flow
  /// of another Build(): sharing its owner proves equal fingerprints without
  /// comparing bytes (checkpoint probes, model/incremental.h).
  const std::shared_ptr<const std::vector<std::string>>&
  shared_job_fingerprints() const {
    return job_fingerprints_;
  }
  /// std::hash of job_fingerprint(id) — a cheap per-job ordering signature
  /// (stable within the process; not for persistence).
  std::size_t job_fingerprint_hash(JobId id) const;

 private:
  friend class DagBuilder;
  DagWorkflow() = default;

  std::string name_;
  std::vector<JobProfile> jobs_;
  std::vector<std::pair<JobId, JobId>> edges_;
  std::vector<std::vector<JobId>> parents_;
  std::vector<std::vector<JobId>> children_;
  std::shared_ptr<const std::vector<std::string>> job_fingerprints_;
  std::vector<std::size_t> job_fingerprint_hashes_;
};

/// Incremental builder. Usage:
///
///   DagBuilder b("my-flow");
///   JobId a = b.AddJob(spec_a);
///   JobId c = b.AddJob(spec_c);
///   b.AddEdge(a, c);
///   Result<DagWorkflow> flow = std::move(b).Build();
///
/// Build() compiles every JobSpec and rejects cycles, self-edges, duplicate
/// edges and out-of-range ids.
class DagBuilder {
 public:
  explicit DagBuilder(std::string name);

  JobId AddJob(JobSpec spec);
  DagBuilder& AddEdge(JobId from, JobId to);

  /// Convenience for linear pipelines: adds the job and an edge from `after`.
  JobId AddJobAfter(JobId after, JobSpec spec);

  Result<DagWorkflow> Build() &&;

 private:
  std::string name_;
  std::vector<JobSpec> specs_;
  std::vector<std::pair<JobId, JobId>> edges_;
};

}  // namespace dagperf

#endif  // DAGPERF_DAG_DAG_WORKFLOW_H_
