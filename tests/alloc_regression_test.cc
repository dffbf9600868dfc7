/// Allocation-regression guard for the estimation hot path.
///
/// The sweep engine's throughput rests on warm estimates being
/// allocation-free: per-estimate state lives in a thread-local arena,
/// EstimateInto reuses the output's vector capacity, and the BOE fast path
/// prices stages into reused scratch (docs/performance.md). This test
/// interposes the global allocator and counts operator-new calls on the
/// calling thread across warm EstimateInto iterations — a regression that
/// reintroduces per-estimate heap traffic fails here, not in a benchmark
/// someone has to read.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "boe/boe_model.h"
#include "model/state_estimator.h"
#include "model/task_time_cache.h"
#include "model/task_time_source.h"
#include "workloads/micro.h"
#include "workloads/tpch.h"

namespace {

/// Thread-local so a background thread's allocations (none are expected,
/// but gtest internals make no promises) can never flake the count.
thread_local std::uint64_t g_new_calls = 0;
thread_local bool g_counting = false;

void* CountedAlloc(std::size_t size) {
  if (g_counting) ++g_new_calls;
  if (void* ptr = std::malloc(size != 0 ? size : 1)) return ptr;
  throw std::bad_alloc();
}

}  // namespace

// All replaceable allocation forms route through the counter, and every
// matching deallocation form frees the malloc'd block.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_new_calls;
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_new_calls;
  return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace dagperf {
namespace {

/// Warm iterations measured; the bound is per-iteration zero with a small
/// absolute slack for one-time lazy growth the priming pass missed.
constexpr int kWarmIterations = 16;
constexpr std::uint64_t kMaxTotalAllocations = 4;

std::uint64_t CountWarmAllocations(const StateBasedEstimator& estimator,
                                   const DagWorkflow& flow,
                                   const TaskTimeSource& source,
                                   DagEstimate* out, double golden_makespan) {
  g_new_calls = 0;
  g_counting = true;
  for (int i = 0; i < kWarmIterations; ++i) {
    const Status status = estimator.EstimateInto(flow, source, out);
    if (!status.ok() || out->makespan.seconds() != golden_makespan) {
      g_counting = false;
      ADD_FAILURE() << "warm estimate diverged on iteration " << i;
      return g_new_calls;
    }
  }
  g_counting = false;
  return g_new_calls;
}

TEST(AllocRegressionTest, WarmEstimateIsAllocationFree) {
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  const DagWorkflow flow = TpchQueryFlow(9, Bytes::FromGB(8)).value();
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const StateBasedEstimator estimator(cluster, SchedulerConfig{});

  // Prime: grows the thread-local arena, the BOE pricing scratch, the
  // validation firewall's buffers, and the output's pools to steady state.
  DagEstimate out;
  ASSERT_TRUE(estimator.EstimateInto(flow, source, &out).ok());
  ASSERT_TRUE(estimator.EstimateInto(flow, source, &out).ok());
  const double golden = out.makespan.seconds();

  const std::uint64_t total =
      CountWarmAllocations(estimator, flow, source, &out, golden);
  EXPECT_LE(total, kMaxTotalAllocations)
      << total << " operator-new calls across " << kWarmIterations
      << " warm estimates — the hot path regressed to per-estimate heap "
         "traffic";
}

TEST(AllocRegressionTest, WarmEstimateStaysFreeAcrossFlowSizes) {
  // Re-priming at a larger flow, then returning to the smaller one, must not
  // re-introduce allocations (the arena high-watermarks, never shrinks).
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  const DagWorkflow small = []() {
    DagBuilder b("small");
    b.AddJob(TsSpec(Bytes::FromGB(10)));
    return std::move(b).Build().value();
  }();
  const DagWorkflow large = TpchQueryFlow(9, Bytes::FromGB(8)).value();
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const StateBasedEstimator estimator(cluster, SchedulerConfig{});

  DagEstimate out;
  ASSERT_TRUE(estimator.EstimateInto(large, source, &out).ok());
  ASSERT_TRUE(estimator.EstimateInto(small, source, &out).ok());
  ASSERT_TRUE(estimator.EstimateInto(small, source, &out).ok());
  const double golden = out.makespan.seconds();

  const std::uint64_t total =
      CountWarmAllocations(estimator, small, source, &out, golden);
  EXPECT_LE(total, kMaxTotalAllocations);
}


TEST(AllocRegressionTest, WarmEstimateWithDefaultBatchIsAllocationFree) {
  // A profile source keeps TaskTimeSource's default TaskTimes (a loop over
  // TaskTime), which must be as allocation-free once warm as the BOE batch.
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  const DagWorkflow flow = TpchQueryFlow(9, Bytes::FromGB(8)).value();
  ProfileTaskTimeSource source(ProfileStatistic::kMean);
  for (JobId id = 0; id < flow.num_jobs(); ++id) {
    const JobProfile& job = flow.job(id);
    source.AddProfile(job.map.name, {10.0 + id, 12.0 + id});
    if (job.has_reduce()) source.AddProfile(job.reduce->name, {20.0 + id});
  }
  // One contention bucket, so the lookup builds its full bucket key.
  source.AddContextProfile({flow.job(0).map.name}, flow.job(0).map.name, {9.0});
  const StateBasedEstimator estimator(cluster, SchedulerConfig{});

  DagEstimate out;
  ASSERT_TRUE(estimator.EstimateInto(flow, source, &out).ok());
  ASSERT_TRUE(estimator.EstimateInto(flow, source, &out).ok());
  const double golden = out.makespan.seconds();

  const std::uint64_t total =
      CountWarmAllocations(estimator, flow, source, &out, golden);
  EXPECT_LE(total, kMaxTotalAllocations);
}

TEST(AllocRegressionTest, WarmMemoizedEstimateIsAllocationFree) {
  // Every batched memo probe hits once warm: no key, vector or entry is
  // allocated on the way to the answer.
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  const DagWorkflow flow = TpchQueryFlow(9, Bytes::FromGB(8)).value();
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource base(boe, Duration::Seconds(1));
  TaskTimeMemo memo;
  const MemoizedTaskTimeSource source(base, &memo, "scope");
  const StateBasedEstimator estimator(cluster, SchedulerConfig{});

  DagEstimate out;
  ASSERT_TRUE(estimator.EstimateInto(flow, source, &out).ok());
  ASSERT_TRUE(estimator.EstimateInto(flow, source, &out).ok());
  const double golden = out.makespan.seconds();
  const std::uint64_t misses = memo.stats().misses;

  const std::uint64_t total =
      CountWarmAllocations(estimator, flow, source, &out, golden);
  EXPECT_LE(total, kMaxTotalAllocations);
  EXPECT_EQ(memo.stats().misses, misses);
}

}  // namespace
}  // namespace dagperf
