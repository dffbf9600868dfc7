#include "scheduler/drf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace dagperf {
namespace {

DrfAllocator PaperAllocator(int max_tasks_per_node = 0) {
  SchedulerConfig config;
  config.vcores_per_core = 2.0;
  config.max_tasks_per_node = max_tasks_per_node;
  return DrfAllocator(ClusterSpec::PaperCluster(), config);
}

TEST(DrfTest, NodeSlotsLimitedByVcores) {
  // 6 cores * 2 vcores/core = 12 vcores, 1 vcore per task; memory allows 16.
  const DrfAllocator alloc = PaperAllocator();
  SlotDemand demand;
  demand.vcores = 1.0;
  demand.memory = Bytes::FromGB(2);
  EXPECT_EQ(alloc.NodeSlots(demand), 12);
  EXPECT_EQ(alloc.ClusterSlots(demand), 132);
}

TEST(DrfTest, NodeSlotsLimitedByMemory) {
  const DrfAllocator alloc = PaperAllocator();
  SlotDemand demand;
  demand.vcores = 1.0;
  demand.memory = Bytes::FromGB(8);  // 32 GB / 8 GB = 4 per node.
  EXPECT_EQ(alloc.NodeSlots(demand), 4);
}

TEST(DrfTest, ExplicitPerNodeCap) {
  const DrfAllocator alloc = PaperAllocator(/*max_tasks_per_node=*/3);
  SlotDemand demand;
  EXPECT_EQ(alloc.NodeSlots(demand), 3);
  EXPECT_EQ(alloc.ClusterSlots(demand), 33);
}

TEST(DrfTest, SingleJobGetsWholeCluster) {
  const DrfAllocator alloc = PaperAllocator();
  StageDemand stage;
  stage.remaining_tasks = 1000;
  const std::vector<int> granted = alloc.Allocate({stage});
  EXPECT_EQ(granted[0], 132);
}

TEST(DrfTest, BacklogCapsAllocation) {
  const DrfAllocator alloc = PaperAllocator();
  StageDemand stage;
  stage.remaining_tasks = 7;
  EXPECT_EQ(alloc.Allocate({stage})[0], 7);
}

TEST(DrfTest, EqualDemandsSplitEqually) {
  const DrfAllocator alloc = PaperAllocator();
  StageDemand a;
  a.remaining_tasks = 1000;
  StageDemand b;
  b.remaining_tasks = 1000;
  const std::vector<int> granted = alloc.Allocate({a, b});
  EXPECT_EQ(granted[0], 66);
  EXPECT_EQ(granted[1], 66);
}

TEST(DrfTest, SmallJobSurplusGoesToBigJob) {
  const DrfAllocator alloc = PaperAllocator();
  StageDemand small;
  small.remaining_tasks = 10;
  StageDemand big;
  big.remaining_tasks = 1000;
  const std::vector<int> granted = alloc.Allocate({small, big});
  EXPECT_EQ(granted[0], 10);
  EXPECT_EQ(granted[1], 122);
}

TEST(DrfTest, DominantShareEqualisedForAsymmetricDemands) {
  // Job A is memory-heavy (dominant = memory); job B is vcore-heavy
  // (dominant = vcores). DRF should equalise dominant shares.
  const DrfAllocator alloc = PaperAllocator();
  StageDemand a;
  a.slot.vcores = 1.0;
  a.slot.memory = Bytes::FromGB(4);
  a.remaining_tasks = 10000;
  StageDemand b;
  b.slot.vcores = 2.0;
  b.slot.memory = Bytes::FromGB(1);
  b.remaining_tasks = 10000;
  const std::vector<int> granted = alloc.Allocate({a, b});
  const double total_vcores = 11 * 12.0;
  const double total_mem = 11 * 32.0;  // In GB.
  const double share_a =
      std::max(granted[0] * 1.0 / total_vcores, granted[0] * 4.0 / total_mem);
  const double share_b =
      std::max(granted[1] * 2.0 / total_vcores, granted[1] * 1.0 / total_mem);
  EXPECT_NEAR(share_a, share_b, 0.03);
  // Capacity respected.
  EXPECT_LE(granted[0] * 1.0 + granted[1] * 2.0, total_vcores + 1e-9);
  EXPECT_LE(granted[0] * 4.0 + granted[1] * 1.0, total_mem + 1e-9);
}

TEST(DrfTest, ZeroBacklogReceivesNothing) {
  const DrfAllocator alloc = PaperAllocator();
  StageDemand idle;
  idle.remaining_tasks = 0;
  StageDemand busy;
  busy.remaining_tasks = 50;
  const std::vector<int> granted = alloc.Allocate({idle, busy});
  EXPECT_EQ(granted[0], 0);
  EXPECT_EQ(granted[1], 50);
}

TEST(DrfTest, EmptyRequestListIsEmptyAllocation) {
  const DrfAllocator alloc = PaperAllocator();
  EXPECT_TRUE(alloc.Allocate({}).empty());
}

TEST(DrfTest, ThreeWaySplit) {
  const DrfAllocator alloc = PaperAllocator();
  std::vector<StageDemand> stages(3);
  for (auto& s : stages) s.remaining_tasks = 1000;
  const std::vector<int> granted = alloc.Allocate(stages);
  EXPECT_EQ(granted[0] + granted[1] + granted[2], 132);
  for (int g : granted) EXPECT_EQ(g, 44);
}

TEST(DrfTest, PerNodeCapAppliesAcrossJobs) {
  const DrfAllocator alloc = PaperAllocator(/*max_tasks_per_node=*/2);
  StageDemand a;
  a.remaining_tasks = 100;
  StageDemand b;
  b.remaining_tasks = 100;
  const std::vector<int> granted = alloc.Allocate({a, b});
  EXPECT_EQ(granted[0] + granted[1], 22);
}

/// The reference DRF loop: one container at a time to the eligible stage
/// with the smallest dominant share, lowest index on ties, capacity checked
/// against the running sums. DrfAllocator must reproduce it grant for grant.
std::vector<int> ReferenceAllocate(const ClusterSpec& cluster,
                                   const SchedulerConfig& config,
                                   const std::vector<StageDemand>& stages) {
  const double node_vcores = cluster.node.cores * config.vcores_per_core;
  const double node_memory = cluster.node.memory.value();
  const double total_vcores = node_vcores * cluster.num_nodes;
  const double total_memory = node_memory * cluster.num_nodes;
  const int task_cap = config.max_tasks_per_node > 0
                           ? config.max_tasks_per_node * cluster.num_nodes
                           : std::numeric_limits<int>::max();
  const size_t n = stages.size();
  std::vector<int> granted(n, 0);
  double used_vcores = 0;
  double used_memory = 0;
  int used_tasks = 0;
  while (true) {
    int best = -1;
    double best_share = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      const auto& st = stages[i];
      if (granted[i] >= st.remaining_tasks) continue;
      if (used_vcores + st.slot.vcores > total_vcores + 1e-9) continue;
      if (used_memory + st.slot.memory.value() > total_memory + 1e-9) continue;
      if (used_tasks + 1 > task_cap) continue;
      const double share =
          std::max(granted[i] * st.slot.vcores / total_vcores,
                   granted[i] * st.slot.memory.value() / total_memory);
      if (share < best_share) {
        best_share = share;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    granted[best] += 1;
    used_vcores += stages[best].slot.vcores;
    used_memory += stages[best].slot.memory.value();
    used_tasks += 1;
  }
  return granted;
}

/// A random backlog: often zero or small, sometimes far past any capacity.
int RandomBacklog(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return 0;
    case 1:
      return static_cast<int>(rng() % 50);
    case 2:
      return static_cast<int>(rng() % 5000);
    default:
      return 1000000;
  }
}

SlotDemand RandomSlot(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  SlotDemand slot;
  switch (rng() % 3) {
    case 0:  // Whole vcores and whole gigabytes (exact running sums).
      slot.vcores = static_cast<double>(1 + rng() % 3);
      slot.memory = Bytes::FromGB(static_cast<double>(1 + rng() % 8));
      break;
    case 1:  // Fractional vcores, whole bytes.
      slot.vcores = 0.25 + 2.0 * unit(rng);
      slot.memory = Bytes(std::floor(Bytes::FromGB(0.5 + 6 * unit(rng)).value()));
      break;
    default:  // Fractional everything.
      slot.vcores = 0.1 + 3.0 * unit(rng);
      slot.memory = Bytes(Bytes::FromGB(0.1 + 8 * unit(rng)).value() + unit(rng));
      break;
  }
  return slot;
}

TEST(DrfPropertyTest, BatchedGrantsEqualOneAtATimeGrants) {
  std::mt19937_64 rng(2011);
  const int node_counts[] = {1, 2, 7, 11, 64, 333, 1000, 10000};
  for (int trial = 0; trial < 600; ++trial) {
    ClusterSpec cluster = ClusterSpec::PaperCluster();
    cluster.num_nodes = node_counts[trial % 8];
    cluster.node.cores = 1 + static_cast<int>(rng() % 16);
    cluster.node.memory = Bytes::FromGB(static_cast<double>(4 + rng() % 60));
    if (rng() % 3 == 0) cluster.node.memory = Bytes(cluster.node.memory.value() + 0.37);
    SchedulerConfig config;
    config.vcores_per_core = rng() % 2 == 0 ? 2.0 : 1.5;
    config.max_tasks_per_node = rng() % 3 == 0 ? static_cast<int>(1 + rng() % 20) : 0;

    const int k = 1 + static_cast<int>(rng() % 8);
    const bool uniform = rng() % 2 == 0;
    const SlotDemand shared = RandomSlot(rng);
    std::vector<StageDemand> stages(k);
    for (StageDemand& st : stages) {
      st.slot = uniform ? shared : RandomSlot(rng);
      st.remaining_tasks = RandomBacklog(rng);
    }
    const DrfAllocator alloc(cluster, config);
    EXPECT_EQ(alloc.Allocate(stages), ReferenceAllocate(cluster, config, stages))
        << "trial " << trial << " nodes " << cluster.num_nodes << " stages " << k
        << (uniform ? " uniform" : " mixed");
  }
}

TEST(DrfPropertyTest, TenantAdmissionGrantsEqualOneAtATimeGrants) {
  // The synthetic cluster TenantRegistry::Admit prices: one node whose
  // vcores are queue slots and whose memory is slots x mean EMA cost, with
  // each tenant's slot costing one vcore plus its own fractional EMA.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> cost(0.0, 40.0);
  for (int trial = 0; trial < 400; ++trial) {
    const int slots = 1 + static_cast<int>(rng() % 256);
    const int tenants = 1 + static_cast<int>(rng() % 8);
    std::vector<StageDemand> stages(tenants);
    double cost_sum = 0.0;
    for (StageDemand& st : stages) {
      const double ema = rng() % 5 == 0 ? 0.0 : cost(rng);
      st.slot.vcores = 1.0;
      st.slot.memory = Bytes(std::max(0.01, ema));
      st.remaining_tasks = static_cast<int>(rng() % (2 * slots + 2));
      cost_sum += std::max(0.01, ema);
    }
    ClusterSpec cluster;
    cluster.num_nodes = 1;
    cluster.node.cores = slots;
    cluster.node.memory = Bytes(static_cast<double>(slots) * (cost_sum / tenants));
    SchedulerConfig config;
    config.vcores_per_core = 1.0;
    const DrfAllocator alloc(cluster, config);
    EXPECT_EQ(alloc.Allocate(stages), ReferenceAllocate(cluster, config, stages))
        << "trial " << trial;
  }
}

TEST(DrfPropertyTest, WholeClusterOfIdenticalStagesSplitsInIndexOrder) {
  // 10 000 nodes of 12 slots: 120 000 containers over three equal stages,
  // the last one short of its round; the odd container goes to stage 0.
  SchedulerConfig config;
  ClusterSpec cluster = ClusterSpec::PaperCluster();
  cluster.num_nodes = 10000;
  const DrfAllocator alloc(cluster, config);
  std::vector<StageDemand> stages(3);
  stages[0].remaining_tasks = 1000000;
  stages[1].remaining_tasks = 1000000;
  stages[2].remaining_tasks = 30001;
  const std::vector<int> granted = alloc.Allocate(stages);
  EXPECT_EQ(granted, ReferenceAllocate(cluster, config, stages));
  EXPECT_EQ(granted, (std::vector<int>{45000, 44999, 30001}));
}

}  // namespace
}  // namespace dagperf
