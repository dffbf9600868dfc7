#include "scheduler/drf.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace dagperf {

DrfAllocator::DrfAllocator(const ClusterSpec& cluster, const SchedulerConfig& config) {
  DAGPERF_CHECK(cluster.Validate().ok());
  DAGPERF_CHECK(config.vcores_per_core > 0);
  DAGPERF_CHECK(config.max_tasks_per_node >= 0);
  num_nodes_ = cluster.num_nodes;
  node_vcores_ = cluster.node.cores * config.vcores_per_core;
  node_memory_ = cluster.node.memory.value();
  total_vcores_ = node_vcores_ * num_nodes_;
  total_memory_ = node_memory_ * num_nodes_;
  max_tasks_per_node_ = config.max_tasks_per_node;
}

int DrfAllocator::NodeSlots(const SlotDemand& demand) const {
  DAGPERF_CHECK(demand.vcores > 0 && demand.memory.value() > 0);
  const double by_vcores = node_vcores_ / demand.vcores;
  const double by_memory = node_memory_ / demand.memory.value();
  int slots = static_cast<int>(std::floor(std::min(by_vcores, by_memory)));
  if (max_tasks_per_node_ > 0) slots = std::min(slots, max_tasks_per_node_);
  return std::max(0, slots);
}

int DrfAllocator::ClusterSlots(const SlotDemand& demand) const {
  return NodeSlots(demand) * num_nodes_;
}

std::vector<int> DrfAllocator::Allocate(const std::vector<StageDemand>& stages) const {
  std::vector<int> granted;
  Allocate(stages, &granted);
  return granted;
}

namespace {

/// 2^53: every integer up to it is a double, so integer-valued running sums
/// that stay below it are exact.
constexpr double kExactIntegers = 9007199254740992.0;

/// Smallest per-grant dominant-share step for which every further grant
/// strictly raises the share: g * d / total stays a normal number, whose
/// rounding cannot merge consecutive grant counts below 2^31.
constexpr double kMinShareStep = 1e-290;

bool IsExactInteger(double x) {
  return x >= 0 && x <= kExactIntegers && std::floor(x) == x;
}

}  // namespace

void DrfAllocator::Allocate(const std::vector<StageDemand>& stages,
                            std::vector<int>* out) const {
  const size_t n = stages.size();
  std::vector<int>& granted = *out;
  granted.assign(n, 0);
  if (n == 0) return;
  for (const StageDemand& st : stages) {
    if (st.remaining_tasks <= 0) continue;
    DAGPERF_CHECK(st.slot.vcores > 0 && st.slot.memory.value() > 0);
  }
  const int task_cap = max_tasks_per_node_ > 0
                           ? max_tasks_per_node_ * num_nodes_
                           : std::numeric_limits<int>::max();
  if (AllocateUniform(stages, task_cap, &granted)) return;
  AllocateRuns(stages, task_cap, &granted);
}

bool DrfAllocator::AllocateUniform(const std::vector<StageDemand>& stages, int task_cap,
                                   std::vector<int>* out) const {
  std::vector<int>& granted = *out;
  const SlotDemand* shape = nullptr;
  long long backlog = 0;
  int max_backlog = 0;
  for (const StageDemand& st : stages) {
    if (st.remaining_tasks <= 0) continue;
    if (shape == nullptr) {
      shape = &st.slot;
    } else if (!(st.slot == *shape)) {
      return false;
    }
    backlog += st.remaining_tasks;
    max_backlog = std::max(max_backlog, st.remaining_tasks);
  }
  if (shape == nullptr) return true;  // No backlog: nothing to grant.
  const double v = shape->vcores;
  const double m = shape->memory.value();
  // With one shape, a stage's share is a function of its grant count alone.
  // When that function strictly increases, "smallest share, lowest index"
  // is "fewest grants, lowest index": grants go round by round, in index
  // order, to every stage with backlog left.
  if (!(v >= kMinShareStep && m >= kMinShareStep && v / total_vcores_ >= kMinShareStep &&
        m / total_memory_ >= kMinShareStep)) {
    return false;
  }

  // Every grant adds the same (v, m), so the capacity checks pass for the
  // first `total` grants whichever stages get them.
  const double vcores_limit = total_vcores_ + 1e-9;
  const double memory_limit = total_memory_ + 1e-9;
  const long long limit = std::min<long long>(backlog, task_cap);
  long long total = 0;
  if (IsExactInteger(v) && IsExactInteger(m) &&
      vcores_limit + v <= kExactIntegers && memory_limit + m <= kExactIntegers) {
    // Integer increments below 2^53: the running sums are exactly k * v and
    // k * m, so the k-th check passes iff k * v and k * m fit.
    const auto fits = [&](long long k) {
      return static_cast<double>(k) * v <= vcores_limit &&
             static_cast<double>(k) * m <= memory_limit;
    };
    total = static_cast<long long>(
        std::min({vcores_limit / v, memory_limit / m, static_cast<double>(limit)}));
    while (total > 0 && !fits(total)) --total;
    while (total < limit && fits(total + 1)) ++total;
  } else {
    // Inexact increments: replay the additions as the one-at-a-time loop
    // makes them.
    double used_vcores = 0;
    double used_memory = 0;
    while (total < limit && used_vcores + v <= vcores_limit &&
           used_memory + m <= memory_limit) {
      used_vcores += v;
      used_memory += m;
      ++total;
    }
  }

  // Water-fill: the deepest full round `level` that `total` grants cover,
  // then the remainder one each, in index order, to stages deeper than it.
  const auto filled = [&](int level) {
    long long sum = 0;
    for (const StageDemand& st : stages) {
      sum += std::clamp(st.remaining_tasks, 0, level);
    }
    return sum;
  };
  int lo = 0;
  int hi = max_backlog;
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    if (filled(mid) <= total) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  long long left = total - filled(lo);
  for (size_t i = 0; i < stages.size(); ++i) {
    granted[i] = std::clamp(stages[i].remaining_tasks, 0, lo);
    if (left > 0 && stages[i].remaining_tasks > lo) {
      ++granted[i];
      --left;
    }
  }
  return true;
}

void DrfAllocator::AllocateRuns(const std::vector<StageDemand>& stages, int task_cap,
                                std::vector<int>* out) const {
  std::vector<int>& granted = *out;
  const size_t n = stages.size();
  double used_vcores = 0;
  double used_memory = 0;
  int used_tasks = 0;
  const auto share_of = [&](size_t i) {
    return std::max(granted[i] * stages[i].slot.vcores / total_vcores_,
                    granted[i] * stages[i].slot.memory.value() / total_memory_);
  };
  const auto fits = [&](size_t i) {
    const StageDemand& st = stages[i];
    return granted[i] < st.remaining_tasks &&
           used_vcores + st.slot.vcores <= total_vcores_ + 1e-9 &&
           used_memory + st.slot.memory.value() <= total_memory_ + 1e-9 &&
           used_tasks + 1 <= task_cap;
  };

  while (true) {
    // The eligible stages with the smallest and second-smallest (share,
    // index): the next grant's winner and the bound on its run.
    int best = -1;
    double best_share = std::numeric_limits<double>::infinity();
    int next = -1;
    double next_share = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      if (!fits(i)) continue;
      const double share = share_of(i);
      if (share < best_share) {
        next = best;
        next_share = best_share;
        best = static_cast<int>(i);
        best_share = share;
      } else if (share < next_share) {
        next = static_cast<int>(i);
        next_share = share;
      }
    }
    if (best < 0) break;
    // Other stages' shares stand still while `best` is granted, and grants
    // only make them ineligible, so `best` keeps winning while it fits and
    // its share stays ahead of the runner-up's.
    const size_t b = static_cast<size_t>(best);
    const double vcores = stages[b].slot.vcores;
    const double memory = stages[b].slot.memory.value();
    do {
      granted[b] += 1;
      used_vcores += vcores;
      used_memory += memory;
      used_tasks += 1;
      if (!fits(b)) break;
      const double share = share_of(b);
      if (!(share < next_share || (share == next_share && best < next))) break;
    } while (true);
  }
}

}  // namespace dagperf
