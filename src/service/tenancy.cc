#include "service/tenancy.h"

#include <algorithm>

#include "cluster/cluster_spec.h"
#include "obs/metrics.h"
#include "scheduler/drf.h"

namespace dagperf {

namespace {

obs::Counter& FairShareShedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Default().GetCounter("tenant.fair_share_shed");
  return counter;
}

obs::Gauge& TenantCountGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Default().GetGauge("tenant.active");
  return gauge;
}

}  // namespace

TenantRegistry::TenantRegistry() : TenantRegistry(Options{}) {}

TenantRegistry::TenantRegistry(Options options) : options_(options) {
  options_.capacity_slots = std::max(1, options_.capacity_slots);
  options_.ema_alpha = std::min(1.0, std::max(0.01, options_.ema_alpha));
  options_.initial_cost_ms = std::max(0.01, options_.initial_cost_ms);
}

const std::string& TenantRegistry::Canonical(const std::string& tenant) {
  static const std::string* kDefault = new std::string("default");
  return tenant.empty() ? *kDefault : tenant;
}

TenantRegistry::Entry& TenantRegistry::Find(const std::string& tenant) {
  auto found = tenants_.find(tenant);
  if (found != tenants_.end()) return found->second;
  auto [it, inserted] = tenants_.try_emplace(
      tenants_.size() < kMaxTenants ? tenant : std::string("overflow"));
  if (inserted) {
    it->second.ema_cost_ms = options_.initial_cost_ms;
    TenantCountGauge().Set(static_cast<double>(tenants_.size()));
  }
  return it->second;
}

Status TenantRegistry::Admit(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& me = Find(tenant);
  ++me.submitted;

  // Price the admission queue as a DRF problem (the paper's own scheduler
  // model, §II-B): one synthetic node whose vcores are queue slots and whose
  // memory is cpu-milliseconds of expected work. Each active tenant demands
  // <1 slot, EMA cost ms> per held-or-requested slot. The memory capacity is
  // the slot count times the mean active cost, so a tenant whose requests
  // cost the mean is slot-bound while a pricier tenant becomes
  // cpu-ms-dominant and is granted proportionally fewer slots.
  std::vector<const Entry*> active;
  double cost_sum = 0.0;
  for (const auto& [name, entry] : tenants_) {
    const bool wants = &entry == &me || entry.inflight + entry.queued > 0;
    if (!wants) continue;
    active.push_back(&entry);
    cost_sum += std::max(0.01, entry.ema_cost_ms);
  }
  const double mean_cost = cost_sum / static_cast<double>(active.size());

  ClusterSpec synthetic;
  synthetic.num_nodes = 1;
  synthetic.node.cores = options_.capacity_slots;
  synthetic.node.memory =
      Bytes(static_cast<double>(options_.capacity_slots) * mean_cost);
  SchedulerConfig config;
  config.vcores_per_core = 1.0;  // Slots are slots; no oversubscription.
  config.max_tasks_per_node = 0;
  const DrfAllocator allocator(synthetic, config);

  std::vector<StageDemand> demands;
  demands.reserve(active.size());
  int my_index = -1;
  for (std::size_t i = 0; i < active.size(); ++i) {
    const Entry& entry = *active[i];
    StageDemand demand;
    demand.slot.vcores = 1.0;
    demand.slot.memory = Bytes(std::max(0.01, entry.ema_cost_ms));
    demand.remaining_tasks = entry.inflight + entry.queued;
    if (active[i] == &me) {
      my_index = static_cast<int>(i);
      ++demand.remaining_tasks;  // The slot this Admit asks for.
    }
    demands.push_back(demand);
  }
  const std::vector<int> granted = allocator.Allocate(demands);
  const int held = me.inflight + me.queued;
  if (granted[static_cast<std::size_t>(my_index)] <= held) {
    ++me.shed_total;
    FairShareShedCounter().Add(1);
    return Status::ResourceExhausted(
        "tenant \"" + tenant + "\" is at its fair share (" +
        std::to_string(held) + " of " +
        std::to_string(options_.capacity_slots) +
        " slots under DRF): retry with backoff");
  }
  ++me.queued;
  return Status::Ok();
}

void TenantRegistry::OnExecuteStart(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = Find(tenant);
  entry.queued = std::max(0, entry.queued - 1);
  ++entry.inflight;
}

void TenantRegistry::OnDone(const std::string& tenant, bool ok, double cpu_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = Find(tenant);
  entry.inflight = std::max(0, entry.inflight - 1);
  if (ok) {
    ++entry.completed;
  } else {
    ++entry.failed;
  }
  cpu_ms = std::max(0.0, cpu_ms);
  entry.cpu_ms += cpu_ms;
  entry.ema_cost_ms = (1.0 - options_.ema_alpha) * entry.ema_cost_ms +
                      options_.ema_alpha * cpu_ms;
}

void TenantRegistry::OnShed(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = Find(tenant);
  // The arrival never reached Admit, so count it here: `submitted` means
  // arrivals, keeping the conservation invariant
  //   submitted == completed + failed + shed_total + inflight + queued.
  ++entry.submitted;
  ++entry.shed_total;
}

std::vector<TenantRegistry::TenantStats> TenantRegistry::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& [name, entry] : tenants_) {
    TenantStats s;
    s.name = name;
    s.inflight = entry.inflight;
    s.queued = entry.queued;
    s.submitted = entry.submitted;
    s.completed = entry.completed;
    s.failed = entry.failed;
    s.shed_total = entry.shed_total;
    s.cpu_ms = entry.cpu_ms;
    s.ema_cost_ms = entry.ema_cost_ms;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace dagperf
