#ifndef DAGPERF_SERVICE_TENANCY_H_
#define DAGPERF_SERVICE_TENANCY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace dagperf {

/// Per-tenant serving accounting and DRF fair-share admission.
///
/// Every wire request names a tenant (absent -> "default"); the registry
/// tracks each tenant's queued/in-flight slots, lifetime outcome counters,
/// consumed cpu time, and an EMA of its per-request cost. Admission
/// dogfoods the paper's own Dominant Resource Fairness model
/// (scheduler/drf.h): the admission queue is priced as a synthetic
/// single-node cluster whose "vcores" are queue slots and whose "memory" is
/// expected cpu-milliseconds, each active tenant is a stage demanding one
/// slot + its EMA cost per queued request, and a tenant is admitted only if
/// the DRF allocation grants it one more container than it already holds.
///
/// The consequences are exactly DRF's: with free capacity everyone is
/// admitted (total demand fits, so every backlog is fully granted); under
/// contention each tenant is capped at its dominant share — a saturating
/// tenant exhausts its share and is shed with retryable RESOURCE_EXHAUSTED
/// while a light tenant's trickle always fits inside its own untouched
/// share. A tenant issuing expensive requests (high EMA cost) has cpu-ms as
/// its dominant resource and receives proportionally fewer slots than a
/// cheap-request tenant, without any hand-tuned per-tenant quota.
///
/// Bounded: names first seen once kMaxTenants entries exist are accounted
/// under one "overflow" entry. Entries are never removed, so every call
/// maps a name to the same entry.
class TenantRegistry {
 public:
  static constexpr std::size_t kMaxTenants = 1024;

  struct Options {
    /// Queue slots the synthetic DRF cluster advertises — the service's
    /// max_queue_depth.
    int capacity_slots = 256;
    /// Weight of the newest request cost in the per-tenant EMA.
    double ema_alpha = 0.2;
    /// EMA seed for tenants that have not completed a request yet.
    double initial_cost_ms = 10.0;
  };

  struct TenantStats {
    std::string name;
    /// Slots held while executing on a worker.
    int inflight = 0;
    /// Slots held while waiting in the admission queue.
    int queued = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    /// Requests rejected for this tenant (fair-share + overload + global
    /// queue sheds).
    std::uint64_t shed_total = 0;
    /// Total execution time consumed, milliseconds.
    double cpu_ms = 0.0;
    /// EMA of per-request execution cost, the DRF "memory" demand.
    double ema_cost_ms = 0.0;
  };

  TenantRegistry();
  explicit TenantRegistry(Options options);

  /// Fair-share admission for one request of `tenant`. On Ok the tenant
  /// holds one queued slot (released via OnExecuteStart + OnDone).
  /// Rejections are RESOURCE_EXHAUSTED (retryable) and count into
  /// shed_total.
  Status Admit(const std::string& tenant);

  /// Moves one slot of `tenant` from queued to in-flight (worker dequeue).
  void OnExecuteStart(const std::string& tenant);

  /// Releases the in-flight slot and records the outcome. `cpu_ms` is the
  /// request's execution time (not queue wait) and feeds both the lifetime
  /// total and the EMA cost that prices future admissions.
  void OnDone(const std::string& tenant, bool ok, double cpu_ms);

  /// Counts a shed — and its arrival — that happened before Admit granted a
  /// slot (global queue full, overload controller), so `submitted` always
  /// means arrivals: submitted == completed + failed + shed_total + held.
  void OnShed(const std::string& tenant);

  /// Snapshot of every tenant entry, name-ordered.
  std::vector<TenantStats> Stats() const;

  /// Canonical tenant name for a wire field (empty -> "default").
  static const std::string& Canonical(const std::string& tenant);

 private:
  struct Entry {
    int inflight = 0;
    int queued = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed_total = 0;
    double cpu_ms = 0.0;
    double ema_cost_ms = 0.0;
  };

  Entry& Find(const std::string& tenant);  // mutex_ held

  Options options_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> tenants_;
};

}  // namespace dagperf

#endif  // DAGPERF_SERVICE_TENANCY_H_
