#ifndef DAGPERF_DAGPERF_H_
#define DAGPERF_DAGPERF_H_

/// The dagperf public facade: the one header downstream code includes.
///
///   #include <dagperf/dagperf.h>
///
/// Everything reachable from here is the supported API surface, versioned by
/// <dagperf/version.h> and documented in docs/api.md (which also spells out
/// the stability tiers — reaching into "src/..." headers directly works but
/// carries no compatibility promise). The examples/ directory compiles
/// against this header alone; CI enforces that.

#include <dagperf/version.h>

// Stable error-code vocabulary, shared by the C++ API and the wire protocol.
#include <dagperf/error_codes.h>

// Vocabulary: units, errors, Result<T>, budgets (cancellation + deadlines).
#include "common/cancel.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/arena.h"
#include "common/units.h"
#include "common/validation.h"

// Describing work and hardware: job specs, DAG workflows, cluster shapes.
#include "cluster/cluster_spec.h"
#include "dag/dag_workflow.h"
#include "dag/spec_io.h"
#include "dag/validate.h"
#include "workload/job_profile.h"
#include "workload/job_spec.h"

// The models: BOE task costs, DRF scheduling, the state-based estimator,
// what-if sweeps, explain reports, the discrete-event simulator baseline.
#include "boe/boe_model.h"
#include "model/explain.h"
#include "model/incremental.h"
#include "model/progress.h"
#include "model/snapshot.h"
#include "model/state_estimator.h"
#include "model/sweep.h"
#include "model/task_time_cache.h"
#include "model/task_time_source.h"
#include "scheduler/drf.h"
#include "sim/simulator.h"

// Resilience: client-side retry with jittered backoff, the circuit breaker
// the router scores shards with, the CoDel-style overload/brownout
// controller, and the deterministic fault injector chaos tests drive
// (docs/robustness.md).
#include "resilience/circuit_breaker.h"
#include "resilience/fault.h"
#include "resilience/overload.h"
#include "resilience/retry.h"

// The estimation service: long-lived serving entry point + NDJSON protocol,
// per-tenant DRF fair-share admission, plus the loopback /metrics HTTP
// endpoint for Prometheus scrapes. protocol::LineClient is the client-side
// framing shared by the router, benches, and the CLI.
#include "service/line_client.h"
#include "service/metrics_http.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "service/tenancy.h"

// Fleet serving (0.9): a consistent-hash router fronting N `dagperf serve`
// shards — supervision, health-checked readmission, warm-snapshot rejoin
// (docs/architecture.md, docs/robustness.md).
#include "router/health.h"
#include "router/ring.h"
#include "router/router.h"
#include "router/supervisor.h"

// Ready-made workloads: paper micro jobs, the Table III suite, TPC-H,
// Spark-ML shapes, the web-analytics running example.
#include "workloads/micro.h"
#include "workloads/spark.h"
#include "workloads/suite.h"
#include "workloads/tpch.h"
#include "workloads/web_analytics.h"

// Execution engine (toy MapReduce used for ground-truth validation runs).
#include "engine/builtin.h"
#include "engine/datagen.h"
#include "engine/profiling.h"

// Observability: metrics registry, trace spans, per-request records +
// flight recorder, SLO sliding windows, Prometheus text rendering
// (docs/observability.md).
#include "obs/metrics.h"
#include "obs/prom.h"
#include "obs/request_record.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "obs/window.h"

#endif  // DAGPERF_DAGPERF_H_
