// Direct library calls: the reference answers the output check compares the
// served answers with, and the traced per-layer probe, which times the
// public entry point of each layer from outside.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <map>
#include <string>

#include "loadgen.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

// `load` answered a prefix of `workload.requests`.
//
// Compares every answered request's makespan (every candidate of a sweep)
// bit for bit with a direct StateBasedEstimator::Estimate on the same flow,
// cluster and node count. Returns the number of mismatching requests and
// describes the first in *first_mismatch.
std::size_t VerifyAnswers(const Workload& workload, const LoadResult& load,
                          int threads, std::string* first_mismatch);

// Runs up to `sample` of the requests `load` saw answered through in-process
// copies of each layer, with a span around every call, and returns the
// per-layer medians (microseconds per request unless the name says
// otherwise). Layers a workload does not exercise report 0.
std::map<std::string, double> ProbeLayers(const Workload& workload,
                                          const LoadResult& load,
                                          std::size_t sample,
                                          dagperf::obs::TraceRecorder* trace);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
