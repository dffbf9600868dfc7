#ifndef DAGPERF_VERSION_H_
#define DAGPERF_VERSION_H_

/// Version of the dagperf public API (the <dagperf/dagperf.h> facade and the
/// serve wire protocol). A MINOR bump only adds surface; a MAJOR bump may
/// remove or change it (docs/api.md lists what is stable). Compare
/// numerically:
///
///   #if DAGPERF_VERSION_MAJOR > 0 || DAGPERF_VERSION_MINOR >= 9
///     // sharded fleet serving: router::Router consistent-hash front-end,
///     // protocol::LineClient, scoped snapshot import (warm handoff)
///   #endif
#define DAGPERF_VERSION_MAJOR 4
#define DAGPERF_VERSION_MINOR 0

/// "MAJOR.MINOR" as a string literal.
#define DAGPERF_VERSION_STRING "4.0"

#endif  // DAGPERF_VERSION_H_
