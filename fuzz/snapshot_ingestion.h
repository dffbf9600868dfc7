#ifndef DAGPERF_FUZZ_SNAPSHOT_INGESTION_H_
#define DAGPERF_FUZZ_SNAPSHOT_INGESTION_H_

#include <cstddef>
#include <cstdint>

namespace dagperf {

/// Shared fuzz entry point for warm-snapshot files (model/snapshot.h):
/// decodes `data` as a DPWARM01 file, then decodes it again as the payload
/// of a well-formed header (matching size and checksum), so the record
/// parser behind the checksum is reachable too. No input may abort, throw
/// or read out of bounds, and every decode the loader accepts must survive
/// Import -> Export -> SaveWarmSnapshot -> LoadWarmSnapshot with the same
/// store entry count (traps otherwise).
///
/// Used by both the libFuzzer harness (snapshot_fuzzer.cc) and the
/// checked-in corpus replay test (corpus_replay --snapshot over
/// corpus_snapshot/). Always returns 0.
int RunSnapshotIngestion(const uint8_t* data, size_t size);

}  // namespace dagperf

#endif  // DAGPERF_FUZZ_SNAPSHOT_INGESTION_H_
