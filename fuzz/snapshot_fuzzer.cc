// libFuzzer harness over warm-snapshot files. Build with
// -DDAGPERF_BUILD_FUZZERS=ON under clang; run as
//   ./snapshot_fuzzer fuzz/corpus_snapshot -max_total_time=60
// Crashes reproduce with ./snapshot_fuzzer <crash-file>; minimised inputs
// belong in fuzz/corpus_snapshot/ so the replay test pins the fix.

#include <cstddef>
#include <cstdint>

#include "snapshot_ingestion.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return dagperf::RunSnapshotIngestion(data, size);
}
