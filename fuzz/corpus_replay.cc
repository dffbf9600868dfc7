// Replays every file under the corpus directories given on the command line
// through a fuzz entry point, as an ordinary ctest. This keeps the corpora
// (including minimised crash inputs from past fuzz runs) exercised on every
// build, without requiring a fuzzer-enabled toolchain.
//
// Directories are replayed through the spec-ingestion entry point by
// default; a directory preceded by --protocol goes through the NDJSON
// protocol entry point instead, and one preceded by --snapshot through the
// warm-snapshot entry point:
//   corpus_replay fuzz/corpus --protocol fuzz/corpus_protocol
//       --snapshot fuzz/corpus_snapshot

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "protocol_ingestion.h"
#include "snapshot_ingestion.h"
#include "spec_ingestion.h"

namespace fs = std::filesystem;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: corpus_replay [--spec|--protocol|--snapshot] "
                 "CORPUS_DIR...\n");
    return 2;
  }
  int replayed = 0;
  int (*entry)(const std::uint8_t*, std::size_t) = dagperf::RunSpecIngestion;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--spec") == 0) {
      entry = dagperf::RunSpecIngestion;
      continue;
    }
    if (std::strcmp(argv[i], "--protocol") == 0) {
      entry = dagperf::RunProtocolIngestion;
      continue;
    }
    if (std::strcmp(argv[i], "--snapshot") == 0) {
      entry = dagperf::RunSnapshotIngestion;
      continue;
    }
    const fs::path root(argv[i]);
    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
      std::fprintf(stderr, "not a directory: %s\n", argv[i]);
      return 2;
    }
    for (const auto& file : fs::recursive_directory_iterator(root)) {
      if (!file.is_regular_file()) continue;
      std::ifstream in(file.path(), std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", file.path().c_str());
        return 1;
      }
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      // Any abort, sanitizer report, or uncaught exception fails the test by
      // killing the process; a normal return is a pass.
      entry(reinterpret_cast<const std::uint8_t*>(bytes.data()),
            bytes.size());
      ++replayed;
    }
  }
  if (replayed == 0) {
    std::fprintf(stderr, "corpus is empty\n");
    return 1;
  }
  std::printf("replayed %d corpus inputs\n", replayed);
  return 0;
}
