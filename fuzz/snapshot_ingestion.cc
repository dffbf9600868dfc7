#include "snapshot_ingestion.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>

#include "model/incremental.h"
#include "model/snapshot.h"

namespace dagperf {

namespace {

/// Where the round trip writes its file: one per process, so parallel
/// fuzzing jobs never share it.
const std::string& ScratchPath() {
  static const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dagperf_snapshot_fuzz_" + std::to_string(::getpid()) + ".snapshot"))
          .string();
  return path;
}

/// The header fields that precede the payload size (magic, format version,
/// resource count), taken from a file this binary writes, so a wrapped
/// input is never rejected as stale.
const std::string& HeaderPrefix() {
  static const std::string prefix = [] {
    const PrefixCheckpointStore empty;
    if (!SaveWarmSnapshot(ScratchPath(), empty).ok()) __builtin_trap();
    std::FILE* file = std::fopen(ScratchPath().c_str(), "rb");
    if (file == nullptr) __builtin_trap();
    std::string bytes(16, '\0');
    const std::size_t read = std::fread(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
    std::remove(ScratchPath().c_str());
    if (read != bytes.size()) __builtin_trap();
    return bytes;
  }();
  return prefix;
}

void AppendU64(std::string& out, std::uint64_t value) {
  char bits[sizeof(value)];
  std::memcpy(bits, &value, sizeof(value));
  out.append(bits, sizeof(value));
}

/// `payload` behind a header whose size and FNV-1a64 checksum match it.
std::string Wrapped(std::string_view payload) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : payload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  std::string file = HeaderPrefix();
  AppendU64(file, payload.size());
  AppendU64(file, hash);
  file.append(payload);
  return file;
}

/// Decodes `bytes`; when the decoder accepts them, the imported store must
/// come back from a save and load with the same entry count.
void DecodeAndRoundTrip(std::string_view bytes) {
  auto decoded = DecodeWarmSnapshot(bytes, "fuzz input");
  if (!decoded.ok()) return;
  PrefixCheckpointStore imported;
  imported.Import(decoded.value());
  if (!SaveWarmSnapshot(ScratchPath(), imported).ok()) __builtin_trap();
  PrefixCheckpointStore loaded;
  const Status status = LoadWarmSnapshot(ScratchPath(), &loaded);
  std::remove(ScratchPath().c_str());
  if (!status.ok() ||
      loaded.stats().entries != imported.stats().entries) {
    __builtin_trap();
  }
}

}  // namespace

int RunSnapshotIngestion(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  DecodeAndRoundTrip(bytes);
  DecodeAndRoundTrip(Wrapped(bytes));
  return 0;
}

}  // namespace dagperf
