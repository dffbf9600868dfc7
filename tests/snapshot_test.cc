// Warm-state snapshot tests (model/snapshot.h): property-style round-trips
// (save -> load must reproduce every checkpoint bit-exactly, and an
// estimator resuming from the restored store must answer bit-identically to
// one resuming from the original), plus corruption rejection — truncation
// at every prefix length, single-bit flips at every byte, stale formats
// (including the memo-bearing v2 layout) and trailing bytes must fail
// cleanly with the store untouched.

#include "model/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/resources.h"
#include "model/incremental.h"
#include "model/state_estimator.h"
#include "model/task_time_source.h"
#include "workloads/micro.h"

namespace dagperf {
namespace {

const ClusterSpec kCluster = ClusterSpec::PaperCluster();
const SchedulerConfig kSched;

/// Per-test temp path under the build tree; removed on destruction.
struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name) : path("snapshot_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A checkpoint with every vector non-empty and doubles that would betray
/// any text/rounding round-trip (1/3, denormal-adjacent, huge magnitudes).
/// `key` may be any string; `seconds` varies the content.
std::shared_ptr<const EstimatorCheckpoint> Synthetic(const std::string& key,
                                                     double seconds) {
  auto cp = std::make_shared<EstimatorCheckpoint>();
  cp->key = key;
  cp->done = {0, 2};
  cp->jobs = {0, 1, 2};
  StageDynState running;
  running.ready = 1;
  running.not_started = 1.0 / 3.0;
  running.start_time = 1e-308;
  running.end_time = seconds;
  running.wave_count = 1;
  cp->stage_state = {running, StageDynState{}};
  cp->waves = {{0.1 + 0.2, 2.718281828459045, true}};
  cp->now = seconds;
  cp->next_state_index = 7;
  StateEstimate state;
  state.index = 3;
  state.start = 98765.4321;
  state.duration = 1e17;
  state.running_count = 1;
  state.critical = 0;
  cp->states = {state};
  RunningStageEstimate stage;
  stage.job = 2;
  stage.kind = StageKind::kReduce;
  stage.parallelism = 128;
  stage.task_time_s = 1.0 / 7.0;
  stage.has_attribution = true;
  stage.bottleneck = Resource::kNetwork;
  for (int r = 0; r < kNumResources; ++r) {
    stage.utilization.values[static_cast<std::size_t>(r)] = 0.25 * r + 1e-9;
  }
  cp->running_pool = {stage};
  cp->stages = {{0, StageKind::kMap, 0.5, seconds}};
  return cp;
}

/// Field-by-field, bit-for-bit equality of two checkpoints.
void ExpectSameCheckpoint(const EstimatorCheckpoint& a,
                          const EstimatorCheckpoint& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.done, b.done);
  EXPECT_EQ(a.jobs, b.jobs);
  ASSERT_EQ(a.stage_state.size(), b.stage_state.size());
  for (std::size_t i = 0; i < a.stage_state.size(); ++i) {
    const StageDynState& x = a.stage_state[i];
    const StageDynState& y = b.stage_state[i];
    EXPECT_EQ(x.ready, y.ready);
    EXPECT_EQ(x.complete, y.complete);
    EXPECT_EQ(x.not_started, y.not_started);
    EXPECT_EQ(x.start_time, y.start_time);
    EXPECT_EQ(x.end_time, y.end_time);
    EXPECT_EQ(x.wave_begin, y.wave_begin);
    EXPECT_EQ(x.wave_count, y.wave_count);
  }
  ASSERT_EQ(a.waves.size(), b.waves.size());
  for (std::size_t i = 0; i < a.waves.size(); ++i) {
    EXPECT_EQ(a.waves[i].size, b.waves[i].size);
    EXPECT_EQ(a.waves[i].frac, b.waves[i].frac);
    EXPECT_EQ(a.waves[i].is_last, b.waves[i].is_last);
  }
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.next_state_index, b.next_state_index);
  ASSERT_EQ(a.states.size(), b.states.size());
  for (std::size_t i = 0; i < a.states.size(); ++i) {
    EXPECT_EQ(a.states[i].index, b.states[i].index);
    EXPECT_EQ(a.states[i].start, b.states[i].start);
    EXPECT_EQ(a.states[i].duration, b.states[i].duration);
    EXPECT_EQ(a.states[i].running_begin, b.states[i].running_begin);
    EXPECT_EQ(a.states[i].running_count, b.states[i].running_count);
    EXPECT_EQ(a.states[i].critical, b.states[i].critical);
  }
  ASSERT_EQ(a.running_pool.size(), b.running_pool.size());
  for (std::size_t i = 0; i < a.running_pool.size(); ++i) {
    const RunningStageEstimate& x = a.running_pool[i];
    const RunningStageEstimate& y = b.running_pool[i];
    EXPECT_EQ(x.job, y.job);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.parallelism, y.parallelism);
    EXPECT_EQ(x.task_time_s, y.task_time_s);
    EXPECT_EQ(x.has_attribution, y.has_attribution);
    EXPECT_EQ(x.bottleneck, y.bottleneck);
    EXPECT_EQ(x.utilization.values, y.utilization.values);
  }
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].job, b.stages[i].job);
    EXPECT_EQ(a.stages[i].kind, b.stages[i].kind);
    EXPECT_EQ(a.stages[i].start, b.stages[i].start);
    EXPECT_EQ(a.stages[i].end, b.stages[i].end);
  }
}

std::map<std::string, std::shared_ptr<const EstimatorCheckpoint>> ByKey(
    const PrefixCheckpointStore& store) {
  std::map<std::string, std::shared_ptr<const EstimatorCheckpoint>> out;
  for (const auto& checkpoint : store.Export()) out[checkpoint->key] = checkpoint;
  return out;
}

/// Three synthetic checkpoints, one of them keyed with bytes a line-based
/// format would mangle.
void FillSynthetic(PrefixCheckpointStore* store) {
  store->Import({Synthetic("cluster#wc/map|128", 1.0 / 3.0),
                 Synthetic("cluster#ts/reduce|7", 2.0),
                 Synthetic("other scope with spaces \n and newline#x|1",
                           98765.4321)});
}

DagWorkflow ChainFlow(int reducers) {
  DagBuilder builder("chain-r" + std::to_string(reducers));
  const JobId a = builder.AddJob(WordCountSpec(Bytes::FromGB(20)));
  const JobId b = builder.AddJobAfter(a, TsSpec(Bytes::FromGB(10)));
  JobSpec last = TsSpec(Bytes::FromGB(5));
  last.num_reduce_tasks = reducers;
  builder.AddJobAfter(b, last);
  return std::move(builder).Build().value();
}

/// A store holding the real checkpoints of one chain estimate.
void FillWithRealCheckpoints(PrefixCheckpointStore* store) {
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  EstimatorOptions options;
  options.checkpoints = store;
  (void)StateBasedEstimator(kCluster, kSched, options)
      .Estimate(ChainFlow(8), source)
      .value();
}

void ExpectIdentical(const DagEstimate& a, const DagEstimate& b) {
  EXPECT_EQ(a.makespan.seconds(), b.makespan.seconds());
  ASSERT_EQ(a.states.size(), b.states.size());
  for (size_t s = 0; s < a.states.size(); ++s) {
    EXPECT_EQ(a.states[s].start, b.states[s].start);
    EXPECT_EQ(a.states[s].duration, b.states[s].duration);
  }
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t s = 0; s < a.stages.size(); ++s) {
    EXPECT_EQ(a.stages[s].start, b.stages[s].start);
    EXPECT_EQ(a.stages[s].end, b.stages[s].end);
  }
}

TEST(SnapshotTest, CheckpointsRoundTripBitExactly) {
  TempPath file("roundtrip");
  PrefixCheckpointStore store;
  FillSynthetic(&store);
  FillWithRealCheckpoints(&store);
  const std::size_t stored = store.stats().entries;
  ASSERT_GT(stored, 3u);

  SnapshotStats saved;
  ASSERT_TRUE(SaveWarmSnapshot(file.path, store, &saved).ok());
  EXPECT_EQ(saved.checkpoints, stored);
  EXPECT_GT(saved.bytes, 0u);

  PrefixCheckpointStore restored;
  SnapshotStats loaded;
  ASSERT_TRUE(LoadWarmSnapshot(file.path, &restored, &loaded).ok());
  EXPECT_EQ(loaded.checkpoints, saved.checkpoints);
  EXPECT_EQ(loaded.bytes, saved.bytes);
  EXPECT_EQ(restored.stats().bytes, store.stats().bytes);

  // Bit-exact: every key, flag, integer and double must come back with ==
  // equality (no text round-trip slop permitted by the format).
  const auto original = ByKey(store);
  const auto back = ByKey(restored);
  ASSERT_EQ(back.size(), original.size());
  for (const auto& [key, checkpoint] : original) {
    ASSERT_TRUE(back.count(key)) << key;
    ExpectSameCheckpoint(*checkpoint, *back.at(key));
  }
}

TEST(SnapshotTest, RestoredCheckpointsResumeBitIdentically) {
  TempPath file("checkpoint_resume");
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));

  // Warm a store with real checkpoints, and keep the warm-resume answer the
  // restored store must reproduce.
  PrefixCheckpointStore store;
  EstimatorOptions options;
  options.checkpoints = &store;
  const StateBasedEstimator estimator(kCluster, kSched, options);
  (void)estimator.Estimate(ChainFlow(8), source).value();
  const DagEstimate warm = estimator.Estimate(ChainFlow(16), source).value();
  ASSERT_GT(store.stats().entries, 0u);

  ASSERT_TRUE(SaveWarmSnapshot(file.path, store, nullptr).ok());

  PrefixCheckpointStore restored;
  ASSERT_TRUE(LoadWarmSnapshot(file.path, &restored, nullptr).ok());
  EXPECT_EQ(restored.stats().entries, store.stats().entries);
  EXPECT_EQ(restored.stats().bytes, store.stats().bytes);

  // A fresh estimator resuming from the restored store must (a) actually
  // resume and (b) produce the exact same bits as the original warm run.
  EstimatorOptions resumed_options;
  resumed_options.checkpoints = &restored;
  const StateBasedEstimator resumed_estimator(kCluster, kSched,
                                              resumed_options);
  const DagEstimate resumed =
      resumed_estimator.Estimate(ChainFlow(16), source).value();
  EXPECT_GT(restored.stats().resumed_states, 0u);
  ExpectIdentical(warm, resumed);
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  PrefixCheckpointStore store;
  const Status status =
      LoadWarmSnapshot("snapshot_test_never_written", &store, nullptr);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST(SnapshotTest, EveryTruncationRejectsAndLeavesStoreUntouched) {
  TempPath file("truncate");
  PrefixCheckpointStore store;
  FillSynthetic(&store);
  FillWithRealCheckpoints(&store);
  ASSERT_TRUE(SaveWarmSnapshot(file.path, store, nullptr).ok());
  const std::string full = ReadFile(file.path);
  ASSERT_GT(full.size(), 64u);

  // Every strict prefix must be rejected: the header checks catch short
  // headers and payload-size mismatches, and nothing may be imported.
  // Stride keeps the loop fast on large payloads while still covering the
  // header region byte-by-byte.
  for (std::size_t cut = 0; cut < full.size();
       cut += (cut < 64 ? 1 : 97)) {
    WriteFile(file.path, full.substr(0, cut));
    PrefixCheckpointStore target;
    const Status status = LoadWarmSnapshot(file.path, &target, nullptr);
    EXPECT_FALSE(status.ok()) << "truncation at " << cut << " was accepted";
    EXPECT_EQ(target.stats().entries, 0u) << "partial import at " << cut;
  }
}

TEST(SnapshotTest, EveryBitFlipRejectsCleanly) {
  TempPath file("bitflip");
  PrefixCheckpointStore store;
  FillSynthetic(&store);
  ASSERT_TRUE(SaveWarmSnapshot(file.path, store, nullptr).ok());
  const std::string full = ReadFile(file.path);

  for (std::size_t at = 0; at < full.size(); ++at) {
    std::string bent = full;
    bent[at] = static_cast<char>(bent[at] ^ 0x10);
    WriteFile(file.path, bent);
    PrefixCheckpointStore target;
    const Status status = LoadWarmSnapshot(file.path, &target, nullptr);
    // A flip in the magic / version / layout header rejects as corrupt or
    // stale; a flip anywhere else trips the checksum. Never OK, never a
    // partial import, never a crash.
    EXPECT_FALSE(status.ok()) << "bit flip at byte " << at << " was accepted";
    EXPECT_EQ(target.stats().entries, 0u);
  }
}

TEST(SnapshotTest, StaleFormatAndResourceLayoutAreFailedPrecondition) {
  TempPath file("stale");
  PrefixCheckpointStore store;
  FillSynthetic(&store);
  ASSERT_TRUE(SaveWarmSnapshot(file.path, store, nullptr).ok());
  const std::string full = ReadFile(file.path);

  // Format version lives at offset 8, resource count at offset 12 (header
  // layout documented in model/snapshot.h).
  std::string future = full;
  future[8] = static_cast<char>(future[8] + 1);
  WriteFile(file.path, future);
  PrefixCheckpointStore target;
  EXPECT_EQ(LoadWarmSnapshot(file.path, &target, nullptr).code(),
            ErrorCode::kFailedPrecondition);

  std::string other_layout = full;
  other_layout[12] = static_cast<char>(other_layout[12] + 1);
  WriteFile(file.path, other_layout);
  EXPECT_EQ(LoadWarmSnapshot(file.path, &target, nullptr).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(target.stats().entries, 0u);
}

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

template <typename T>
void Put(std::string& out, T value) {
  char bits[sizeof(T)];
  std::memcpy(bits, &value, sizeof(T));
  out.append(bits, sizeof(T));
}

TEST(SnapshotTest, MemoBearingV2FileIsStaleAndLeavesStoreUntouched) {
  // A well-formed v2 file, as the previous format wrote it: the header,
  // then a task-time memo section ahead of the checkpoints, with a valid
  // checksum over the whole payload.
  TempPath file("v2");
  PrefixCheckpointStore donor;
  FillSynthetic(&donor);
  ASSERT_TRUE(SaveWarmSnapshot(file.path, donor, nullptr).ok());
  const std::string v3 = ReadFile(file.path);
  constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;
  ASSERT_GT(v3.size(), kHeaderBytes);

  std::string payload;
  Put<std::uint64_t>(payload, 1);  // One memo entry.
  const std::string memo_key = "cluster#stage|0";
  Put<std::uint64_t>(payload, memo_key.size());
  payload += memo_key;
  Put<std::uint8_t>(payload, 1);  // has_time.
  Put<double>(payload, 1.0 / 3.0);
  Put<double>(payload, 0.0);
  Put<double>(payload, 0.0);
  payload += v3.substr(kHeaderBytes);  // The checkpoint section.
  std::string v2(v3.data(), 8);
  Put<std::uint32_t>(v2, 2);
  Put<std::uint32_t>(v2, static_cast<std::uint32_t>(kNumResources));
  Put<std::uint64_t>(v2, payload.size());
  Put<std::uint64_t>(v2, Fnv1a64(payload));
  v2 += payload;
  WriteFile(file.path, v2);

  PrefixCheckpointStore target;
  target.Import({Synthetic("pre#existing", 5.0)});
  const PrefixCheckpointStore::Stats before = target.stats();
  SnapshotStats stats;
  const Status status = LoadWarmSnapshot(file.path, &target, &stats);
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition) << status.ToString();
  EXPECT_NE(status.message().find("format v2"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(stats.checkpoints, 0u);
  EXPECT_EQ(target.stats().entries, before.entries);
  EXPECT_EQ(target.stats().bytes, before.bytes);
  ASSERT_EQ(target.Export().size(), 1u);
  EXPECT_EQ(target.Export()[0]->key, "pre#existing");
}

TEST(SnapshotTest, TrailingBytesAreRejected) {
  TempPath file("trailing");
  PrefixCheckpointStore store;
  FillSynthetic(&store);
  ASSERT_TRUE(SaveWarmSnapshot(file.path, store, nullptr).ok());
  WriteFile(file.path, ReadFile(file.path) + "x");
  PrefixCheckpointStore target;
  const Status status = LoadWarmSnapshot(file.path, &target, nullptr);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(target.stats().entries, 0u);
}

TEST(SnapshotTest, ImportIntoWarmStoreIsFirstWins) {
  TempPath file("firstwins");
  PrefixCheckpointStore store;
  FillSynthetic(&store);
  ASSERT_TRUE(SaveWarmSnapshot(file.path, store, nullptr).ok());

  // The target already holds one of the keys with different content; the
  // loaded checkpoint must not clobber it.
  PrefixCheckpointStore target;
  target.Import({Synthetic("cluster#wc/map|128", 42.0)});
  ASSERT_TRUE(LoadWarmSnapshot(file.path, &target, nullptr).ok());

  const auto entries = ByKey(target);
  ASSERT_EQ(entries.size(), 3u);
  ASSERT_TRUE(entries.count("cluster#wc/map|128"));
  EXPECT_EQ(entries.at("cluster#wc/map|128")->now, 42.0);
}

}  // namespace
}  // namespace dagperf
