// Warm-state snapshot tests (model/snapshot.h): property-style round-trips
// (save -> load must reproduce every memo entry and checkpoint bit-exactly,
// and an estimator resuming from the restored store must answer
// bit-identically to one resuming from the original), plus corruption
// rejection — truncation at every prefix length and single-bit flips at
// every byte must fail cleanly with the stores untouched.

#include "model/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

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

/// Memo entries exercising every flag combination and doubles that would
/// betray any text/rounding round-trip (1/3, denormal-adjacent, negative
/// stddev never occurs but huge magnitudes do).
std::vector<TaskTimeMemo::ExportedEntry> SyntheticEntries() {
  std::vector<TaskTimeMemo::ExportedEntry> entries;
  TaskTimeMemo::ExportedEntry a;
  a.key = "cluster|wc/map|128";
  a.time = Duration::Seconds(1.0 / 3.0);
  a.has_time = true;
  entries.push_back(a);
  TaskTimeMemo::ExportedEntry b;
  b.key = "cluster|ts/reduce|7";
  b.dist = {1e-308, 2.718281828459045};
  b.has_dist = true;
  entries.push_back(b);
  TaskTimeMemo::ExportedEntry c;
  c.key = "other scope with spaces \n and newline|x|1";
  c.time = Duration::Seconds(98765.4321);
  c.dist = {0.1 + 0.2, 1e17};
  c.has_time = true;
  c.has_dist = true;
  entries.push_back(c);
  return entries;
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

TEST(SnapshotTest, MemoEntriesRoundTripBitExactly) {
  TempPath file("memo_roundtrip");
  TaskTimeMemo memo;
  memo.Import(SyntheticEntries());

  PrefixCheckpointStore empty_store;
  SnapshotStats saved;
  ASSERT_TRUE(
      SaveWarmSnapshot(file.path, memo, empty_store, &saved).ok());
  EXPECT_EQ(saved.memo_entries, 3u);
  EXPECT_EQ(saved.checkpoints, 0u);
  EXPECT_GT(saved.bytes, 0u);

  TaskTimeMemo restored;
  PrefixCheckpointStore restored_store;
  SnapshotStats loaded;
  ASSERT_TRUE(
      LoadWarmSnapshot(file.path, &restored, &restored_store, &loaded).ok());
  EXPECT_EQ(loaded.memo_entries, saved.memo_entries);
  EXPECT_EQ(loaded.bytes, saved.bytes);

  // Bit-exact: every key, flag, and double must come back with == equality
  // (no text round-trip slop permitted by the format).
  std::map<std::string, TaskTimeMemo::ExportedEntry> by_key;
  for (const auto& entry : restored.Export()) by_key[entry.key] = entry;
  for (const auto& original : memo.Export()) {
    ASSERT_TRUE(by_key.count(original.key)) << original.key;
    const TaskTimeMemo::ExportedEntry& back = by_key[original.key];
    EXPECT_EQ(original.has_time, back.has_time);
    EXPECT_EQ(original.has_dist, back.has_dist);
    EXPECT_EQ(original.time.seconds(), back.time.seconds());
    EXPECT_EQ(original.dist.mean, back.dist.mean);
    EXPECT_EQ(original.dist.stddev, back.dist.stddev);
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

  TaskTimeMemo memo;
  ASSERT_TRUE(SaveWarmSnapshot(file.path, memo, store, nullptr).ok());

  TaskTimeMemo restored_memo;
  PrefixCheckpointStore restored;
  ASSERT_TRUE(
      LoadWarmSnapshot(file.path, &restored_memo, &restored, nullptr).ok());
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
  TaskTimeMemo memo;
  PrefixCheckpointStore store;
  const Status status =
      LoadWarmSnapshot("snapshot_test_never_written", &memo, &store, nullptr);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST(SnapshotTest, EveryTruncationRejectsAndLeavesStoresUntouched) {
  TempPath file("truncate");
  TaskTimeMemo memo;
  memo.Import(SyntheticEntries());
  PrefixCheckpointStore store;
  {
    const BoeModel boe(kCluster.node);
    const BoeTaskTimeSource source(boe, Duration::Seconds(1));
    EstimatorOptions options;
    options.checkpoints = &store;
    (void)StateBasedEstimator(kCluster, kSched, options)
        .Estimate(ChainFlow(8), source)
        .value();
  }
  ASSERT_TRUE(SaveWarmSnapshot(file.path, memo, store, nullptr).ok());
  const std::string full = ReadFile(file.path);
  ASSERT_GT(full.size(), 64u);

  // Every strict prefix must be rejected: the header checks catch short
  // headers and payload-size mismatches, and nothing may be imported.
  // Stride keeps the loop fast on large payloads while still covering the
  // header region byte-by-byte.
  for (std::size_t cut = 0; cut < full.size();
       cut += (cut < 64 ? 1 : 97)) {
    WriteFile(file.path, full.substr(0, cut));
    TaskTimeMemo target;
    PrefixCheckpointStore target_store;
    const Status status =
        LoadWarmSnapshot(file.path, &target, &target_store, nullptr);
    EXPECT_FALSE(status.ok()) << "truncation at " << cut << " was accepted";
    EXPECT_EQ(target.Export().size(), 0u) << "partial import at " << cut;
    EXPECT_EQ(target_store.stats().entries, 0u) << "partial import at " << cut;
  }
}

TEST(SnapshotTest, EveryBitFlipRejectsCleanly) {
  TempPath file("bitflip");
  TaskTimeMemo memo;
  memo.Import(SyntheticEntries());
  PrefixCheckpointStore store;
  ASSERT_TRUE(SaveWarmSnapshot(file.path, memo, store, nullptr).ok());
  const std::string full = ReadFile(file.path);

  for (std::size_t at = 0; at < full.size(); ++at) {
    std::string bent = full;
    bent[at] = static_cast<char>(bent[at] ^ 0x10);
    WriteFile(file.path, bent);
    TaskTimeMemo target;
    PrefixCheckpointStore target_store;
    const Status status =
        LoadWarmSnapshot(file.path, &target, &target_store, nullptr);
    // A flip in the magic / version / layout header rejects as corrupt or
    // stale; a flip anywhere else trips the checksum. Never OK, never a
    // partial import, never a crash.
    EXPECT_FALSE(status.ok()) << "bit flip at byte " << at << " was accepted";
    EXPECT_EQ(target.Export().size(), 0u);
    EXPECT_EQ(target_store.stats().entries, 0u);
  }
}

TEST(SnapshotTest, StaleFormatAndResourceLayoutAreFailedPrecondition) {
  TempPath file("stale");
  TaskTimeMemo memo;
  memo.Import(SyntheticEntries());
  PrefixCheckpointStore store;
  ASSERT_TRUE(SaveWarmSnapshot(file.path, memo, store, nullptr).ok());
  const std::string full = ReadFile(file.path);

  // Format version lives at offset 8, resource count at offset 12 (header
  // layout documented in model/snapshot.h).
  std::string future = full;
  future[8] = static_cast<char>(future[8] + 1);
  WriteFile(file.path, future);
  TaskTimeMemo target;
  PrefixCheckpointStore target_store;
  EXPECT_EQ(
      LoadWarmSnapshot(file.path, &target, &target_store, nullptr).code(),
      ErrorCode::kFailedPrecondition);

  std::string other_layout = full;
  other_layout[12] = static_cast<char>(other_layout[12] + 1);
  WriteFile(file.path, other_layout);
  EXPECT_EQ(
      LoadWarmSnapshot(file.path, &target, &target_store, nullptr).code(),
      ErrorCode::kFailedPrecondition);
}

TEST(SnapshotTest, TrailingBytesAreRejected) {
  TempPath file("trailing");
  TaskTimeMemo memo;
  memo.Import(SyntheticEntries());
  PrefixCheckpointStore store;
  ASSERT_TRUE(SaveWarmSnapshot(file.path, memo, store, nullptr).ok());
  WriteFile(file.path, ReadFile(file.path) + "x");
  TaskTimeMemo target;
  PrefixCheckpointStore target_store;
  const Status status =
      LoadWarmSnapshot(file.path, &target, &target_store, nullptr);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(target.Export().size(), 0u);
}

TEST(SnapshotTest, ImportIntoWarmStoresIsFirstWins) {
  TempPath file("firstwins");
  TaskTimeMemo memo;
  memo.Import(SyntheticEntries());
  PrefixCheckpointStore store;
  ASSERT_TRUE(SaveWarmSnapshot(file.path, memo, store, nullptr).ok());

  // The target already knows one of the keys with a different value; the
  // loaded entry must not clobber it.
  TaskTimeMemo target;
  TaskTimeMemo::ExportedEntry mine;
  mine.key = "cluster|wc/map|128";
  mine.time = Duration::Seconds(42.0);
  mine.has_time = true;
  target.Import({mine});
  PrefixCheckpointStore target_store;
  ASSERT_TRUE(LoadWarmSnapshot(file.path, &target, &target_store, nullptr).ok());

  bool found = false;
  for (const auto& entry : target.Export()) {
    if (entry.key == mine.key) {
      found = true;
      EXPECT_EQ(entry.time.seconds(), 42.0);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(target.Export().size(), 3u);
}

TEST(SnapshotTest, BatchedMemoFillServesEveryQueryAndRoundTrips) {
  // One memoised TaskTimes() stores an entry per running stage: every
  // per-query TaskTime() then hits, and the snapshot survives a round trip.
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const DagWorkflow flow = ChainFlow(16);
  EstimationContext ctx;
  const double populations[] = {2.5, 0.75, 4.0};
  for (JobId id = 0; id < flow.num_jobs(); ++id) {
    ctx.running.push_back({&flow.job(id).map, populations[id % 3]});
  }

  TaskTimeMemo memo;
  const MemoizedTaskTimeSource memoized(source, &memo, "scope");
  std::vector<Duration> times;
  memoized.TaskTimes(ctx, &times);
  ASSERT_EQ(times.size(), ctx.running.size());
  EXPECT_EQ(memo.stats().misses, ctx.running.size());
  EXPECT_EQ(memo.stats().entries, ctx.running.size());

  for (size_t q = 0; q < ctx.running.size(); ++q) {
    ctx.query = q;
    EXPECT_EQ(memoized.TaskTime(ctx).seconds(), times[q].seconds());
    EXPECT_EQ(memoized.TaskTime(ctx).seconds(), source.TaskTime(ctx).seconds());
  }
  // Each TaskTime() probes the whole state; every probe hits.
  EXPECT_EQ(memo.stats().misses, ctx.running.size());
  EXPECT_EQ(memo.stats().hits, 2 * ctx.running.size() * ctx.running.size());

  const PrefixCheckpointStore no_checkpoints;
  TempPath saved_path("saved");
  TempPath restored_path("restored");
  ASSERT_TRUE(SaveWarmSnapshot(saved_path.path, memo, no_checkpoints).ok());
  TaskTimeMemo restored;
  PrefixCheckpointStore restored_checkpoints;
  ASSERT_TRUE(
      LoadWarmSnapshot(saved_path.path, &restored, &restored_checkpoints).ok());
  ASSERT_TRUE(
      SaveWarmSnapshot(restored_path.path, restored, restored_checkpoints).ok());
  EXPECT_EQ(ReadFile(restored_path.path), ReadFile(saved_path.path));
}

}  // namespace
}  // namespace dagperf
