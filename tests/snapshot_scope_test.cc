// Scoped snapshot import (model/snapshot.h LoadWarmSnapshotForScope +
// service LoadSnapshotForScope) and the graceful-drain final-save guarantee.
// These are the router's warm-handoff building blocks: a shard rejoining the
// fleet imports only its ring-assigned scope slice, an import for a scope
// the shard does not own is refused with the warm state untouched, and a
// draining shard always leaves a restorable snapshot behind.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "boe/boe_model.h"
#include "model/incremental.h"
#include "model/snapshot.h"
#include "model/state_estimator.h"
#include "model/task_time_source.h"
#include "service/service.h"
#include "workloads/micro.h"
#include "workloads/suite.h"

namespace dagperf {
namespace {

/// Per-test temp path under the build tree; removed on destruction.
struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name)
      : path("snapshot_scope_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

bool FileExists(const std::string& path) {
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    return true;
  }
  return false;
}

/// A minimal checkpoint under `key`; `now` tells two copies apart.
std::shared_ptr<const EstimatorCheckpoint> Checkpoint(const std::string& key,
                                                      double now) {
  auto checkpoint = std::make_shared<EstimatorCheckpoint>();
  checkpoint->key = key;
  checkpoint->done = {0};
  checkpoint->jobs = {0};
  checkpoint->now = now;
  return checkpoint;
}

/// The store's checkpoints by key, in key order.
std::map<std::string, double> NowByKey(const PrefixCheckpointStore& store) {
  std::map<std::string, double> out;
  for (const auto& checkpoint : store.Export()) {
    out[checkpoint->key] = checkpoint->now;
  }
  return out;
}

/// A two-job chain whose reducers carry key skew, so skew-aware estimates
/// differ from skew-unaware ones.
DagWorkflow SkewedFlow() {
  DagBuilder builder("skewed");
  JobSpec first = WordCountSpec(Bytes::FromGB(4));
  first.reduce_skew_cv = 0.5;
  JobSpec second = TsSpec(Bytes::FromGB(2));
  second.reduce_skew_cv = 0.8;
  builder.AddJobAfter(builder.AddJob(first), second);
  return std::move(builder).Build().value();
}

DagWorkflow TestFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  EXPECT_TRUE(named.ok()) << named.status().ToString();
  return std::move(named).value().flow;
}

// ---------------------------------------------------------------------------
// Model layer: LoadWarmSnapshotForScope.

TEST(SnapshotScopeTest, ImportsOnlyTheRequestedScope) {
  TempPath file("scope_slice");
  PrefixCheckpointStore store;
  store.Import({Checkpoint("alpha#stage1", 1.0), Checkpoint("alpha#stage2", 2.0),
                Checkpoint("beta#stage1", 3.0)});
  ASSERT_TRUE(SaveWarmSnapshot(file.path, store).ok());

  PrefixCheckpointStore restored;
  SnapshotStats stats;
  ASSERT_TRUE(
      LoadWarmSnapshotForScope(file.path, "alpha", &restored, &stats).ok());
  EXPECT_EQ(stats.checkpoints, 2u);
  const std::map<std::string, double> entries = NowByKey(restored);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.begin()->first, "alpha#stage1");
  EXPECT_EQ(entries.rbegin()->first, "alpha#stage2");
}

TEST(SnapshotScopeTest, ScopeIsAPrefixMatchOnWholeScopeOnly) {
  // "alpha" must not pull in "alphabet#..." — the '#' separator is part of
  // the match, exactly as PrefixCheckpointStore::AppendGlobalFingerprint
  // writes it.
  TempPath file("scope_boundary");
  PrefixCheckpointStore store;
  store.Import({Checkpoint("alpha#x", 1.0), Checkpoint("alphabet#x", 2.0)});
  ASSERT_TRUE(SaveWarmSnapshot(file.path, store).ok());

  PrefixCheckpointStore restored;
  SnapshotStats stats;
  ASSERT_TRUE(
      LoadWarmSnapshotForScope(file.path, "alpha", &restored, &stats).ok());
  EXPECT_EQ(stats.checkpoints, 1u);
  ASSERT_EQ(restored.Export().size(), 1u);
  EXPECT_EQ(restored.Export()[0]->key, "alpha#x");
}

TEST(SnapshotScopeTest, UnmatchedScopeImportsNothingButSucceeds) {
  TempPath file("scope_empty");
  PrefixCheckpointStore store;
  store.Import({Checkpoint("alpha#x", 1.0)});
  ASSERT_TRUE(SaveWarmSnapshot(file.path, store).ok());

  PrefixCheckpointStore restored;
  SnapshotStats stats;
  ASSERT_TRUE(
      LoadWarmSnapshotForScope(file.path, "gamma", &restored, &stats).ok());
  EXPECT_EQ(stats.checkpoints, 0u);
  EXPECT_EQ(restored.stats().entries, 0u);
}

TEST(SnapshotScopeTest, FirstWinsMergeIntoNonEmptyTarget) {
  // A shard that already computed a key keeps its own answer: snapshot
  // entries never overwrite live ones (the live entry is at least as fresh,
  // and overwriting would make answers depend on import timing).
  TempPath file("first_wins");
  PrefixCheckpointStore donor;
  donor.Import({Checkpoint("alpha#shared", 99.0), Checkpoint("alpha#new", 7.0)});
  ASSERT_TRUE(SaveWarmSnapshot(file.path, donor).ok());

  PrefixCheckpointStore target;
  target.Import({Checkpoint("alpha#shared", 1.0)});
  ASSERT_TRUE(
      LoadWarmSnapshotForScope(file.path, "alpha", &target, nullptr).ok());
  const std::map<std::string, double> entries = NowByKey(target);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.at("alpha#new"), 7.0);
  EXPECT_EQ(entries.at("alpha#shared"), 1.0)
      << "snapshot overwrote a live entry";
}

TEST(SnapshotScopeTest, CorruptSnapshotRejectsWholeEvenWithValidScopeSlice) {
  TempPath file("corrupt");
  PrefixCheckpointStore store;
  store.Import({Checkpoint("alpha#x", 1.0), Checkpoint("beta#y", 2.0)});
  ASSERT_TRUE(SaveWarmSnapshot(file.path, store).ok());

  // Flip one payload bit. Validation happens before the scope filter, so
  // the load must refuse even though the "alpha" slice's bytes may be fine.
  {
    std::FILE* f = std::fopen(file.path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -3, SEEK_END);
    int byte = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(byte ^ 0x01, f);
    std::fclose(f);
  }

  PrefixCheckpointStore restored;
  restored.Import({Checkpoint("pre#existing", 5.0)});
  const Status loaded =
      LoadWarmSnapshotForScope(file.path, "alpha", &restored);
  EXPECT_FALSE(loaded.ok());
  // Target untouched: still exactly the pre-existing entry.
  const std::map<std::string, double> entries = NowByKey(restored);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.begin()->first, "pre#existing");
}

// ---------------------------------------------------------------------------
// Service layer: LoadSnapshotForScope + the graceful-drain final save.

TEST(SnapshotScopeTest, ServiceRefusesScopeItDoesNotOwn) {
  TempPath file("service_refuse");
  // Donor shard: serve one estimate under the default scope, then save.
  {
    EstimationService donor;
    ASSERT_TRUE(donor.RegisterWorkflow("q6", TestFlow()).ok());
    ASSERT_TRUE(donor.Submit(EstimateRequest::For("q6")).get().ok());
    ASSERT_TRUE(donor.SaveSnapshot(file.path).ok());
  }

  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  const std::size_t entries_before = service.Stats().incremental.entries;

  // "ghost" is not a registered cluster scope on this shard: refusing keeps
  // a misrouted warm-handoff from polluting the store with keys the ring
  // will never send this shard.
  const Status refused = service.LoadSnapshotForScope(file.path, "ghost");
  EXPECT_EQ(refused.code(), ErrorCode::kNotFound) << refused.ToString();
  EXPECT_EQ(service.Stats().incremental.entries, entries_before);

  // The registered scope imports fine.
  ASSERT_TRUE(service.LoadSnapshotForScope(file.path, "default").ok());
  EXPECT_GT(service.Stats().incremental.entries, entries_before);
}

TEST(SnapshotScopeTest, DrainAlwaysLeavesARestorableSnapshot) {
  TempPath file("drain_save");
  ServiceOptions options;
  options.snapshot_path = file.path;
  {
    EstimationService service(options);
    ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
    ASSERT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok());
    ASSERT_FALSE(FileExists(file.path))
        << "snapshot written before any drain/interval tick";
    ASSERT_TRUE(service.Drain().ok());
    EXPECT_TRUE(FileExists(file.path)) << "graceful drain must save";
  }

  PrefixCheckpointStore store;
  SnapshotStats stats;
  ASSERT_TRUE(LoadWarmSnapshot(file.path, &store, &stats).ok());
  EXPECT_GT(stats.checkpoints, 0u);
}

TEST(SnapshotScopeTest, ShutdownAndDestructorAlsoSaveExactlyOnce) {
  TempPath file("shutdown_save");
  ServiceOptions options;
  options.snapshot_path = file.path;
  {
    EstimationService service(options);
    ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
    ASSERT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok());
    service.Shutdown(1.0);
    EXPECT_TRUE(FileExists(file.path));
    // The destructor's drain must not clobber the saved state with the
    // post-reset (empty) warm state.
  }
  PrefixCheckpointStore store;
  SnapshotStats stats;
  ASSERT_TRUE(LoadWarmSnapshot(file.path, &store, &stats).ok());
  EXPECT_GT(stats.checkpoints, 0u);
}

TEST(SnapshotScopeTest, SkewUnawareSnapshotServesSkewAwareBitIdentically) {
  // A snapshot written by skew-unaware traffic, restored into a skew_aware
  // service: the restored checkpoints were captured under other estimator
  // options, so they must not be resumed, and the answer must equal a
  // direct skew-aware library call bit for bit.
  TempPath file("skew");
  {
    EstimationService donor;
    ASSERT_TRUE(donor.RegisterWorkflow("skewed", SkewedFlow()).ok());
    ASSERT_TRUE(donor.Submit(EstimateRequest::For("skewed")).get().ok());
    ASSERT_TRUE(donor.SaveSnapshot(file.path).ok());
  }

  ServiceOptions options;
  options.estimator.skew_aware = true;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("skewed", SkewedFlow()).ok());
  ASSERT_TRUE(service.LoadSnapshot(file.path).ok());
  ASSERT_GT(service.Stats().incremental.entries, 0u);
  Result<EstimateResponse> served =
      service.Submit(EstimateRequest::For("skewed")).get();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const DagEstimate& answer = served.value().estimate->estimate;
  EXPECT_EQ(answer.resumed_states, 0);
  EXPECT_EQ(service.Stats().incremental.hits, 0u);

  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  const BoeModel model(cluster.node);
  const BoeTaskTimeSource source(model, Duration::Seconds(1));
  EstimatorOptions direct_options;
  direct_options.skew_aware = true;
  const DagEstimate direct =
      StateBasedEstimator(cluster, SchedulerConfig{}, direct_options)
          .Estimate(SkewedFlow(), source)
          .value();
  EXPECT_EQ(answer.makespan.seconds(), direct.makespan.seconds());
  ASSERT_EQ(answer.states.size(), direct.states.size());
  for (std::size_t s = 0; s < direct.states.size(); ++s) {
    EXPECT_EQ(answer.states[s].start, direct.states[s].start);
    EXPECT_EQ(answer.states[s].duration, direct.states[s].duration);
  }

  // The skew-aware answer differs from the skew-unaware one the snapshot
  // was written by, so a wrongly resumed checkpoint would have shown.
  const DagEstimate unaware =
      StateBasedEstimator(cluster, SchedulerConfig{})
          .Estimate(SkewedFlow(), source)
          .value();
  EXPECT_NE(answer.makespan.seconds(), unaware.makespan.seconds());

  // A repeat resumes from the checkpoints the skew-aware request stored
  // and still answers the same bits.
  Result<EstimateResponse> repeat =
      service.Submit(EstimateRequest::For("skewed")).get();
  ASSERT_TRUE(repeat.ok());
  EXPECT_GT(repeat.value().estimate->estimate.resumed_states, 0);
  EXPECT_EQ(repeat.value().estimate->estimate.makespan.seconds(),
            direct.makespan.seconds());
}

}  // namespace
}  // namespace dagperf
