#include "model/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "model/state_estimator.h"
#include "model/task_time_source.h"
#include "obs/metrics.h"
#include "workloads/micro.h"

namespace dagperf {
namespace {

const ClusterSpec kCluster = ClusterSpec::PaperCluster();
const SchedulerConfig kSched;

/// A three-job chain whose last job carries the swept knob.
DagWorkflow ChainWithReducers(int reducers) {
  DagBuilder builder("chain-r" + std::to_string(reducers));
  const JobId a = builder.AddJob(WordCountSpec(Bytes::FromGB(20)));
  const JobId b = builder.AddJobAfter(a, TsSpec(Bytes::FromGB(10)));
  JobSpec last = TsSpec(Bytes::FromGB(5));
  last.num_reduce_tasks = reducers;
  builder.AddJobAfter(b, last);
  return std::move(builder).Build().value();
}

/// Exact, bit-level comparison (the store's contract is bit-identity).
void ExpectIdentical(const DagEstimate& a, const DagEstimate& b) {
  EXPECT_EQ(a.makespan.seconds(), b.makespan.seconds());
  ASSERT_EQ(a.states.size(), b.states.size());
  for (size_t s = 0; s < a.states.size(); ++s) {
    EXPECT_EQ(a.states[s].start, b.states[s].start);
    EXPECT_EQ(a.states[s].duration, b.states[s].duration);
    const RunningSpan ra = a.running(a.states[s]);
    const RunningSpan rb = b.running(b.states[s]);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t r = 0; r < ra.size(); ++r) {
      EXPECT_EQ(ra[r].job, rb[r].job);
      EXPECT_EQ(ra[r].task_time_s, rb[r].task_time_s);
    }
  }
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t s = 0; s < a.stages.size(); ++s) {
    EXPECT_EQ(a.stages[s].start, b.stages[s].start);
    EXPECT_EQ(a.stages[s].end, b.stages[s].end);
  }
}

TEST(PrefixCheckpointStoreTest, ResumesSharedPrefixBitIdentically) {
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const DagWorkflow first = ChainWithReducers(8);
  const DagWorkflow second = ChainWithReducers(16);

  PrefixCheckpointStore store;
  EstimatorOptions options;
  options.checkpoints = &store;
  const StateBasedEstimator estimator(kCluster, kSched, options);
  const DagEstimate cold = estimator.Estimate(first, source).value();
  const PrefixCheckpointStore::Stats after_cold = store.stats();
  EXPECT_GT(after_cold.inserts, 0u);
  EXPECT_GT(after_cold.entries, 0u);
  EXPECT_GT(after_cold.bytes, 0u);

  // The second candidate shares the two-job prefix (its changed job is not
  // activated until the middle job completes) and must resume there.
  const DagEstimate warm = estimator.Estimate(second, source).value();
  const PrefixCheckpointStore::Stats after_warm = store.stats();
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_GT(after_warm.resumed_states, 0u);

  const StateBasedEstimator plain(kCluster, kSched);
  ExpectIdentical(cold, plain.Estimate(first, source).value());
  ExpectIdentical(warm, plain.Estimate(second, source).value());
}

TEST(PrefixCheckpointStoreTest, IdenticalFlowResumesFullDepth) {
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const DagWorkflow flow = ChainWithReducers(8);

  PrefixCheckpointStore store;
  EstimatorOptions options;
  options.checkpoints = &store;
  const StateBasedEstimator estimator(kCluster, kSched, options);
  const DagEstimate cold = estimator.Estimate(flow, source).value();
  const DagEstimate warm = estimator.Estimate(flow, source).value();
  ExpectIdentical(warm, cold);
  // The re-run resumed at the deepest (all-jobs-done) boundary: it skipped
  // every state the first run stored.
  const PrefixCheckpointStore::Stats stats = store.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.resumed_states, 0u);
}

TEST(PrefixCheckpointStoreTest, CapturingFlowAndEqualBytesResumeAlike) {
  // A probe by the capturing flow or a copy of it (shared fingerprints)
  // skips the fingerprint bytes; a separately built equal flow compares
  // them. Both must resume at full depth with the same answer, and a flow
  // differing only in its last job must not.
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  PrefixCheckpointStore store;
  EstimatorOptions options;
  options.checkpoints = &store;
  const StateBasedEstimator estimator(kCluster, kSched, options);

  DagEstimate cold;
  {
    const DagWorkflow flow = ChainWithReducers(8);
    cold = estimator.Estimate(flow, source).value();
    const DagWorkflow copy = flow;
    EXPECT_EQ(&copy.job_fingerprints(), &flow.job_fingerprints());
    const DagEstimate by_copy = estimator.Estimate(copy, source).value();
    EXPECT_EQ(by_copy.resumed_states, static_cast<int>(cold.states.size()));
    ExpectIdentical(by_copy, cold);
  }
  // The capturing flow is gone: an equal rebuild matches on bytes.
  const DagWorkflow rebuilt = ChainWithReducers(8);
  const DagEstimate by_bytes = estimator.Estimate(rebuilt, source).value();
  EXPECT_EQ(by_bytes.resumed_states, static_cast<int>(cold.states.size()));
  ExpectIdentical(by_bytes, cold);

  const DagWorkflow other = ChainWithReducers(16);
  const DagEstimate partial = estimator.Estimate(other, source).value();
  EXPECT_GT(partial.resumed_states, 0);
  EXPECT_LT(partial.resumed_states, static_cast<int>(partial.states.size()));
  const StateBasedEstimator plain(kCluster, kSched);
  ExpectIdentical(partial, plain.Estimate(other, source).value());

  // Every stored key is what BuildKey writes for its boundary.
  std::string global_fp;
  PrefixCheckpointStore::AppendGlobalFingerprint("", kCluster, kSched, options,
                                                 &global_fp);
  for (const auto& checkpoint : store.Export()) {
    std::string by_rebuilt, by_other;
    ASSERT_TRUE(PrefixCheckpointStore::BuildKey(
        global_fp, rebuilt, checkpoint->done.data(), checkpoint->done.size(),
        &by_rebuilt));
    ASSERT_TRUE(PrefixCheckpointStore::BuildKey(
        global_fp, other, checkpoint->done.data(), checkpoint->done.size(),
        &by_other));
    EXPECT_TRUE(checkpoint->key == by_rebuilt || checkpoint->key == by_other);
  }
}

TEST(PrefixCheckpointStoreTest, EqualDigestWithOtherBytesMisses) {
  // The digest only routes a probe; equality is on every byte. Stored keys
  // with one fingerprint byte flipped keep their size and digest, and must
  // still never match.
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  PrefixCheckpointStore store;
  EstimatorOptions options;
  options.checkpoints = &store;
  const StateBasedEstimator estimator(kCluster, kSched, options);
  const DagWorkflow flow = ChainWithReducers(8);
  ASSERT_TRUE(estimator.Estimate(flow, source).ok());

  std::vector<std::shared_ptr<const EstimatorCheckpoint>> forged;
  for (const auto& checkpoint : store.Export()) {
    auto copy = std::make_shared<EstimatorCheckpoint>(*checkpoint);
    copy->job_fingerprints.reset();
    // The last byte of the last activated job's fingerprint sits before
    // its '|' and the 8-byte digest.
    copy->key[copy->key.size() - 10] ^= 1;
    forged.push_back(std::move(copy));
  }
  PrefixCheckpointStore forged_store;
  forged_store.Import(forged);
  EstimatorOptions forged_options;
  forged_options.checkpoints = &forged_store;
  const StateBasedEstimator probe(kCluster, kSched, forged_options);
  const DagEstimate estimate = probe.Estimate(flow, source).value();
  EXPECT_EQ(estimate.resumed_states, 0);
  EXPECT_EQ(forged_store.stats().hits, 0u);
}

TEST(PrefixCheckpointStoreTest, ByteCapRejectsInsertsDeterministically) {
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const DagWorkflow flow = ChainWithReducers(8);

  PrefixCheckpointStore::Options store_options;
  store_options.max_bytes = 1;  // Nothing fits: every insert is rejected.
  PrefixCheckpointStore store(store_options);
  EstimatorOptions options;
  options.checkpoints = &store;
  const StateBasedEstimator estimator(kCluster, kSched, options);
  const DagEstimate first = estimator.Estimate(flow, source).value();
  const DagEstimate second = estimator.Estimate(flow, source).value();

  const PrefixCheckpointStore::Stats stats = store.stats();
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_GT(stats.rejected_full, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);

  // A full store degrades to plain replay, never to wrong answers.
  const StateBasedEstimator plain(kCluster, kSched);
  ExpectIdentical(first, plain.Estimate(flow, source).value());
  ExpectIdentical(second, first);
}

TEST(PrefixCheckpointStoreTest, PartlyFullStoreCountsRejectionsLikeInsert) {
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const DagWorkflow flow = ChainWithReducers(8);
  const StateBasedEstimator plain(kCluster, kSched);
  const DagEstimate reference = plain.Estimate(flow, source).value();

  // Uncapped, the estimate stores one checkpoint per boundary; on a chain
  // they are stored shallowest first.
  PrefixCheckpointStore uncapped;
  EstimatorOptions uncapped_options;
  uncapped_options.checkpoints = &uncapped;
  (void)StateBasedEstimator(kCluster, kSched, uncapped_options)
      .Estimate(flow, source)
      .value();
  std::vector<std::shared_ptr<const EstimatorCheckpoint>> stored =
      uncapped.Export();
  const std::size_t boundaries = stored.size();
  ASSERT_GE(boundaries, 3u);
  std::sort(stored.begin(), stored.end(), [](const auto& a, const auto& b) {
    return a->done.size() < b->done.size();
  });
  const std::size_t two = stored[0]->ByteSize() + stored[1]->ByteSize();
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);

  // A cap of exactly two checkpoints keeps two; one byte less keeps one.
  // Either way every other boundary is one rejection, in the store's stats
  // and in the incremental.store_rejected metric, just as Insert counts it.
  for (const std::size_t kept : {std::size_t{2}, std::size_t{1}}) {
    obs::Counter& store_rejected =
        obs::MetricsRegistry::Default().GetCounter("incremental.store_rejected");
    const std::uint64_t rejected_before = store_rejected.value();
    PrefixCheckpointStore::Options store_options;
    store_options.max_bytes = kept == 2 ? two : two - 1;
    PrefixCheckpointStore store(store_options);
    EstimatorOptions options;
    options.checkpoints = &store;
    const StateBasedEstimator estimator(kCluster, kSched, options);

    const DagEstimate first = estimator.Estimate(flow, source).value();
    PrefixCheckpointStore::Stats stats = store.stats();
    EXPECT_EQ(stats.inserts, kept);
    EXPECT_EQ(stats.rejected_full, boundaries - kept);
    EXPECT_EQ(stats.bytes, kept == 2 ? two : stored[0]->ByteSize());

    // The re-run resumes at the deepest kept boundary and is rejected again
    // at every boundary past it.
    const DagEstimate resumed = estimator.Estimate(flow, source).value();
    stats = store.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_GT(stats.resumed_states, 0u);
    EXPECT_EQ(stats.rejected_full, 2 * (boundaries - kept));
    EXPECT_EQ(store_rejected.value() - rejected_before, stats.rejected_full);
    ExpectIdentical(first, reference);
    ExpectIdentical(resumed, reference);
  }
  obs::SetMetricsEnabled(metrics_were_enabled);
}

TEST(PrefixCheckpointStoreTest, AdmitsAnswersForInsertWithoutStoring) {
  PrefixCheckpointStore::Options store_options;
  auto checkpoint = std::make_shared<EstimatorCheckpoint>();
  checkpoint->key = "k";
  store_options.max_bytes = checkpoint->ByteSize();
  PrefixCheckpointStore store(store_options);

  EXPECT_TRUE(store.Admits("k", checkpoint->ByteSize()));
  EXPECT_FALSE(store.Admits("k", checkpoint->ByteSize() + 1));
  EXPECT_EQ(store.stats().rejected_full, 1u);
  EXPECT_EQ(store.stats().entries, 0u);  // Asking stores nothing.

  store.Insert(checkpoint);
  EXPECT_EQ(store.stats().inserts, 1u);
  // A stored key is not admitted again, and that is not a rejection.
  EXPECT_FALSE(store.Admits("k", 1));
  EXPECT_EQ(store.stats().rejected_full, 1u);
  // The store is now full.
  EXPECT_FALSE(store.Admits("other", 1));
  EXPECT_EQ(store.stats().rejected_full, 2u);
}

TEST(PrefixCheckpointStoreTest, ClearEmptiesTheStore) {
  const BoeModel boe(kCluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(1));
  const DagWorkflow flow = ChainWithReducers(8);

  PrefixCheckpointStore store;
  EstimatorOptions options;
  options.checkpoints = &store;
  const StateBasedEstimator estimator(kCluster, kSched, options);
  (void)estimator.Estimate(flow, source).value();
  ASSERT_GT(store.stats().entries, 0u);

  store.Clear();
  const PrefixCheckpointStore::Stats cleared = store.stats();
  EXPECT_EQ(cleared.entries, 0u);
  EXPECT_EQ(cleared.bytes, 0u);

  // Post-clear the same flow re-replays (and re-stores) from scratch.
  const DagEstimate again = estimator.Estimate(flow, source).value();
  EXPECT_GT(store.stats().entries, 0u);
  const StateBasedEstimator plain(kCluster, kSched);
  ExpectIdentical(again, plain.Estimate(flow, source).value());
}

TEST(PrefixCheckpointStoreTest, ScopeSeparatesSources) {
  // Two task-time sources with the same scheduler view but different
  // execution models share one store under distinct scopes. Without the
  // scope in the key the second would resume from the first's trajectory —
  // computed with the wrong task times.
  DagBuilder builder("wc-scope");
  builder.AddJob(WordCountSpec(Bytes::FromGB(50)));
  const DagWorkflow flow = std::move(builder).Build().value();
  const BoeModel boe_a(kCluster.node);
  NodeSpec slow = kCluster.node;
  slow.cores = 1;
  const BoeModel boe_b(slow);
  const BoeTaskTimeSource source_a(boe_a, Duration::Seconds(1));
  const BoeTaskTimeSource source_b(boe_b, Duration::Seconds(1));

  PrefixCheckpointStore store;
  EstimatorOptions options_a;
  options_a.checkpoints = &store;
  options_a.checkpoint_scope = "paper-node";
  EstimatorOptions options_b = options_a;
  options_b.checkpoint_scope = "slow-node";
  const StateBasedEstimator estimator_a(kCluster, kSched, options_a);
  const StateBasedEstimator estimator_b(kCluster, kSched, options_b);

  const DagEstimate est_a = estimator_a.Estimate(flow, source_a).value();
  const DagEstimate est_b = estimator_b.Estimate(flow, source_b).value();
  EXPECT_GT(est_b.makespan.seconds(), est_a.makespan.seconds());

  const StateBasedEstimator plain(kCluster, kSched);
  ExpectIdentical(est_a, plain.Estimate(flow, source_a).value());
  ExpectIdentical(est_b, plain.Estimate(flow, source_b).value());
}

TEST(PrefixCheckpointStoreTest, BuildKeyEdgeCases) {
  const DagWorkflow flow = ChainWithReducers(8);
  std::string global_fp;
  PrefixCheckpointStore::AppendGlobalFingerprint("scope", kCluster, kSched,
                                                 EstimatorOptions{}, &global_fp);

  // Deterministic: two builds of the same boundary produce equal keys.
  const std::vector<JobId> done = {0};
  std::string key1, key2;
  ASSERT_TRUE(PrefixCheckpointStore::BuildKey(global_fp, flow,
                                              done.data(), done.size(), &key1));
  ASSERT_TRUE(PrefixCheckpointStore::BuildKey(global_fp, flow,
                                              done.data(), done.size(), &key2));
  EXPECT_EQ(key1, key2);

  // The empty boundary (nothing done yet) is a valid key.
  std::string empty_key;
  ASSERT_TRUE(PrefixCheckpointStore::BuildKey(global_fp, flow, nullptr,
                                              0, &empty_key));
  EXPECT_NE(empty_key, key1);

  // Deeper boundaries produce different keys.
  const std::vector<JobId> deeper = {0, 1};
  std::string key3;
  ASSERT_TRUE(PrefixCheckpointStore::BuildKey(global_fp, flow,
                                              deeper.data(), deeper.size(),
                                              &key3));
  EXPECT_NE(key3, key1);

  // A done id outside the flow cannot form a key.
  const std::vector<JobId> bogus = {99};
  std::string unused;
  EXPECT_FALSE(PrefixCheckpointStore::BuildKey(global_fp, flow,
                                               bogus.data(), bogus.size(),
                                               &unused));
}

TEST(PrefixCheckpointStoreTest, GlobalFingerprintCoversClusterAndOptions) {
  // Anything the trajectory depends on must change the key: cluster size,
  // scheduler config, estimator options, and scope all feed the global
  // fingerprint, so stale resumes are structurally impossible.
  std::string base;
  PrefixCheckpointStore::AppendGlobalFingerprint("s", kCluster, kSched,
                                                 EstimatorOptions{}, &base);

  std::string other_scope;
  PrefixCheckpointStore::AppendGlobalFingerprint("t", kCluster, kSched,
                                                 EstimatorOptions{},
                                                 &other_scope);
  EXPECT_NE(base, other_scope);

  ClusterSpec bigger = kCluster;
  bigger.num_nodes += 1;
  std::string other_cluster;
  PrefixCheckpointStore::AppendGlobalFingerprint("s", bigger, kSched,
                                                 EstimatorOptions{},
                                                 &other_cluster);
  EXPECT_NE(base, other_cluster);

  EstimatorOptions skew;
  skew.skew_aware = true;
  std::string other_options;
  PrefixCheckpointStore::AppendGlobalFingerprint("s", kCluster, kSched, skew,
                                                 &other_options);
  EXPECT_NE(base, other_options);

  // max_states and budget only bound how far an estimate gets — they are
  // deliberately NOT part of the key.
  EstimatorOptions bounded;
  bounded.max_states = 7;
  std::string same;
  PrefixCheckpointStore::AppendGlobalFingerprint("s", kCluster, kSched, bounded,
                                                 &same);
  EXPECT_EQ(base, same);
}

}  // namespace
}  // namespace dagperf
