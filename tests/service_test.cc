// Tests of the estimation service layer (src/service/): admission control
// and load shedding, deadline expiry inside the queue, graceful drain with
// requests in flight, cross-request checkpoint reuse (asserted through the
// store's counters), and the NDJSON wire protocol.

#include "service/service.h"

#include <condition_variable>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "dag/spec_io.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/server.h"
#include "workloads/suite.h"
#include "workloads/web_analytics.h"

namespace dagperf {
namespace {

DagWorkflow TestFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  EXPECT_TRUE(named.ok()) << named.status().ToString();
  return std::move(named).value().flow;
}

/// A task-time source whose first query blocks until Open() — holds a
/// service worker mid-estimate so tests can pile requests up behind it.
class GateSource : public TaskTimeSource {
 public:
  Duration TaskTime(const EstimationContext&) const override {
    std::unique_lock lock(mutex_);
    ++entered_;
    entered_cv_.notify_all();
    open_cv_.wait(lock, [&] { return open_; });
    return Duration::Seconds(1);
  }

  void Open() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    open_cv_.notify_all();
  }

  /// Blocks until a worker is inside TaskTime (i.e. an estimate is running).
  void WaitUntilEntered() const {
    std::unique_lock lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ > 0; });
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable open_cv_;
  mutable std::condition_variable entered_cv_;
  mutable bool open_ = false;
  mutable int entered_ = 0;
};

TEST(ServiceTest, EstimatesRegisteredWorkflow) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  Result<EstimateResponse> served =
      service.Submit(EstimateRequest::For("q6")).get();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_GT(served.value().estimate->estimate.makespan.seconds(), 0.0);
  EXPECT_EQ(served.value().estimate->workflow, "q6");
  EXPECT_EQ(served.value().estimate->cluster, "default");
  EXPECT_TRUE(served.value().estimate->critical_path.empty());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServiceTest, ExplainFillsCriticalPath) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  Result<EstimateResponse> served =
      service.Submit(EstimateRequest::For("q6").WithExplain()).get();
  ASSERT_TRUE(served.ok());
  ASSERT_FALSE(served.value().estimate->critical_path.empty());
  // Critical-path segments partition the timeline: durations sum to the
  // makespan.
  double total = 0.0;
  for (const CriticalSegment& s : served.value().estimate->critical_path) {
    total += s.duration;
  }
  EXPECT_NEAR(total, served.value().estimate->estimate.makespan.seconds(),
              1e-9);
}

TEST(ServiceTest, UnknownNamesFailFast) {
  EstimationService service;
  Result<EstimateResponse> served =
      service.Submit(EstimateRequest::For("no-such-flow")).get();
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), ErrorCode::kNotFound);

  Result<EstimateResponse> empty = service.Submit(EstimateRequest()).get();
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), ErrorCode::kInvalidArgument);

  Result<EstimateResponse> cluster =
      service
          .Submit(EstimateRequest::For("no-such-flow").OnCluster(
              "no-such-cluster"))
          .get();
  EXPECT_FALSE(cluster.ok());
}

TEST(ServiceTest, RegistrationRunsValidationFirewall) {
  EstimationService service;
  ClusterSpec bad = ClusterSpec::PaperCluster();
  bad.num_nodes = -3;
  const Status status = service.RegisterCluster("bad", bad);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST(ServiceTest, QueueFullShedsWithResourceExhausted) {
  ServiceOptions options;
  options.threads = 1;
  options.max_queue_depth = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  // First request occupies the only worker, blocked inside the source.
  std::future<Result<EstimateResponse>> inflight =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();

  // The queue (depth 1) is now full: the next submit must be shed, not
  // queued — its future is ready immediately.
  std::future<Result<EstimateResponse>> shed =
      service.Submit(EstimateRequest::For("q6"));
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  Result<EstimateResponse> shed_result = shed.get();
  ASSERT_FALSE(shed_result.ok());
  EXPECT_EQ(shed_result.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(IsRetryable(shed_result.status().code()));

  gate.Open();
  ASSERT_TRUE(inflight.get().ok());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.submitted, 2u);
}

TEST(ServiceTest, DeadlineExpiresInQueue) {
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::future<Result<EstimateResponse>> inflight =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();

  // Queued behind the blocked worker with a deadline that expires while it
  // waits: the worker must reject it at dequeue without estimating. Opted
  // out of coalescing — attaching to the in-flight computation would serve
  // it from the leader instead of letting it expire in the queue.
  std::future<Result<EstimateResponse>> expired = service.Submit(
      EstimateRequest::For("q6").WithoutCoalescing().WithDeadline(0.01));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.Open();

  Result<EstimateResponse> result = expired.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kDeadlineExceeded);
  ASSERT_TRUE(inflight.get().ok());
  EXPECT_EQ(service.Stats().expired_in_queue, 1u);
}

TEST(ServiceTest, DrainWaitsForInflightAndRejectsNewWork) {
  ServiceOptions options;
  options.threads = 2;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::future<Result<EstimateResponse>> inflight =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();

  std::promise<Result<int>> drained_promise;
  std::future<Result<int>> drained = drained_promise.get_future();
  std::thread drainer([&] { drained_promise.set_value(service.Drain()); });

  // The drain must not finish while the estimate is still blocked.
  EXPECT_EQ(drained.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  EXPECT_TRUE(service.draining());

  // New work is rejected while draining, with a non-retryable code.
  Result<EstimateResponse> rejected =
      service.Submit(EstimateRequest::For("q6")).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kFailedPrecondition);

  gate.Open();
  drainer.join();
  Result<int> drain_result = drained.get();
  ASSERT_TRUE(drain_result.ok());
  EXPECT_GE(drain_result.value(), 1);
  ASSERT_TRUE(inflight.get().ok());
}

TEST(ServiceTest, CheckpointsAreReusedAcrossRequestsButNeverAcrossClusters) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  Result<EstimateResponse> cold =
      service.Submit(EstimateRequest::For("q6")).get();
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value().estimate->estimate.resumed_states, 0);
  const PrefixCheckpointStore::Stats after_cold = service.Stats().incremental;
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_GT(after_cold.inserts, 0u);

  // The identical request again resumes from the cross-request checkpoint
  // store — the whole replay is skipped — and the answer must be
  // bit-identical.
  Result<EstimateResponse> warm =
      service.Submit(EstimateRequest::For("q6")).get();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().estimate->estimate.makespan.seconds(),
            cold.value().estimate->estimate.makespan.seconds());
  EXPECT_EQ(warm.value().estimate->estimate.resumed_states,
            static_cast<int>(warm.value().estimate->estimate.states.size()));
  const PrefixCheckpointStore::Stats after_warm = service.Stats().incremental;
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_GT(after_warm.resumed_states, 0u);

  // The same workflow on different hardware must never reuse the default
  // cluster's state: it misses the store, replays in full and answers
  // differently.
  ClusterSpec other = ClusterSpec::PaperCluster();
  other.node.disk_read_bw = Rate::MBps(100);
  other.node.disk_write_bw = Rate::MBps(90);
  other.node.network_bw = Rate::MBps(60);
  ASSERT_TRUE(service.RegisterCluster("big-nodes", other).ok());
  Result<EstimateResponse> big =
      service.Submit(EstimateRequest::For("q6").OnCluster("big-nodes")).get();
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big.value().estimate->estimate.resumed_states, 0);
  EXPECT_NE(big.value().estimate->estimate.makespan.seconds(),
            cold.value().estimate->estimate.makespan.seconds());
  const PrefixCheckpointStore::Stats after_big = service.Stats().incremental;
  EXPECT_EQ(after_big.hits, after_warm.hits);
  EXPECT_EQ(after_big.resumed_states, after_warm.resumed_states);
  EXPECT_GT(after_big.inserts, after_warm.inserts);
}

TEST(ServiceTest, PerClusterCacheScopesNeverAlias) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  // Halve every I/O path so task times differ no matter which resource the
  // flow bottlenecks on.
  ClusterSpec other = ClusterSpec::PaperCluster();
  other.node.disk_read_bw = Rate::MBps(100);
  other.node.disk_write_bw = Rate::MBps(90);
  other.node.network_bw = Rate::MBps(60);
  ASSERT_TRUE(service.RegisterCluster("big-nodes", other).ok());

  Result<EstimateResponse> base =
      service.Submit(EstimateRequest::For("q6")).get();
  ASSERT_TRUE(base.ok());

  // Same workflow on different hardware: the scoped checkpoint store must
  // not serve the default cluster's entries, so the answers differ.
  Result<EstimateResponse> big =
      service.Submit(EstimateRequest::For("q6").OnCluster("big-nodes")).get();
  ASSERT_TRUE(big.ok());
  EXPECT_NE(base.value().estimate->estimate.makespan.seconds(),
            big.value().estimate->estimate.makespan.seconds());
}

TEST(ServiceTest, SweepSharesMemoAndFindsBest) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  Result<EstimateResponse> served =
      service.Submit(EstimateRequest::For("q6").SweepNodes({2, 4, 8})).get();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const SweepResult& result = served.value().sweep->sweep;
  ASSERT_EQ(result.estimates.size(), 3u);
  EXPECT_EQ(result.stats.completed, 3);
  ASSERT_GE(result.stats.best_index, 0);
  // More nodes, faster: best candidate is the largest cluster.
  EXPECT_EQ(served.value().sweep->nodes_list[result.stats.best_index], 8);
  // An empty nodes_list is rejected by the protocol before submission
  // (ProtocolGoldenTest's sweep_empty_nodes_list line).
}

TEST(ServiceTest, BatchAdmitsIndependently) {
  ServiceOptions options;
  options.threads = 1;
  options.max_queue_depth = 2;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::vector<std::future<Result<EstimateResponse>>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.Submit(EstimateRequest::For("q6")));
  }
  ASSERT_EQ(futures.size(), 3u);
  // Queue depth 2: the batch's tail is shed, the head is queued.
  ASSERT_EQ(futures[2].wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(futures[2].get().status().code(), ErrorCode::kResourceExhausted);
  gate.Open();
  EXPECT_TRUE(futures[0].get().ok());
  EXPECT_TRUE(futures[1].get().ok());
}

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(ProtocolTest, EstimateRoundTrip) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  Protocol protocol(&service);

  const std::string response =
      protocol.HandleLine(R"({"op":"estimate","workflow":"q6","id":42})");
  Result<Json> parsed = Json::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_TRUE(parsed.value().GetBool("ok", false));
  EXPECT_EQ(parsed.value().GetNumber("id", -1), 42);
  const Json* result = parsed.value().Get("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->GetNumber("makespan_s", 0.0), 0.0);
  EXPECT_EQ(result->GetString("workflow", ""), "q6");
  // One line, compact: the NDJSON framing invariant.
  EXPECT_EQ(response.find('\n'), std::string::npos);
}

TEST(ProtocolTest, ErrorsUseStableCodeVocabulary) {
  EstimationService service;
  Protocol protocol(&service);

  const auto error_code = [&](const std::string& line) {
    Result<Json> parsed = Json::Parse(protocol.HandleLine(line));
    EXPECT_TRUE(parsed.ok());
    EXPECT_FALSE(parsed.value().GetBool("ok", true));
    const Json* error = parsed.value().Get("error");
    return error == nullptr ? std::string() : error->GetString("code", "");
  };

  // Malformed JSON is the protocol-level PARSE_ERROR (never retryable, with
  // an explicit null id); valid-but-wrong-shaped documents keep the status
  // vocabulary.
  EXPECT_EQ(error_code("this is not json"), "PARSE_ERROR");
  EXPECT_EQ(error_code("[1,2,3]"), "INVALID_ARGUMENT");
  EXPECT_EQ(error_code(R"({"op":"bogus"})"), "INVALID_ARGUMENT");
  EXPECT_EQ(error_code(R"({"op":"estimate"})"), "INVALID_ARGUMENT");
  EXPECT_EQ(error_code(R"({"op":"estimate","workflow":"nope"})"), "NOT_FOUND");
  EXPECT_EQ(error_code(R"({"op":"sweep","workflow":"nope"})"),
            "INVALID_ARGUMENT");
  EXPECT_FALSE(protocol.drain_requested());
}

TEST(ProtocolTest, StatsAndDrainVerbs) {
  EstimationService service;
  Protocol protocol(&service);

  Result<Json> stats = Json::Parse(protocol.HandleLine(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().GetBool("ok", false));
  EXPECT_FALSE(protocol.drain_requested());

  Result<Json> drain = Json::Parse(protocol.HandleLine(R"({"op":"drain"})"));
  ASSERT_TRUE(drain.ok());
  EXPECT_TRUE(drain.value().GetBool("ok", false));
  EXPECT_TRUE(protocol.drain_requested());
  EXPECT_TRUE(service.draining());
}

TEST(ProtocolTest, InlineFlowDocument) {
  EstimationService service;
  Protocol protocol(&service);
  Result<DagWorkflow> flow = WebAnalyticsFlow(Bytes::FromGB(1));
  ASSERT_TRUE(flow.ok());
  Json request = Json::MakeObject();
  request.Set("op", Json::MakeString("estimate"));
  request.Set("flow", WorkflowToJson(flow.value()));
  Result<Json> parsed = Json::Parse(protocol.HandleLine(request.DumpCompact()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().GetBool("ok", false))
      << protocol.HandleLine(request.DumpCompact());
  EXPECT_GT(parsed.value().Get("result")->GetNumber("makespan_s", 0.0), 0.0);
}

TEST(ProtocolTest, SweepIgnoresRetiredHedgeField) {
  // Straggler hedging was removed in 2.0; old clients may still send
  // "hedge", which is ignored like any unknown key.
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  Protocol protocol(&service);

  const auto sweep = [&](const std::string& line) {
    Result<Json> parsed = Json::Parse(protocol.HandleLine(line));
    EXPECT_TRUE(parsed.ok()) << line;
    return std::move(parsed).value();
  };
  const Json plain =
      sweep(R"({"op":"sweep","workflow":"q6","nodes_list":[2,4,8]})");
  const Json hedged = sweep(
      R"({"op":"sweep","workflow":"q6","nodes_list":[2,4,8],"hedge":true})");
  for (const Json* answer : {&plain, &hedged}) {
    ASSERT_TRUE(answer->GetBool("ok", false)) << answer->DumpCompact();
    const Json* stats = answer->Get("result")->Get("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->Get("hedges"), nullptr);
  }
  const Json* want = plain.Get("result")->Get("candidates");
  const Json* got = hedged.Get("result")->Get("candidates");
  ASSERT_NE(want, nullptr);
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->AsArray().size(), 3u);
  ASSERT_EQ(got->AsArray().size(), want->AsArray().size());
  for (std::size_t i = 0; i < want->AsArray().size(); ++i) {
    EXPECT_TRUE(got->AsArray()[i].GetBool("ok", false));
    EXPECT_EQ(got->AsArray()[i].GetNumber("makespan_s", -1.0),
              want->AsArray()[i].GetNumber("makespan_s", -2.0));
  }
}

TEST(ProtocolTest, SaturatingWaterFillStateIsAnswered) {
  // TS-Q18 on 61 nodes reaches a state whose network wants sum to exactly
  // the node's capacity; the rate solver used to abort the whole process
  // on it, so one wire line took the server down.
  EstimationService service;
  Result<NamedFlow> named = TableThreeFlow("TS-Q18", 1.0);
  ASSERT_TRUE(named.ok()) << named.status().ToString();
  ASSERT_TRUE(service.RegisterWorkflow("TS-Q18", std::move(named).value().flow).ok());
  Protocol protocol(&service);
  const std::string response = protocol.HandleLine(
      R"({"op":"estimate","workflow":"TS-Q18","nodes":61})");
  Result<Json> parsed = Json::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  ASSERT_TRUE(parsed.value().GetBool("ok", false)) << response;
  EXPECT_GT(parsed.value().Get("result")->GetNumber("makespan_s", 0.0), 0.0);
}

// ---------------------------------------------------------------------------
// Golden answer lines: the exact bytes the wire carries, byte for byte. Only
// the two timing values differ between runs, so they are masked.

std::string MaskTimings(std::string line) {
  for (const std::string key : {"\"queue_wait_ms\":", "\"service_ms\":"}) {
    for (std::size_t at = line.find(key); at != std::string::npos;
         at = line.find(key, at)) {
      at += key.size();
      const std::size_t end = line.find_first_of(",}", at);
      if (end == std::string::npos) break;
      line.replace(at, end - at, "#");
    }
  }
  return line;
}

struct GoldenLine {
  std::string request;
  std::string answer;
};

void ExpectGoldenAnswers(Protocol& protocol,
                         const std::vector<GoldenLine>& cases) {
  for (const GoldenLine& c : cases) {
    const std::string got = MaskTimings(protocol.HandleLine(c.request));
    EXPECT_EQ(got, c.answer) << c.request;
  }
}

TEST(ProtocolGoldenTest, AnswersAndErrorShapesMatchGoldenBytes) {
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  Protocol protocol(&service);
  ExpectGoldenAnswers(
      protocol,
      {
          {R"({"op":"estimate","workflow":"q6","id":1})", R"json({"id":1,"ok":true,"result":{"cluster":"default","makespan_s":24.541666666666664,"queue_wait_ms":#,"service_ms":#,"stages":[{"end_s":2.1684577777777778,"job":"Q6-filter-sum","kind":"map","start_s":0},{"end_s":3.041666666666667,"job":"TS","kind":"map","start_s":0},{"end_s":3.3317617777777779,"job":"Q6-filter-sum","kind":"reduce","start_s":2.1684577777777778},{"end_s":5.3344284444444448,"job":"Q6-final","kind":"map","start_s":3.3317617777777779},{"end_s":7.1280284444444444,"job":"Q6-final","kind":"reduce","start_s":5.3344284444444448},{"end_s":24.541666666666664,"job":"TS","kind":"reduce","start_s":3.041666666666667}],"states":6,"workflow":"q6"}})json"},
          {R"({"op":"explain","workflow":"q6","id":"explain-1"})", R"json({"id":"explain-1","ok":true,"result":{"cluster":"default","critical_path":[{"duration_s":2.1684577777777778,"job":"Q6-filter-sum","kind":"map","start_s":0},{"duration_s":0.87320888888888915,"job":"TS","kind":"map","start_s":2.1684577777777778},{"duration_s":0.29009511111111091,"job":"Q6-filter-sum","kind":"reduce","start_s":3.041666666666667},{"duration_s":2.0026666666666668,"job":"Q6-final","kind":"map","start_s":3.3317617777777779},{"duration_s":1.7936000000000001,"job":"Q6-final","kind":"reduce","start_s":5.3344284444444448},{"duration_s":17.413638222222222,"job":"TS","kind":"reduce","start_s":7.1280284444444444}],"makespan_s":24.541666666666664,"queue_wait_ms":#,"service_ms":#,"stages":[{"end_s":2.1684577777777778,"job":"Q6-filter-sum","kind":"map","start_s":0},{"end_s":3.041666666666667,"job":"TS","kind":"map","start_s":0},{"end_s":3.3317617777777779,"job":"Q6-filter-sum","kind":"reduce","start_s":2.1684577777777778},{"end_s":5.3344284444444448,"job":"Q6-final","kind":"map","start_s":3.3317617777777779},{"end_s":7.1280284444444444,"job":"Q6-final","kind":"reduce","start_s":5.3344284444444448},{"end_s":24.541666666666664,"job":"TS","kind":"reduce","start_s":3.041666666666667}],"states":6,"workflow":"q6"}})json"},
          {R"({"op":"estimate","id":3,"flow":{"name":"diamond","jobs":[{"name":"a","input_gb":10},{"name":"b","input_gb":5,"split_mb":64},{"name":"c","input_gb":5,"num_reduce_tasks":7},{"name":"d","input_gb":2.5}],"edges":[[0,1],[0,2],[1,3],[2,3]]}})",
           R"json({"id":3,"ok":true,"result":{"cluster":"default","makespan_s":101.12406895764161,"queue_wait_ms":#,"service_ms":#,"stages":[{"end_s":8.3863636363636367,"job":"a","kind":"map","start_s":0},{"end_s":37.553030303030305,"job":"a","kind":"reduce","start_s":8.3863636363636367},{"end_s":42.714255765145076,"job":"b","kind":"map","start_s":37.553030303030305},{"end_s":46.056610990415933,"job":"c","kind":"map","start_s":37.553030303030305},{"end_s":67.581406707519335,"job":"c","kind":"reduce","start_s":46.056610990415933},{"end_s":72.110180068752712,"job":"b","kind":"reduce","start_s":42.714255765145076},{"end_s":76.651846735419383,"job":"d","kind":"map","start_s":72.110180068752712},{"end_s":101.12406895764161,"job":"d","kind":"reduce","start_s":76.651846735419383}],"states":8,"workflow":"diamond"}})json"},
          {R"({"op":"sweep","workflow":"q6","nodes_list":[2,20000000,4],"id":4})",
           R"json({"id":4,"ok":true,"result":{"best":{"makespan_s":24.973657793298905,"nodes":4},"candidates":[{"makespan_s":27.394338943758569,"nodes":2,"ok":true},{"code":"INVALID_ARGUMENT","message":"cluster: 1 violation: /num_nodes: exceeds the 10000000 node cap","nodes":20000000,"ok":false},{"makespan_s":24.973657793298905,"nodes":4,"ok":true}],"cluster":"default","service_ms":#,"stats":{"cache_hit_rate":0,"cancelled":0,"completed":2,"deadline_exceeded":0,"failures":1,"incremental":{"checkpoints_stored":6,"prefix_hits":0,"prefix_misses":2,"resumed_states":0}},"workflow":"q6"}})json"},
          {"this is not json", R"json({"error":{"code":"PARSE_ERROR","message":"JSON parse error at offset 0: invalid keyword","retryable":false},"id":null,"ok":false})json"},
          {"[1,2,3]", R"json({"error":{"code":"INVALID_ARGUMENT","message":"request must be a JSON object","retryable":false},"id":null,"ok":false})json"},
          {R"({"op":"bogus"})", R"json({"error":{"code":"INVALID_ARGUMENT","message":"unknown op \"bogus\" (estimate|explain|sweep|stats|slo|flightrecorder|metrics|watch|drain)","retryable":false},"ok":false})json"},
          {R"({"op":"bogus","id":null})", R"json({"error":{"code":"INVALID_ARGUMENT","message":"unknown op \"bogus\" (estimate|explain|sweep|stats|slo|flightrecorder|metrics|watch|drain)","retryable":false},"id":null,"ok":false})json"},
          {R"({"op":"estimate","workflow":"nope","id":7})", R"json({"error":{"code":"NOT_FOUND","message":"workflow not registered: nope","retryable":false},"id":7,"ok":false})json"},
          {R"({"op":"estimate","workflow":"q6","nodes":-1,"id":2.5})", R"json({"error":{"code":"INVALID_ARGUMENT","message":"\"nodes\" must be a non-negative integer","retryable":false},"id":2.5,"ok":false})json"},
          {R"({"op":"estimate","id":"a\"b\\c\u0001\n"})", R"json({"error":{"code":"INVALID_ARGUMENT","message":"request must carry \"workflow\" (a registered name) or an inline \"flow\" document","retryable":false},"id":"a\"b\\c\u0001\n","ok":false})json"},
          {R"({"op":"sweep","workflow":"q6","id":{"b":1,"a":[true,false,null,-0,1e300]}})",
           R"json({"error":{"code":"INVALID_ARGUMENT","message":"sweep requires a \"nodes_list\" array","retryable":false},"id":{"a":[true,false,null,-0,1.0000000000000001e+300],"b":1},"ok":false})json"},
          {R"({"op":"sweep","workflow":"q6","nodes_list":[],"id":9})", R"json({"error":{"code":"INVALID_ARGUMENT","message":"\"nodes_list\" must not be empty","retryable":false},"id":9,"ok":false})json"},
      });
}

TEST(ProtocolGoldenTest, DegradedAndShedAnswersMatchGoldenBytes) {
  ServiceOptions options;
  options.threads = 1;
  options.overload_target_sojourn_ms = 50.0;
  options.expensive_job_threshold = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  resilience::OverloadController* controller = service.overload_controller();
  ASSERT_NE(controller, nullptr);
  Protocol protocol(&service);
  controller->ForceLevelForTest(0);
  (void)protocol.HandleLine(R"({"op":"estimate","workflow":"q6"})");
  controller->ForceLevelForTest(1);
  ExpectGoldenAnswers(
      protocol,
      {
          // Warm: served, but degraded.
          {R"({"op":"explain","workflow":"q6","id":5})", R"json({"id":5,"ok":true,"result":{"cluster":"default","critical_path":[],"degrade_level":1,"degraded":true,"makespan_s":24.541666666666664,"queue_wait_ms":#,"service_ms":#,"stages":[{"end_s":2.1684577777777778,"job":"Q6-filter-sum","kind":"map","start_s":0},{"end_s":3.041666666666667,"job":"TS","kind":"map","start_s":0},{"end_s":3.3317617777777779,"job":"Q6-filter-sum","kind":"reduce","start_s":2.1684577777777778},{"end_s":5.3344284444444448,"job":"Q6-final","kind":"map","start_s":3.3317617777777779},{"end_s":7.1280284444444444,"job":"Q6-final","kind":"reduce","start_s":5.3344284444444448},{"end_s":24.541666666666664,"job":"TS","kind":"reduce","start_s":3.041666666666667}],"states":6,"workflow":"q6"}})json"},
          // Cold and expensive: shed with a retry hint.
          {R"({"op":"estimate","workflow":"q6","nodes":7,"id":6})", R"json({"error":{"code":"RESOURCE_EXHAUSTED","message":"overloaded (brownout level 1): shedding expensive work, retry with backoff","retry_after_ms":50,"retryable":true},"id":6,"ok":false})json"},
      });
}

TEST(ProtocolGoldenTest, CoalescedAnswerMatchesGoldenBytes) {
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());
  Protocol protocol(&service);

  std::future<Result<EstimateResponse>> leader =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();
  std::string answer;
  std::thread follower([&] {
    answer = protocol.HandleLine(R"({"op":"estimate","workflow":"q6","id":8})");
  });
  while (service.Stats().coalesce_attached == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.Open();
  follower.join();
  ASSERT_TRUE(leader.get().ok());
  EXPECT_EQ(MaskTimings(answer),
            R"json({"id":8,"ok":true,"result":{"cluster":"default","coalesced":true,"makespan_s":4,"queue_wait_ms":#,"service_ms":#,"stages":[{"end_s":1,"job":"TS","kind":"map","start_s":0},{"end_s":1,"job":"Q6-filter-sum","kind":"map","start_s":0},{"end_s":2,"job":"TS","kind":"reduce","start_s":1},{"end_s":2,"job":"Q6-filter-sum","kind":"reduce","start_s":1},{"end_s":3,"job":"Q6-final","kind":"map","start_s":2},{"end_s":4,"job":"Q6-final","kind":"reduce","start_s":3}],"states":4,"workflow":"q6"}})json");
}

TEST(ServerTest, ServeLinesPumpsUntilDrain) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  std::istringstream in(
      "{\"op\":\"estimate\",\"workflow\":\"q6\",\"id\":1}\n"
      "\n"
      "{\"op\":\"stats\",\"id\":2}\n"
      "{\"op\":\"drain\",\"id\":3}\n"
      "{\"op\":\"stats\",\"id\":4}\n");
  std::ostringstream out;
  const ServeSummary summary = ServeLines(service, in, out);
  EXPECT_EQ(summary.requests, 3u);  // Blank skipped; nothing after drain.
  EXPECT_TRUE(summary.drained);
  // Exactly one response line per request.
  int lines = 0;
  for (char c : out.str()) lines += c == '\n';
  EXPECT_EQ(lines, 3);
}

TEST(ServiceTest, CoalescesIdenticalInflightRequests) {
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  // Leader occupies the only worker, blocked inside the source with the
  // coalesce group registered.
  std::future<Result<EstimateResponse>> leader =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();

  // Identical submissions attach synchronously — Submit returns with the
  // waiter registered, no pool task, no queue slot consumed.
  std::vector<std::future<Result<EstimateResponse>>> followers;
  for (int i = 0; i < 3; ++i) {
    followers.push_back(service.Submit(EstimateRequest::For("q6")));
  }
  EXPECT_EQ(service.Stats().coalesce_attached, 3u);

  gate.Open();
  Result<EstimateResponse> lead = leader.get();
  ASSERT_TRUE(lead.ok()) << lead.status().ToString();
  EXPECT_FALSE(lead.value().estimate->coalesced);
  for (auto& follower : followers) {
    Result<EstimateResponse> served = follower.get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    const WorkflowEstimate& estimate = *served.value().estimate;
    // Bit-identical to the leader's computation, marked as attached, with
    // zero service time (the waiter never ran the estimator).
    EXPECT_TRUE(estimate.coalesced);
    EXPECT_EQ(estimate.estimate.makespan.seconds(),
              lead.value().estimate->estimate.makespan.seconds());
    EXPECT_EQ(estimate.service_ms, 0.0);
    EXPECT_EQ(estimate.workflow, "q6");
  }

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.coalesce_leaders, 1u);
  EXPECT_EQ(stats.coalesce_attached, 3u);
}

TEST(ServiceTest, CoalescedWaitersKeepTheVersionResolvedAtSubmission) {
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  auto flow_at = [](double scale) {
    Result<NamedFlow> named = TableThreeFlow("TS-Q6", scale);
    EXPECT_TRUE(named.ok());
    return std::move(named).value().flow;
  };
  // v2 differs from v1 in its TS job, which a 1 s source still prices
  // differently (more map tasks, so more waves on the paper cluster).
  const DagWorkflow v1 = flow_at(0.01);
  const DagWorkflow v2 = flow_at(10.0);
  ASSERT_TRUE(service.RegisterWorkflow("blocker", flow_at(0.5)).ok());
  ASSERT_TRUE(service.RegisterWorkflow("w", v1).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  // The blocker holds the only worker, so the leader for "w" is still
  // queued when the name is re-registered.
  std::future<Result<EstimateResponse>> blocker =
      service.Submit(EstimateRequest::For("blocker"));
  gate.WaitUntilEntered();
  std::future<Result<EstimateResponse>> leader =
      service.Submit(EstimateRequest::For("w"));
  std::future<Result<EstimateResponse>> waiter =
      service.Submit(EstimateRequest::For("w"));
  ASSERT_EQ(service.Stats().coalesce_attached, 1u);
  ASSERT_TRUE(service.RegisterWorkflow("w", v2).ok());
  std::future<Result<EstimateResponse>> after =
      service.Submit(EstimateRequest::For("w"));
  EXPECT_EQ(service.Stats().coalesce_attached, 1u)
      << "a request resolving the new version must not join the old group";
  gate.Open();
  ASSERT_TRUE(blocker.get().ok());

  auto direct = [&gate](const DagWorkflow& flow) {
    const StateBasedEstimator estimator(ClusterSpec::PaperCluster(),
                                        SchedulerConfig{}, EstimatorOptions{});
    Result<DagEstimate> estimate = estimator.Estimate(flow, gate);
    EXPECT_TRUE(estimate.ok());
    return std::move(estimate).value();
  };
  auto expect_bits = [](const DagEstimate& got, const DagEstimate& want) {
    EXPECT_EQ(got.makespan.seconds(), want.makespan.seconds());
    ASSERT_EQ(got.states.size(), want.states.size());
    for (std::size_t i = 0; i < got.states.size(); ++i) {
      EXPECT_EQ(got.states[i].start, want.states[i].start) << i;
      EXPECT_EQ(got.states[i].duration, want.states[i].duration) << i;
    }
    ASSERT_EQ(got.stages.size(), want.stages.size());
    for (std::size_t i = 0; i < got.stages.size(); ++i) {
      EXPECT_EQ(got.stages[i].start, want.stages[i].start) << i;
      EXPECT_EQ(got.stages[i].end, want.stages[i].end) << i;
    }
  };
  const DagEstimate want_v1 = direct(v1);
  const DagEstimate want_v2 = direct(v2);
  ASSERT_NE(want_v1.makespan.seconds(), want_v2.makespan.seconds());

  Result<EstimateResponse> lead = leader.get();
  Result<EstimateResponse> attached = waiter.get();
  Result<EstimateResponse> later = after.get();
  ASSERT_TRUE(lead.ok()) << lead.status().ToString();
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  EXPECT_TRUE(attached.value().estimate->coalesced);
  expect_bits(lead.value().estimate->estimate, want_v1);
  expect_bits(attached.value().estimate->estimate, want_v1);
  expect_bits(later.value().estimate->estimate, want_v2);
}

TEST(ServiceTest, CancellingOneWaiterDoesNotCancelTheLeader) {
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::future<Result<EstimateResponse>> leader =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();

  CancelToken waiter_cancel = CancelToken::Cancellable();
  std::future<Result<EstimateResponse>> waiter =
      service.Submit(EstimateRequest::For("q6").WithCancel(waiter_cancel));
  ASSERT_EQ(service.Stats().coalesce_attached, 1u);

  // The waiter gives up; the leader (whose caller never cancelled) must
  // keep computing — group abandonment requires every member to cancel.
  waiter_cancel.Cancel();
  gate.Open();

  Result<EstimateResponse> lead = leader.get();
  ASSERT_TRUE(lead.ok()) << lead.status().ToString();
  Result<EstimateResponse> cancelled = waiter.get();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), ErrorCode::kCancelled);
}

TEST(ServiceTest, CoalescingOptOutRunsItsOwnComputation) {
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::future<Result<EstimateResponse>> first =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();

  // Opted out: queues behind the worker instead of attaching.
  std::future<Result<EstimateResponse>> second =
      service.Submit(EstimateRequest::For("q6").WithoutCoalescing());
  EXPECT_EQ(service.Stats().coalesce_attached, 0u);

  gate.Open();
  Result<EstimateResponse> a = first.get();
  Result<EstimateResponse> b = second.get();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a.value().estimate->coalesced);
  EXPECT_FALSE(b.value().estimate->coalesced);

  const ServiceStats stats = service.Stats();
  // A leader with no attached waiters is not a coalesce leader.
  EXPECT_EQ(stats.coalesce_leaders, 0u);
  EXPECT_EQ(stats.coalesce_attached, 0u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServiceTest, DrainResetsCheckpointCounters) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  // Two serves: the second resumes from the checkpoints the first stored.
  for (int i = 0; i < 2; ++i) {
    Result<EstimateResponse> served =
        service.Submit(EstimateRequest::For("q6")).get();
    ASSERT_TRUE(served.ok());
  }
  const ServiceStats warm = service.Stats();
  EXPECT_GT(warm.incremental.hits, 0u);
  EXPECT_GT(warm.incremental.entries, 0u);

  // Drain resets the warm state; the post-drain stats must see every store
  // counter zeroed — no pre-drain numerator can leak into a hit rate
  // computed in the new epoch.
  ASSERT_TRUE(service.Drain().ok());
  const ServiceStats cold = service.Stats();
  EXPECT_EQ(cold.incremental.hits, 0u);
  EXPECT_EQ(cold.incremental.misses, 0u);
  EXPECT_EQ(cold.incremental.inserts, 0u);
  EXPECT_EQ(cold.incremental.resumed_states, 0u);
  EXPECT_EQ(cold.incremental.entries, 0u);
  EXPECT_EQ(cold.incremental.bytes, 0u);
  EXPECT_EQ(cold.stats_epoch, warm.stats_epoch + 1);
}

}  // namespace
}  // namespace dagperf
