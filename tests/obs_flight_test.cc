#include "obs/request_record.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/metrics.h"

namespace dagperf {
namespace {

class ScopedMetrics {
 public:
  ScopedMetrics() : was_enabled_(obs::MetricsEnabled()) {
    obs::SetMetricsEnabled(true);
  }
  ~ScopedMetrics() { obs::SetMetricsEnabled(was_enabled_); }

 private:
  bool was_enabled_;
};

obs::RequestRecord MakeRecord(std::uint64_t id, double total_us,
                              bool ok = true) {
  obs::RequestRecord record;
  record.id = id;
  record.set_op("estimate");
  record.set_workflow("TS-Q6");
  record.set_cluster("default");
  record.submit_us = 1000.0 * id;
  record.start_us = record.submit_us + 10.0;
  record.end_us = record.submit_us + total_us;
  record.ok = ok;
  record.outcome_code = ok ? 0 : 13;
  return record;
}

TEST(RequestRecordTest, NameFieldsTruncateNeverOverflow) {
  obs::RequestRecord record;
  record.set_workflow(std::string(200, 'w'));
  EXPECT_EQ(std::string(record.workflow).size(),
            obs::RequestRecord::kNameBytes - 1);
  record.set_op("estimate");
  EXPECT_STREQ(record.op, "estimate");
}

TEST(RequestRecordTest, DerivedTimings) {
  const obs::RequestRecord record = MakeRecord(1, 500.0);
  EXPECT_DOUBLE_EQ(record.queue_wait_us(), 10.0);
  EXPECT_DOUBLE_EQ(record.exec_us(), 490.0);
  EXPECT_DOUBLE_EQ(record.total_us(), 500.0);
}

TEST(FlightRecorderTest, DisabledRecordingIsANoOp) {
  obs::FlightRecorder recorder;
  ASSERT_FALSE(obs::MetricsEnabled());
  recorder.Record(MakeRecord(1, 100.0));
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_TRUE(recorder.Snapshot().records.empty());
}

TEST(FlightRecorderTest, RingKeepsLastNOldestFirst) {
  ScopedMetrics on;
  obs::FlightRecorderOptions options;
  options.capacity = 4;
  obs::FlightRecorder recorder(options);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    recorder.Record(MakeRecord(id, 100.0));
  }
  const obs::FlightRecorder::Dump dump = recorder.Snapshot();
  EXPECT_EQ(dump.total_recorded, 10u);
  ASSERT_EQ(dump.records.size(), 4u);
  EXPECT_EQ(dump.records.front().id, 7u);
  EXPECT_EQ(dump.records.back().id, 10u);
}

TEST(FlightRecorderTest, PinsSlowestAndErrorExemplarsPastRingWrap) {
  ScopedMetrics on;
  obs::FlightRecorderOptions options;
  options.capacity = 4;
  options.slowest_exemplars = 2;
  options.error_exemplars = 2;
  obs::FlightRecorder recorder(options);
  recorder.Record(MakeRecord(1, 9000.0));         // Slow.
  recorder.Record(MakeRecord(2, 500.0, false));   // Error.
  // Flood the ring so both leave it.
  for (std::uint64_t id = 10; id < 20; ++id) {
    recorder.Record(MakeRecord(id, 100.0));
  }
  const obs::FlightRecorder::Dump dump = recorder.Snapshot();
  ASSERT_FALSE(dump.slowest.empty());
  EXPECT_EQ(dump.slowest.front().id, 1u);  // Slowest first.
  ASSERT_EQ(dump.errors.size(), 1u);
  EXPECT_EQ(dump.errors.front().id, 2u);
  // The ring itself only has the recent flood.
  for (const obs::RequestRecord& record : dump.records) {
    EXPECT_GE(record.id, 10u);
  }
}

TEST(FlightRecorderTest, SlowestSetRecyclesAfterExemplarWindow) {
  ScopedMetrics on;
  obs::FlightRecorderOptions options;
  options.slowest_exemplars = 1;
  options.exemplar_window_seconds = 1e-9;  // Every record opens a new window.
  obs::FlightRecorder recorder(options);
  recorder.Record(MakeRecord(1, 9000.0));
  // Much faster, but it completes past the window deadline (the recycle
  // clock is record.end_us), so it becomes the new slowest.
  recorder.Record(MakeRecord(20, 50.0));
  const obs::FlightRecorder::Dump dump = recorder.Snapshot();
  ASSERT_EQ(dump.slowest.size(), 1u);
  EXPECT_EQ(dump.slowest.front().id, 20u);
}

TEST(FlightRecorderTest, EventRingKeepsLastN) {
  ScopedMetrics on;
  obs::FlightRecorderOptions options;
  options.event_capacity = 2;
  obs::FlightRecorder recorder(options);
  recorder.AddEvent("breaker", "default: closed -> open");
  recorder.AddEvent("watchdog", "TS-Q6@default: wall-clock bound exceeded");
  recorder.AddEvent("drain", "pool quiesced");
  const obs::FlightRecorder::Dump dump = recorder.Snapshot();
  ASSERT_EQ(dump.events.size(), 2u);
  EXPECT_STREQ(dump.events.front().kind, "watchdog");
  EXPECT_STREQ(dump.events.back().kind, "drain");
}

TEST(FlightRecorderTest, ToJsonParsesAndCarriesTheRecordFields) {
  ScopedMetrics on;
  obs::FlightRecorder recorder;
  obs::RequestRecord record = MakeRecord(7, 650.0);
  record.states = 6;
  record.resumed_states = 5;
  record.path = obs::RequestPath::kIncremental;
  recorder.Record(record);
  recorder.AddEvent("breaker", "default: closed -> open");
  Result<Json> parsed = Json::Parse(recorder.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& doc = parsed.value();
  EXPECT_EQ(doc.GetNumber("total_recorded", 0.0), 1.0);
  const Json* records = doc.Get("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->AsArray().size(), 1u);
  const Json& first = records->AsArray()[0];
  EXPECT_EQ(first.GetNumber("id", 0.0), 7.0);
  EXPECT_EQ(first.GetString("path", ""), "incremental");
  EXPECT_EQ(first.GetNumber("resumed_states", 0.0), 5.0);
  EXPECT_DOUBLE_EQ(first.GetNumber("total_us", 0.0), 650.0);
  const Json* events = doc.Get("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->AsArray()[0].GetString("kind", ""), "breaker");
}

// Concurrent recording against a snapshotting reader: the seqlock must never
// surface a torn record (id/end_us mismatches would show as nonsense
// timings). Run under TSan by the sanitizer CI job.
TEST(FlightRecorderTest, ConcurrentRecordAndSnapshot) {
  ScopedMetrics on;
  obs::FlightRecorderOptions options;
  options.capacity = 8;
  obs::FlightRecorder recorder(options);
  std::atomic<bool> stop{false};
  std::thread reader([&recorder, &stop] {
    while (!stop.load()) {
      const obs::FlightRecorder::Dump dump = recorder.Snapshot();
      for (const obs::RequestRecord& record : dump.records) {
        // Published records are internally consistent.
        EXPECT_DOUBLE_EQ(record.total_us(), 100.0 + record.id);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&recorder, t] {
      for (std::uint64_t i = 0; i < 20000; ++i) {
        const std::uint64_t id = t * 100000 + i;
        recorder.Record(MakeRecord(id, 100.0 + id));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(recorder.total_recorded(), 40000u);
}

}  // namespace
}  // namespace dagperf
