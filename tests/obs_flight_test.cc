#include "obs/request_record.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/metrics.h"
#include "obs/writer_slot.h"

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
  // 5 is not a power of two: the ring rounds up, the dump still holds 5.
  for (const int capacity : {4, 5}) {
    obs::FlightRecorderOptions options;
    options.capacity = capacity;
    obs::FlightRecorder recorder(options);
    for (std::uint64_t id = 1; id <= 10; ++id) {
      recorder.Record(MakeRecord(id, 100.0));
    }
    const obs::FlightRecorder::Dump dump = recorder.Snapshot();
    EXPECT_EQ(dump.total_recorded, 10u);
    ASSERT_EQ(dump.records.size(), static_cast<std::size_t>(capacity));
    EXPECT_EQ(dump.records.front().id, 11u - capacity);
    EXPECT_EQ(dump.records.back().id, 10u);
  }
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

TEST(FlightRecorderTest, FirstRecordOpensTheExemplarWindow) {
  ScopedMetrics on;
  obs::FlightRecorderOptions options;
  options.slowest_exemplars = 1;
  options.exemplar_window_seconds = 0.05;  // 50 000 us.
  obs::FlightRecorder recorder(options);
  // The first record (end 10 000 us) opens a window until 60 000 us.
  recorder.Record(MakeRecord(1, 9000.0));
  // Faster, inside that window: the slowest stays pinned.
  recorder.Record(MakeRecord(55, 50.0));  // Ends at 55 050 us.
  ASSERT_EQ(recorder.Snapshot().slowest.size(), 1u);
  EXPECT_EQ(recorder.Snapshot().slowest.front().id, 1u);
  // Past the window: the set recycles.
  recorder.Record(MakeRecord(70, 50.0));  // Ends at 70 050 us.
  ASSERT_EQ(recorder.Snapshot().slowest.size(), 1u);
  EXPECT_EQ(recorder.Snapshot().slowest.front().id, 70u);
}

TEST(FlightRecorderTest, EventRingKeepsLastN) {
  ScopedMetrics on;
  obs::FlightRecorderOptions options;
  options.event_capacity = 2;
  obs::FlightRecorder recorder(options);
  recorder.AddEvent("overload", "brownout level 0 -> 1");
  recorder.AddEvent("snapshot", "saved 12 checkpoints (4096 bytes)");
  recorder.AddEvent("drain", "pool quiesced");
  const obs::FlightRecorder::Dump dump = recorder.Snapshot();
  ASSERT_EQ(dump.events.size(), 2u);
  EXPECT_STREQ(dump.events.front().kind, "snapshot");
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
  recorder.AddEvent("drain", "pool quiesced");
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
  EXPECT_EQ(events->AsArray()[0].GetString("kind", ""), "drain");
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

// Every recording thread alive at once, three times as many as there are
// writer slots: the threads beyond the slots share one lane under a mutex,
// so the recorder's memory stays at kWriterSlots + 1 rings, and no record
// is lost or torn.
TEST(FlightRecorderTest, MoreThreadsThanWriterSlotsStayBounded) {
  ScopedMetrics on;
  obs::FlightRecorderOptions options;
  options.capacity = 64;
  obs::FlightRecorder recorder(options);
  constexpr int kThreads = 3 * obs::kWriterSlots;
  constexpr std::uint64_t kPerThread = 500;
  std::atomic<int> arrived{0};
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t id = 1 + t * kPerThread + i;
        recorder.Record(MakeRecord(id, 100.0 + id));
      }
      // Hold the slot until every thread has recorded.
      done.fetch_add(1);
      while (done.load() < kThreads) std::this_thread::yield();
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_LE(recorder.rings(), obs::kWriterSlots + 1);
  EXPECT_EQ(recorder.total_recorded(), kThreads * kPerThread);
  const obs::FlightRecorder::Dump dump = recorder.Snapshot();
  EXPECT_EQ(dump.total_recorded, kThreads * kPerThread);
  ASSERT_EQ(dump.records.size(), 64u);
  for (std::size_t i = 0; i < dump.records.size(); ++i) {
    const obs::RequestRecord& record = dump.records[i];
    EXPECT_DOUBLE_EQ(record.total_us(), 100.0 + record.id);
    if (i > 0) {
      EXPECT_LE(dump.records[i - 1].end_us, record.end_us);
    }
  }
}

// A writer slot belongs to one live thread; the slot numbers past the
// bound are shared, and an exiting thread gives its slot back.
TEST(WriterSlotTest, SlotsAreExclusiveBoundedAndReturnedAtExit) {
  constexpr int kThreads = 2 * obs::kWriterSlots;
  std::vector<int> slots(kThreads, -1);
  std::atomic<int> arrived{0};
  std::atomic<int> read{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      slots[static_cast<std::size_t>(t)] = obs::WriterSlot();
      EXPECT_EQ(obs::WriterSlot(), slots[static_cast<std::size_t>(t)]);
      read.fetch_add(1);
      while (read.load() < kThreads) std::this_thread::yield();
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<int> owned;
  for (const int slot : slots) {
    ASSERT_GE(slot, 0);
    ASSERT_LE(slot, obs::kWriterSlots);
    if (slot < obs::kWriterSlots) owned.push_back(slot);
  }
  std::sort(owned.begin(), owned.end());
  EXPECT_EQ(std::adjacent_find(owned.begin(), owned.end()), owned.end());
  EXPECT_GE(kThreads - static_cast<int>(owned.size()), obs::kWriterSlots);

  // Every thread above has exited: a new thread finds a slot of its own.
  int fresh = -1;
  std::thread([&fresh] { fresh = obs::WriterSlot(); }).join();
  EXPECT_LT(fresh, obs::kWriterSlots);
}

}  // namespace
}  // namespace dagperf
