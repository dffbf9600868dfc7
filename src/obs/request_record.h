#ifndef DAGPERF_OBS_REQUEST_RECORD_H_
#define DAGPERF_OBS_REQUEST_RECORD_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/writer_slot.h"

namespace dagperf {
namespace obs {

/// Per-request attribution for the serving path. Aggregate metrics answer
/// "how is the service doing"; a RequestRecord answers "why was request
/// #4812 slow" — it carries everything the service learned about one request
/// from admission to outcome, in one fixed-size, allocation-free struct
/// (fixed char fields, trivially copyable) so recording costs a struct copy,
/// never a heap walk. The `id` links the record to ScopedSpan traces (spans
/// tag their "request_id" arg with it).

/// How the estimate was produced — the cost classes of the warm path.
enum class RequestPath : std::uint8_t {
  kUnknown = 0,
  /// Every state replayed.
  kFullReplay = 1,
  /// Resumed from a prefix checkpoint (incremental re-estimation).
  kIncremental = 3,
};

const char* RequestPathName(RequestPath path);

struct RequestRecord {
  /// Fixed-capacity name fields: longer names are truncated, never allocated.
  static constexpr std::size_t kOpBytes = 16;
  static constexpr std::size_t kNameBytes = 48;

  std::uint64_t id = 0;
  char op[kOpBytes] = {};        // "estimate" | "explain" | "sweep" | ...
  char workflow[kNameBytes] = {};
  char cluster[kNameBytes] = {};

  /// MonotonicUs timebase. queue_wait = start - submit; exec = end - start.
  double submit_us = 0.0;
  double start_us = 0.0;
  double end_us = 0.0;

  /// Estimator states actually stepped (post-resume).
  std::uint32_t states = 0;
  std::uint32_t resumed_states = 0;

  RequestPath path = RequestPath::kUnknown;
  /// Stable outcome code (ErrorCodeName vocabulary, stored as its numeric
  /// value — obs sits below common and cannot name ErrorCode itself).
  std::uint8_t outcome_code = 0;
  bool ok = false;
  bool had_deadline = false;
  /// Finished within its deadline (vacuously true without one).
  bool deadline_met = true;
  bool shed = false;
  bool expired_in_queue = false;
  /// Answered on the submitting thread without queueing: the checkpoint
  /// store held the complete result, so the estimate was a copy.
  bool served_inline = false;

  double queue_wait_us() const { return start_us - submit_us; }
  double exec_us() const { return end_us - start_us; }
  double total_us() const { return end_us - submit_us; }

  /// Bounded strcpy into the fixed name fields.
  static void SetName(char* field, std::size_t capacity, const std::string& s);
  void set_op(const std::string& s) { SetName(op, kOpBytes, s); }
  void set_workflow(const std::string& s) { SetName(workflow, kNameBytes, s); }
  void set_cluster(const std::string& s) { SetName(cluster, kNameBytes, s); }
};

/// A structured service event (drain, shutdown, snapshot, brownout
/// transition) pinned alongside the request ring — the "what changed"
/// context a post-mortem reads next to the slow requests.
struct FlightEvent {
  static constexpr std::size_t kKindBytes = 24;
  static constexpr std::size_t kDetailBytes = 96;

  double ts_us = 0.0;
  char kind[kKindBytes] = {};    // "drain" | "snapshot" | "overload" | ...
  char detail[kDetailBytes] = {};
};

struct FlightRecorderOptions {
  /// Request ring capacity (last N requests survive). Each writer slot's
  /// lane holds the next power of two, allocated on its first record.
  int capacity = 256;
  /// Exemplar slots: the slowest requests of the current pin window and the
  /// most recent error requests are pinned outside the ring, so one slow
  /// burst an hour ago is still there after the ring wrapped.
  int slowest_exemplars = 4;
  int error_exemplars = 8;
  /// Pin window for the slowest exemplars: on the first record after this
  /// many seconds the slots recycle, so "slowest" tracks recent behaviour.
  double exemplar_window_seconds = 300.0;
  /// Event ring capacity.
  int event_capacity = 64;
};

/// Lock-minimal rings of the last N RequestRecords plus pinned exemplars.
///
/// Each writer slot (obs/writer_slot.h) has its own ring, so the hot path
/// (Record) is: one relaxed enabled-load (disarmed exit), the thread's slot
/// number, a struct copy and a seqlock-style publish by the ring's only
/// writer — no atomic read-modify-write, no mutex, no allocation after a
/// ring's first record. Threads on the shared slot number take a mutex.
/// Memory is at most kWriterSlots + 1 rings. Exemplar pinning takes a small
/// mutex but only when a record is an error or beats the current slowest
/// set (rare by construction). Snapshot() reads the rings under the same
/// publish protocol, skips slots that are mid-write, and keeps the last N
/// records by completion time (`end_us`).
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends `record` to the ring; pins it if it is an error or among the
  /// slowest of the window. Disarmed cost: one relaxed load.
  void Record(const RequestRecord& record);

  /// Appends a structured event (strings truncated to the fixed fields).
  void AddEvent(const std::string& kind, const std::string& detail);

  struct Dump {
    /// Ring contents, oldest first.
    std::vector<RequestRecord> records;
    /// Pinned slowest-of-window, slowest first.
    std::vector<RequestRecord> slowest;
    /// Pinned most-recent errors, oldest first.
    std::vector<RequestRecord> errors;
    /// Event ring, oldest first.
    std::vector<FlightEvent> events;
    std::uint64_t total_recorded = 0;
  };
  Dump Snapshot() const;

  /// Serialises a Snapshot as a self-contained JSON object (same dialect as
  /// MetricsRegistry::ToJson — obs does not depend on common/json).
  std::string ToJson() const;

  std::uint64_t total_recorded() const;

  /// Rings allocated so far, one per writer slot that recorded: at most
  /// kWriterSlots + 1, whatever the number of threads that recorded.
  int rings() const;

 private:
  struct Slot {
    static constexpr std::size_t kWords =
        (sizeof(RequestRecord) + sizeof(std::uint64_t) - 1) /
        sizeof(std::uint64_t);

    /// Even = published; odd = write in progress. Only the lane's writer
    /// stores it.
    std::atomic<std::uint64_t> seq{0};
    /// The record payload as atomic words: both sides of the seqlock copy
    /// through relaxed atomic loads/stores, so a torn read is detected by
    /// the seq re-check rather than being undefined behaviour.
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };

  /// One writer slot's ring of `mask_ + 1` slots.
  struct Lane {
    /// Allocated by the lane's first writer; null until then.
    std::atomic<Slot*> slots{nullptr};
    /// Records taken; record `i` sits in slots[i & mask_].
    std::atomic<std::uint64_t> head{0};
  };

  /// Copies `record` into `lane`'s ring; the caller is its writer.
  void Append(Lane& lane, const RequestRecord& record);
  /// The exemplar section of Record, under exemplar_mutex_.
  void Pin(const RequestRecord& record);

  FlightRecorderOptions options_;
  std::uint64_t mask_ = 0;
  std::array<Lane, kWriterSlots + 1> lanes_;
  /// Serialises the writers of the shared lane (lanes_[kWriterSlots]).
  std::mutex shared_mutex_;

  /// Lock-free admission pre-check: a record only takes the exemplar mutex
  /// if it beats this floor (slowest pinned latency; 0 while the set fills)
  /// or crosses the window deadline. Stale reads are benign.
  std::atomic<double> slow_floor_us_{0.0};
  std::atomic<double> exemplar_deadline_us_{0.0};

  /// Exemplars + events: cold-path state under one mutex.
  mutable std::mutex exemplar_mutex_;
  std::vector<RequestRecord> slowest_;
  double exemplar_window_start_us_ = 0.0;
  std::vector<RequestRecord> errors_;
  std::vector<FlightEvent> events_;
  std::uint64_t event_head_ = 0;
  std::uint64_t events_total_ = 0;
};

}  // namespace obs
}  // namespace dagperf

#endif  // DAGPERF_OBS_REQUEST_RECORD_H_
