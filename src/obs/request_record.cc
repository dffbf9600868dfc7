#include "obs/request_record.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>
#include <type_traits>
#include <utility>

namespace dagperf {
namespace obs {

namespace {

/// Minimal JSON string escaping for the fixed name fields (pure std; obs
/// cannot use common/json).
std::string JsonEscape(const char* s) {
  std::string out;
  for (const char* p = s; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendRecordJson(std::ostringstream& out, const RequestRecord& r) {
  out << "{\"id\":" << r.id << ",\"op\":\"" << JsonEscape(r.op)
      << "\",\"workflow\":\"" << JsonEscape(r.workflow) << "\",\"cluster\":\""
      << JsonEscape(r.cluster) << "\",\"path\":\"" << RequestPathName(r.path)
      << "\",\"outcome_code\":" << static_cast<int>(r.outcome_code)
      << ",\"ok\":" << (r.ok ? "true" : "false")
      << ",\"queue_wait_us\":" << r.queue_wait_us()
      << ",\"exec_us\":" << r.exec_us() << ",\"total_us\":" << r.total_us()
      << ",\"states\":" << r.states
      << ",\"resumed_states\":" << r.resumed_states
      << ",\"had_deadline\":" << (r.had_deadline ? "true" : "false")
      << ",\"deadline_met\":" << (r.deadline_met ? "true" : "false")
      << ",\"shed\":" << (r.shed ? "true" : "false")
      << ",\"expired_in_queue\":" << (r.expired_in_queue ? "true" : "false")
      << ",\"served_inline\":" << (r.served_inline ? "true" : "false")
      << "}";
}

/// Stores `bytes` into `words`, one relaxed store per word, unrolled: the
/// copy is most of a Record, and a loop costs about half again as much.
template <std::size_t N, std::size_t... I>
void StoreWords(std::array<std::atomic<std::uint64_t>, N>& words,
                const char* bytes, std::index_sequence<I...>) {
  const auto store = [bytes, &words](std::size_t i) {
    std::uint64_t word;
    std::memcpy(&word, bytes + i * sizeof(word), sizeof(word));
    words[i].store(word, std::memory_order_relaxed);
  };
  (store(I), ...);
}

}  // namespace

const char* RequestPathName(RequestPath path) {
  switch (path) {
    case RequestPath::kFullReplay: return "full_replay";
    case RequestPath::kIncremental: return "incremental";
    case RequestPath::kUnknown: break;
  }
  return "unknown";
}

void RequestRecord::SetName(char* field, std::size_t capacity,
                            const std::string& s) {
  const std::size_t n = std::min(s.size(), capacity - 1);
  std::memcpy(field, s.data(), n);
  field[n] = '\0';
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options) {
  options_.capacity = std::max(1, options_.capacity);
  options_.slowest_exemplars = std::max(0, options_.slowest_exemplars);
  options_.error_exemplars = std::max(0, options_.error_exemplars);
  options_.event_capacity = std::max(1, options_.event_capacity);
  mask_ = std::bit_ceil(static_cast<std::uint64_t>(options_.capacity)) - 1;
  slowest_.reserve(static_cast<std::size_t>(options_.slowest_exemplars));
  errors_.reserve(static_cast<std::size_t>(options_.error_exemplars));
  events_.resize(static_cast<std::size_t>(options_.event_capacity));
}

FlightRecorder::~FlightRecorder() {
  for (Lane& lane : lanes_) delete[] lane.slots.load(std::memory_order_relaxed);
}

void FlightRecorder::Append(Lane& lane, const RequestRecord& record) {
  static_assert(std::is_trivially_copyable<RequestRecord>::value &&
                    sizeof(RequestRecord) == sizeof(Slot::words),
                "the seqlock copies RequestRecord as raw words");
  // Only this lane's writer allocates its ring or stores its head, so
  // relaxed loads read its own writes (a slot number changes holder with
  // release/acquire, the shared lane under its mutex).
  Slot* slots = lane.slots.load(std::memory_order_relaxed);
  if (slots == nullptr) {
    slots = new Slot[mask_ + 1];
    lane.slots.store(slots, std::memory_order_release);
  }
  const std::uint64_t head = lane.head.load(std::memory_order_relaxed);
  Slot& slot = slots[head & mask_];
  // Seqlock publish: mark the slot odd, copy, publish it even, then count
  // the record.
  const std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  StoreWords(slot.words, reinterpret_cast<const char*>(&record),
             std::make_index_sequence<Slot::kWords>());
  slot.seq.store(seq + 2, std::memory_order_release);
  lane.head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::Record(const RequestRecord& record) {
  if (!internal::Enabled()) return;
  const int writer = WriterSlot();
  if (writer == kWriterSlots) {
    std::lock_guard<std::mutex> lock(shared_mutex_);
    Append(lanes_[kWriterSlots], record);
  } else {
    Append(lanes_[static_cast<std::size_t>(writer)], record);
  }

  // Exemplar pinning — only errors and window-topping latencies take the
  // mutex. The lock-free pre-check reads the admission floor (slowest pinned
  // latency once the set is full; 0 while filling, so everything admits) and
  // the window deadline; a stale read costs at most one extra lock or a
  // one-record-late recycle, never a lost exemplar.
  const bool is_error = !record.ok;
  const bool window_expired =
      options_.slowest_exemplars > 0 &&
      record.end_us > exemplar_deadline_us_.load(std::memory_order_relaxed);
  const bool maybe_slowest =
      options_.slowest_exemplars > 0 &&
      record.total_us() > slow_floor_us_.load(std::memory_order_relaxed);
  if (!window_expired && !maybe_slowest &&
      !(is_error && options_.error_exemplars > 0)) {
    return;
  }
  Pin(record);
}

void FlightRecorder::Pin(const RequestRecord& record) {
  const bool is_error = !record.ok;
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  if (options_.slowest_exemplars > 0) {
    const double window_us = options_.exemplar_window_seconds * 1e6;
    // The first record opens the first window; until then the deadline is
    // 0, which every record fails in the pre-check above.
    if (exemplar_deadline_us_.load(std::memory_order_relaxed) == 0.0 ||
        record.end_us - exemplar_window_start_us_ > window_us) {
      slowest_.clear();
      exemplar_window_start_us_ = record.end_us;
      exemplar_deadline_us_.store(record.end_us + window_us,
                                  std::memory_order_relaxed);
    }
    const std::size_t cap =
        static_cast<std::size_t>(options_.slowest_exemplars);
    if (slowest_.size() < cap ||
        record.total_us() > slowest_.back().total_us()) {
      slowest_.push_back(record);
      std::sort(slowest_.begin(), slowest_.end(),
                [](const RequestRecord& a, const RequestRecord& b) {
                  return a.total_us() > b.total_us();
                });
      if (slowest_.size() > cap) slowest_.resize(cap);
    }
    slow_floor_us_.store(
        slowest_.size() < cap ? 0.0 : slowest_.back().total_us(),
        std::memory_order_relaxed);
  }
  if (is_error && options_.error_exemplars > 0) {
    errors_.push_back(record);
    const std::size_t ecap = static_cast<std::size_t>(options_.error_exemplars);
    if (errors_.size() > ecap) {
      errors_.erase(errors_.begin(),
                    errors_.begin() +
                        static_cast<std::ptrdiff_t>(errors_.size() - ecap));
    }
  }
}

void FlightRecorder::AddEvent(const std::string& kind,
                              const std::string& detail) {
  if (!internal::Enabled()) return;
  FlightEvent event;
  event.ts_us = MonotonicUs();
  RequestRecord::SetName(event.kind, FlightEvent::kKindBytes, kind);
  RequestRecord::SetName(event.detail, FlightEvent::kDetailBytes, detail);
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  events_[static_cast<std::size_t>(
      event_head_ % static_cast<std::uint64_t>(options_.event_capacity))] =
      event;
  ++event_head_;
  ++events_total_;
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.head.load(std::memory_order_relaxed);
  }
  return total;
}

int FlightRecorder::rings() const {
  int rings = 0;
  for (const Lane& lane : lanes_) {
    if (lane.slots.load(std::memory_order_relaxed) != nullptr) ++rings;
  }
  return rings;
}

FlightRecorder::Dump FlightRecorder::Snapshot() const {
  Dump dump;
  const std::uint64_t cap = static_cast<std::uint64_t>(options_.capacity);
  for (const Lane& lane : lanes_) {
    const Slot* slots = lane.slots.load(std::memory_order_acquire);
    if (slots == nullptr) continue;
    const std::uint64_t head = lane.head.load(std::memory_order_acquire);
    dump.total_recorded += head;
    for (std::uint64_t i = head - std::min(head, cap); i < head; ++i) {
      const Slot& slot = slots[static_cast<std::size_t>(i & mask_)];
      // Seqlock read: retry while the writer holds the slot; give up after
      // a few attempts (it is being overwritten faster than we can read).
      for (int attempt = 0; attempt < 4; ++attempt) {
        const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
        if (before & 1) continue;
        std::uint64_t staged[Slot::kWords];
        for (std::size_t w = 0; w < Slot::kWords; ++w) {
          staged[w] = slot.words[w].load(std::memory_order_relaxed);
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.seq.load(std::memory_order_relaxed) != before) continue;
        RequestRecord copy;
        std::memcpy(&copy, staged, sizeof(copy));
        if (copy.end_us > 0.0 || copy.id != 0) dump.records.push_back(copy);
        break;
      }
    }
  }
  // Each lane is in record order; across lanes the last N are the N that
  // completed last.
  std::stable_sort(dump.records.begin(), dump.records.end(),
                   [](const RequestRecord& a, const RequestRecord& b) {
                     return a.end_us < b.end_us;
                   });
  if (dump.records.size() > cap) {
    dump.records.erase(dump.records.begin(),
                       dump.records.end() - static_cast<std::ptrdiff_t>(cap));
  }
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  dump.slowest = slowest_;
  dump.errors = errors_;
  const std::uint64_t ecap = static_cast<std::uint64_t>(options_.event_capacity);
  const std::uint64_t ecount = std::min(event_head_, ecap);
  dump.events.reserve(static_cast<std::size_t>(ecount));
  for (std::uint64_t i = event_head_ - ecount; i < event_head_; ++i) {
    dump.events.push_back(events_[static_cast<std::size_t>(i % ecap)]);
  }
  return dump;
}

std::string FlightRecorder::ToJson() const {
  const Dump dump = Snapshot();
  std::ostringstream out;
  out << "{\"total_recorded\":" << dump.total_recorded << ",\"records\":[";
  for (std::size_t i = 0; i < dump.records.size(); ++i) {
    if (i > 0) out << ",";
    AppendRecordJson(out, dump.records[i]);
  }
  out << "],\"slowest\":[";
  for (std::size_t i = 0; i < dump.slowest.size(); ++i) {
    if (i > 0) out << ",";
    AppendRecordJson(out, dump.slowest[i]);
  }
  out << "],\"errors\":[";
  for (std::size_t i = 0; i < dump.errors.size(); ++i) {
    if (i > 0) out << ",";
    AppendRecordJson(out, dump.errors[i]);
  }
  out << "],\"events\":[";
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    if (i > 0) out << ",";
    const FlightEvent& e = dump.events[i];
    out << "{\"ts_us\":" << e.ts_us << ",\"kind\":\"" << JsonEscape(e.kind)
        << "\",\"detail\":\"" << JsonEscape(e.detail) << "\"}";
  }
  out << "]}";
  return out.str();
}

}  // namespace obs
}  // namespace dagperf
