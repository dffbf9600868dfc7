#ifndef DAGPERF_OBS_WRITER_SLOT_H_
#define DAGPERF_OBS_WRITER_SLOT_H_

namespace dagperf {
namespace obs {

/// Process-wide writer slots: how the per-request recorders (FlightRecorder,
/// the windowed SLO types) take a sample without an atomic
/// read-modify-write. A locked instruction costs about as much as the rest
/// of a warm record, and a warm answer takes a few microseconds, so the
/// hooks' budget does not fit one per hook.
///
/// A recording thread holds one of `kWriterSlots` slot numbers, alone, from
/// its first record until it exits; each recorder keeps one lane per slot
/// number, which only the holder writes (relaxed loads and stores). The
/// lane count, and so every recorder's memory, is bounded by
/// kWriterSlots + 1 whatever the thread count: while every slot is held, a
/// further thread gets the shared number `kWriterSlots`, whose lane its
/// writers enter under the recorder's mutex.
inline constexpr int kWriterSlots = 8;

namespace internal {
/// The calling thread's slot number; -1 while it holds none.
inline thread_local int t_writer_slot = -1;
int ClaimWriterSlot();
}  // namespace internal

/// The calling thread's slot number in [0, kWriterSlots], kWriterSlots
/// meaning shared. A thread on the shared number tries again for a slot of
/// its own at its next call.
inline int WriterSlot() {
  const int slot = internal::t_writer_slot;
  return slot >= 0 ? slot : internal::ClaimWriterSlot();
}

}  // namespace obs
}  // namespace dagperf

#endif  // DAGPERF_OBS_WRITER_SLOT_H_
