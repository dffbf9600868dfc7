#include "obs/writer_slot.h"

#include <atomic>
#include <bit>
#include <cstdint>

namespace dagperf {
namespace obs {
namespace internal {
namespace {

/// Bit i set: slot i is held by a live thread.
std::atomic<std::uint32_t> g_held{0};

static_assert(kWriterSlots <= 32, "the held set is one 32-bit word");
constexpr std::uint32_t kAllHeld =
    kWriterSlots == 32 ? ~std::uint32_t{0}
                       : (std::uint32_t{1} << kWriterSlots) - 1;

/// Gives the thread's slot back when the thread exits. Constructed on the
/// thread's first claim, so threads that never record register nothing.
struct Release {
  int slot = -1;
  ~Release() {
    // Release pairs with the next holder's acquire: its lane writes start
    // after this thread's last ones.
    if (slot >= 0) {
      g_held.fetch_and(~(std::uint32_t{1} << slot), std::memory_order_release);
    }
  }
};
thread_local Release t_release;

}  // namespace

int ClaimWriterSlot() {
  std::uint32_t held = g_held.load(std::memory_order_relaxed);
  while (held != kAllHeld) {
    const int free = std::countr_one(held);
    if (g_held.compare_exchange_weak(held, held | (std::uint32_t{1} << free),
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      t_release.slot = free;
      t_writer_slot = free;
      return free;
    }
  }
  return kWriterSlots;
}

}  // namespace internal
}  // namespace obs
}  // namespace dagperf
