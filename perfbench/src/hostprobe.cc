#include "hostprobe.h"

#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <string>
#include <unordered_map>

namespace perfbench {

namespace {

double ClockS(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// One unit mirrors what a request costs the server: allocation, string
// building and hashing, then hand-offs through the kernel to another thread
// and back.
constexpr int kKeysPerUnit = 64;
constexpr int kRoundTripsPerUnit = 4;
constexpr int kUnitsPerCheck = 16;

}  // namespace

HostProbe::HostProbe() {
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) return;
  echo_ = std::thread([fd = fds_[1]] {
    char byte;
    while (::read(fd, &byte, 1) == 1 && ::write(fd, &byte, 1) == 1) {
    }
  });
}

HostProbe::~HostProbe() {
  if (fds_[0] < 0) return;
  ::shutdown(fds_[0], SHUT_RDWR);
  echo_.join();
  ::close(fds_[0]);
  ::close(fds_[1]);
}

double HostProbe::Slice(double seconds) {
  const double wall0 = ClockS(CLOCK_MONOTONIC);
  // The echo thread's CPU time counts too: the harness runs no other
  // thread while the probe does.
  const double cpu0 = ClockS(CLOCK_PROCESS_CPUTIME_ID);
  unsigned long units = 0;
  do {
    for (int u = 0; u < kUnitsPerCheck; ++u, ++units) {
      std::unordered_map<std::string, unsigned long> map;
      ++salt_;
      for (int i = 0; i < kKeysPerUnit; ++i) {
        map.emplace("flow-" + std::to_string(salt_ * 7919 + static_cast<unsigned>(i)),
                    static_cast<unsigned long>(i));
      }
      char byte = static_cast<char>(map.size());
      for (int i = 0; i < kRoundTripsPerUnit && fds_[0] >= 0; ++i) {
        if (::write(fds_[0], &byte, 1) != 1 || ::read(fds_[0], &byte, 1) != 1) break;
      }
      sink_ += map.size() + static_cast<unsigned char>(byte);
    }
  } while (ClockS(CLOCK_MONOTONIC) - wall0 < seconds);
  return (ClockS(CLOCK_PROCESS_CPUTIME_ID) - cpu0) * 1e6 / static_cast<double>(units);
}

}  // namespace perfbench
