// A fixed, program-independent piece of CPU work whose cost tracks how fast
// the host runs this machine's CPU right now. On a shared virtual machine
// that speed drifts by a fifth or more over minutes (neighbours, frequency),
// and every time the benchmark reports drifts with it; dividing a time by
// the probe's slowdown over the same stretch takes the drift out.
#ifndef PERFBENCH_HOSTPROBE_H_
#define PERFBENCH_HOSTPROBE_H_

#include <thread>

namespace perfbench {

// The probe's cost on an undisturbed host, which reported times are scaled
// to. Its value only sets the scale: ratios between runs do not depend on it.
constexpr double kReferenceProbeUs = 20.0;

class HostProbe {
 public:
  // Starts the echo thread the probe talks to; it runs on the CPUs the
  // calling thread may use.
  HostProbe();
  ~HostProbe();

  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  // Runs the probe for about `seconds` and returns the CPU time one unit of
  // it took, in microseconds.
  double Slice(double seconds);

 private:
  int fds_[2] = {-1, -1};
  std::thread echo_;
  unsigned long salt_ = 0;
  unsigned long sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOSTPROBE_H_
