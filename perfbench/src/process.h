// Launching and supervising the `dagperf serve` / `dagperf route` processes
// under test, and reading their CPU time and peak memory from /proc.
#ifndef PERFBENCH_PROCESS_H_
#define PERFBENCH_PROCESS_H_

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct ServerSpec {
  std::string binary;   // The built `dagperf` executable.
  bool routed = false;  // `route --shards 2 --threads 1` instead of `serve`.
  int threads = 2;      // `serve --threads`.
  std::string dir;      // Private directory for port files, logs and state.
  std::vector<std::string> extra_args;
};

// CPU time the hypervisor gave to other guests instead of the CPU the
// calling thread runs on (its `steal` column in /proc/stat), in clock ticks.
std::uint64_t StealTicks();

// While alive, the calling thread and every process it starts run on one
// CPU: the highest-numbered one the thread may use. On a virtual machine a
// request that hops between CPUs pays for waking an idle virtual CPU, a cost
// that swings with the load on the host; on one CPU every hand-off is a
// local context switch. The destructor restores the thread's CPU set.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();

  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// One running server (for `route`, the router and its shard children).
// The destructor stops it and waits for every process to end.
class Server {
 public:
  // Starts the server and blocks until it is ready to serve (its port is
  // published; `route` publishes only after every shard is up). Returns null
  // and fills *error on failure.
  static std::unique_ptr<Server> Launch(const ServerSpec& spec,
                                        std::string* error);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return port_; }

  // True once the main process has exited (checked without reaping it, so
  // its CPU counters stay readable).
  bool Exited() const;

  // User + system CPU of the main process and the children it had when it
  // became ready, in microseconds.
  double CpuUs() const;
  // User + system CPU of the main process alone, in microseconds.
  double MainCpuUs() const;
  // VmHWM summed over the same processes, in MiB.
  double PeakRssMb() const;

  // Stops the server: SIGTERM (a graceful drain), then SIGKILL for anything
  // left after `grace_s`, and reaps every process.
  void Stop(double grace_s = 20.0);

 private:
  Server() = default;
  std::vector<pid_t> Children() const;

  pid_t pid_ = -1;
  std::vector<pid_t> children_;  // Shards of a router, listed once ready.
  int port_ = 0;
  bool stopped_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_H_
