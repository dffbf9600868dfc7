#include "process.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The whitespace-separated fields of /proc/<pid>/stat after the command
// name (so fields[0] is the state, fields[1] the parent pid).
std::vector<std::string> StatFields(pid_t pid) {
  const std::string stat = ReadFile("/proc/" + std::to_string(pid) + "/stat");
  std::vector<std::string> fields;
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return fields;
  std::istringstream in(stat.substr(close + 1));
  std::string field;
  while (in >> field) fields.push_back(field);
  return fields;
}

double ProcessCpuUs(pid_t pid) {
  const std::vector<std::string> f = StatFields(pid);
  if (f.size() < 13) return 0.0;
  const double ticks = std::strtod(f[11].c_str(), nullptr) +
                       std::strtod(f[12].c_str(), nullptr);
  return ticks * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ProcessPeakRssMb(pid_t pid) {
  std::istringstream in(ReadFile("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool Gone(pid_t pid) {
  if (::kill(pid, 0) != 0) return errno == ESRCH;
  const std::vector<std::string> f = StatFields(pid);
  return f.empty() || f[0] == "Z" || f[0] == "X";
}

}  // namespace

std::uint64_t StealTicks() {
  const std::string self = "cpu" + std::to_string(::sched_getcpu());
  std::istringstream in(ReadFile("/proc/stat"));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string cpu;
    fields >> cpu;
    if (cpu != self) continue;
    // user nice system idle iowait irq softirq steal ...
    std::uint64_t field = 0, steal = 0;
    for (int i = 0; i < 8 && (fields >> field); ++i) steal = field;
    return steal;
  }
  return 0;
}

OneCpu::OneCpu() {
  CPU_ZERO(&saved_);
  if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

OneCpu::~OneCpu() {
  if (pinned_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
}

std::unique_ptr<Server> Server::Launch(const ServerSpec& spec,
                                       std::string* error) {
  const std::string port_file = spec.dir + "/port";
  const std::string log_file = spec.dir + "/server.log";
  ::unlink(port_file.c_str());

  std::vector<std::string> args = {spec.binary};
  if (spec.routed) {
    // Periodic warm snapshots run on a wall-clock timer, so their memory
    // and CPU per request would depend on how long a run takes; they are
    // off. The shards still save once when the fleet drains.
    args.insert(args.end(), {"route", "--shards", "2", "--threads", "1",
                             "--snapshot-interval-seconds", "0",
                             "--dir", spec.dir + "/fleet"});
  } else {
    args.insert(args.end(), {"serve", "--threads", std::to_string(spec.threads)});
  }
  args.insert(args.end(), {"--port", "0", "--port-file", port_file});
  args.insert(args.end(), spec.extra_args.begin(), spec.extra_args.end());

  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return nullptr;
  }
  if (pid == 0) {
    // Die with the harness, never leave a core file, and log to the
    // server's own directory.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const rlimit no_core = {0, 0};
    ::setrlimit(RLIMIT_CORE, &no_core);
    const int log = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    const int null_in = ::open("/dev/null", O_RDONLY);
    if (null_in >= 0) ::dup2(null_in, STDIN_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }

  std::unique_ptr<Server> server(new Server());
  server->pid_ = pid;
  const Clock::time_point t0 = Clock::now();
  while (SecondsSince(t0) < 60.0) {
    const std::string text = ReadFile(port_file);
    if (!text.empty() && text.back() == '\n') {
      server->port_ = std::atoi(text.c_str());
      if (server->port_ > 0) {
        if (spec.routed) server->children_ = server->Children();
        return server;
      }
    }
    if (server->Exited()) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  std::string log = ReadFile(log_file);
  if (log.size() > 2000) log = log.substr(log.size() - 2000);
  *error = "server did not become ready; log tail:\n" + log;
  return nullptr;
}

Server::~Server() { Stop(); }

bool Server::Exited() const {
  siginfo_t info;
  std::memset(&info, 0, sizeof(info));
  if (::waitid(P_PID, pid_, &info, WEXITED | WNOHANG | WNOWAIT) != 0) {
    return true;
  }
  return info.si_pid != 0;
}

std::vector<pid_t> Server::Children() const {
  std::vector<pid_t> children;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return children;
  while (dirent* entry = ::readdir(proc)) {
    const pid_t pid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (pid <= 0) continue;
    const std::vector<std::string> f = StatFields(pid);
    if (f.size() > 1 && std::atoi(f[1].c_str()) == pid_) {
      children.push_back(pid);
    }
  }
  ::closedir(proc);
  return children;
}

double Server::MainCpuUs() const { return ProcessCpuUs(pid_); }

double Server::CpuUs() const {
  double total = ProcessCpuUs(pid_);
  for (pid_t child : children_) total += ProcessCpuUs(child);
  return total;
}

double Server::PeakRssMb() const {
  double total = ProcessPeakRssMb(pid_);
  for (pid_t child : children_) total += ProcessPeakRssMb(child);
  return total;
}

void Server::Stop(double grace_s) {
  if (stopped_) return;
  stopped_ = true;
  const std::vector<pid_t> children = Children();
  if (!Exited()) ::kill(pid_, SIGTERM);
  const Clock::time_point t0 = Clock::now();
  while (!Exited() && SecondsSince(t0) < grace_s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!Exited()) ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  // Shards the router did not stop are orphans of this process (it is the
  // child subreaper), so they can be killed and reaped here.
  for (pid_t child : children) {
    const Clock::time_point c0 = Clock::now();
    while (!Gone(child) && SecondsSince(c0) < 5.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!Gone(child)) ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
  }
}

}  // namespace perfbench
