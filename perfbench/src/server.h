#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

/// The `ctrtl_serve` binary as a child process of the benchmark, with the
/// few facts about it the benchmark reads from outside: CPU time and peak
/// resident memory.
namespace perfbench {

class ServerProcess {
 public:
  /// Starts `binary serve <args...>` and blocks until it prints its
  /// "listening" line (its snapshot journal, if any, is replayed by then).
  /// Throws `std::runtime_error` when it cannot start or dies first.
  ServerProcess(const std::string& binary, const std::vector<std::string>& args);

  /// Stops the server if still running: SIGTERM (the binary's graceful stop),
  /// then SIGKILL after a grace period. Always reaps the child.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Waits for the child to exit after a SHUTDOWN was sent; falls back to
  /// the destructor's signals when it does not. Returns the exit status
  /// (-1 when it had to be killed).
  int wait_exit(int timeout_ms);

  /// User plus system CPU time of the whole server process, in ms.
  [[nodiscard]] double cpu_ms() const;

  /// Peak resident set size (VmHWM), in MB.
  [[nodiscard]] double peak_rss_mb() const;

 private:
  void terminate();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

}  // namespace perfbench
