#include "server.h"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

constexpr int kBootTimeoutMs = 60'000;

std::string read_proc(pid_t pid, const char* file) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/" + file);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    throw std::runtime_error("server: pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  std::vector<std::string> argv_text = {binary, "serve"};
  argv_text.insert(argv_text.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_text) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
  if (rc != 0) {
    pid_ = -1;
    close(stdout_fd_);
    stdout_fd_ = -1;
    throw std::runtime_error("server: cannot start " + binary);
  }

  std::string seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(kBootTimeoutMs);
  while (seen.find("listening") == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd fd{stdout_fd_, POLLIN, 0};
    char buffer[256];
    const ssize_t got = left.count() > 0 && poll(&fd, 1, static_cast<int>(left.count())) > 0
                            ? read(stdout_fd_, buffer, sizeof buffer)
                            : -1;
    if (got <= 0) {
      terminate();
      throw std::runtime_error("server: exited or timed out before listening");
    }
    seen.append(buffer, static_cast<std::size_t>(got));
  }
}

ServerProcess::~ServerProcess() { terminate(); }

void ServerProcess::terminate() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    if (wait_exit(5'000) == -1 && pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

int ServerProcess::wait_exit(int timeout_ms) {
  if (pid_ <= 0) {
    return -1;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

double ServerProcess::cpu_ms() const {
  // Fields 14 and 15 of /proc/<pid>/stat (utime, stime) in clock ticks; the
  // command field may hold spaces, so count from its closing parenthesis.
  const std::string stat = read_proc(pid_, "stat");
  const std::size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) {
    return 0.0;
  }
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) {
      utime = std::stoull(field);
    } else if (index == 15) {
      stime = std::stoull(field);
      break;
    }
  }
  return static_cast<double>(utime + stime) * 1000.0 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  std::istringstream lines(read_proc(pid_, "status"));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
