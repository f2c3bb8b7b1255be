#include "server_proc.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common.h"

namespace perfbench {
namespace {

/// Parses the port after the last ':' in `s`.
uint16_t PortAfterColon(const std::string& s) {
  const size_t colon = s.rfind(':');
  if (colon == std::string::npos) return 0;
  return static_cast<uint16_t>(std::atoi(s.c_str() + colon + 1));
}

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) Stop(5.0);
}

uots::Status ServerProcess::Start(const std::string& binary,
                                  const std::vector<std::string>& args,
                                  const std::string& log_path,
                                  double timeout_s) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) {
    return uots::Status::IOError("pipe");
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  spawn_ns_ = NowNs();
  pid_ = ::fork();
  if (pid_ < 0) return uots::Status::IOError("fork");
  if (pid_ == 0) {
    // Never outlive the runner, even if it dies without cleaning up.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    // The runner may run at raised priority (main.cc); the server must not.
    ::setpriority(PRIO_PROCESS, 0, 0);
    ::dup2(pipefd[1], STDOUT_FILENO);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                           0644);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(pipefd[1]);
  out_fd_ = pipefd[0];

  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  out_buf_.clear();
  port_ = 0;
  std::string line;
  while (port_ == 0) {
    if (!ReadLine(&line, deadline)) {
      Stop(2.0);
      return uots::Status::IOError("server did not report its port (see " +
                                   log_path + ")");
    }
    // "serving on 127.0.0.1:PORT (N workers, ...)"
    if (line.rfind("serving on ", 0) == 0) {
      port_ = PortAfterColon(line.substr(0, line.find(' ', 11)));
    }
  }
  return uots::Status::OK();
}

bool ServerProcess::ReadLine(std::string* line, int64_t deadline_ns) {
  while (true) {
    const size_t nl = out_buf_.find('\n');
    if (nl != std::string::npos) {
      *line = out_buf_.substr(0, nl);
      out_buf_.erase(0, nl + 1);
      return true;
    }
    const int64_t left_ms = (deadline_ns - NowNs()) / 1'000'000;
    if (left_ms <= 0) return false;
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left_ms)) <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    out_buf_.append(buf, static_cast<size_t>(n));
  }
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return -1.0;
}

int ServerProcess::Stop(double timeout_s) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  int status = 0;
  bool reaped = false;
  char buf[4096];
  while (!reaped) {
    // Keep draining stdout so the exit-time metrics dump never blocks.
    pollfd p{out_fd_, POLLIN, 0};
    if (out_fd_ >= 0 && ::poll(&p, 1, 10) > 0) {
      if (::read(out_fd_, buf, sizeof(buf)) <= 0) {
        ::close(out_fd_);
        out_fd_ = -1;
      }
    } else if (out_fd_ < 0) {
      ::usleep(10000);
    }
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      reaped = true;
    } else if (NowNs() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      reaped = true;
    }
  }
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  return status;
}

uots::Status BlockingRoundTrip(uint16_t port, const std::string& frame,
                               std::string* body_out, double timeout_s) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return uots::Status::IOError("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(frame.size())) {
    ::close(fd);
    return uots::Status::IOError(std::string("round trip: ") +
                                 std::strerror(errno));
  }
  std::string in;
  char buf[1 << 14];
  size_t need = 4;
  while (in.size() < need) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      ::close(fd);
      return uots::Status::IOError("round trip: no response");
    }
    in.append(buf, static_cast<size_t>(n));
    if (need == 4 && in.size() >= 4) {
      const auto* p = reinterpret_cast<const unsigned char*>(in.data());
      need = 4 + ((size_t{p[0]} << 24) | (size_t{p[1]} << 16) |
                  (size_t{p[2]} << 8) | size_t{p[3]});
    }
  }
  ::close(fd);
  body_out->assign(in.data() + 4, need - 4);
  return uots::Status::OK();
}

}  // namespace perfbench
