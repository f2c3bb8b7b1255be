// The server under test, run as its own process.

#ifndef PERFBENCH_SERVER_PROC_H_
#define PERFBENCH_SERVER_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// \brief One uots_server child process.
class ServerProcess {
 public:
  ~ServerProcess();

  /// Spawns `binary` with `args` and waits until it reports its port.
  /// stderr goes to `log_path`.
  uots::Status Start(const std::string& binary,
                     const std::vector<std::string>& args,
                     const std::string& log_path, double timeout_s);

  uint16_t port() const { return port_; }
  /// Steady-clock time of the fork, for set-up timing.
  int64_t spawn_ns() const { return spawn_ns_; }

  /// Peak resident set (VmHWM) in MiB; negative when unreadable.
  double PeakRssMb() const;

  /// SIGTERM, then waits (draining stdout) up to `timeout_s` before
  /// SIGKILL. Always reaps the child. \return the child's exit status.
  int Stop(double timeout_s = 20.0);

 private:
  bool ReadLine(std::string* line, int64_t deadline_ns);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string out_buf_;
  uint16_t port_ = 0;
  int64_t spawn_ns_ = 0;
};

/// Sends one frame on a fresh blocking connection and waits for one
/// response frame; `body_out` receives the response JSON.
uots::Status BlockingRoundTrip(uint16_t port, const std::string& frame,
                               std::string* body_out, double timeout_s);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROC_H_
