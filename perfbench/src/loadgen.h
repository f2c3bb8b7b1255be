// Open-loop wire load generator.
//
// One thread drives up to kConnections non-blocking TCP connections from
// a single epoll loop. A timerfd wakes it at each request's due time; it
// then writes every request that is due (pipelining freely — a connection
// carries any number of outstanding requests) and reads whatever answers
// have arrived, matching them to requests by their "id". Each request is
// timed from the moment it was due, not from when it was written, so a
// stall in the generator or the server charges its delay to every request
// it held back. How late the generator itself ran is measured separately.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "util/status.h"

namespace perfbench {

/// \brief One request as the generator sees it.
struct WireRequest {
  int64_t due_ns = 0;   ///< offset from the phase start
  uint8_t conn = 0;
  Op op = Op::kQuery;
  bool keep = false;    ///< keep the response payload (correctness sample)
  std::string frame;    ///< encoded frame; its "id" is base_id + index
};

/// \brief What happened to one request.
struct WireResult {
  Outcome outcome = Outcome::kPending;
  int64_t late_ns = 0;     ///< sent - due
  int64_t latency_ns = 0;  ///< response received - due
  std::string payload;     ///< response body when WireRequest::keep
};

/// \brief Result of one phase.
struct PhaseResult {
  std::vector<WireResult> results;  ///< parallel to the request vector
};

class LoadGen {
 public:
  LoadGen() = default;
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Opens `n` connections to 127.0.0.1:`port`.
  uots::Status Connect(uint16_t port, int n);

  /// Runs one phase: sends `reqs` (sorted by due_ns) on schedule, then
  /// waits up to `drain_s` for outstanding answers. Requests still
  /// unanswered then are transport failures. Request i must carry id
  /// `base_id + i`.
  PhaseResult Run(const std::vector<WireRequest>& reqs, int64_t base_id,
                  double drain_s);

  void Close();

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    size_t in_off = 0;
    bool want_write = false;
    bool dead = false;
  };

  bool Flush(Conn* c);
  void UpdateInterest(int idx);

  int epfd_ = -1;
  int timerfd_ = -1;
  std::vector<Conn> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
