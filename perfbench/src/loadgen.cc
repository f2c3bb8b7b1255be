#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace perfbench {
namespace {

constexpr uint64_t kTimerTag = ~uint64_t{0};

/// Correlation id of a response body: the first "id" member (the server
/// writes it first). -1 when absent.
int64_t ScanId(std::string_view body) {
  const size_t pos = body.find("\"id\":");
  if (pos == std::string_view::npos) return -1;
  return std::strtoll(body.data() + pos + 5, nullptr, 10);
}

Outcome ScanStatus(std::string_view body) {
  static constexpr std::string_view kKey = "\"status\":\"";
  const size_t pos = body.find(kKey);
  if (pos == std::string_view::npos) return Outcome::kError;
  const std::string_view rest = body.substr(pos + kKey.size());
  if (rest.starts_with("ok\"")) return Outcome::kOk;
  if (rest.starts_with("overloaded\"")) return Outcome::kOverloaded;
  if (rest.starts_with("deadline_exceeded\"")) return Outcome::kDeadline;
  return Outcome::kError;
}

}  // namespace

LoadGen::~LoadGen() { Close(); }

void LoadGen::Close() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  conns_.clear();
  if (timerfd_ >= 0) ::close(timerfd_);
  if (epfd_ >= 0) ::close(epfd_);
  timerfd_ = epfd_ = -1;
}

uots::Status LoadGen::Connect(uint16_t port, int n) {
  Close();
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timerfd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epfd_ < 0 || timerfd_ < 0) {
    return uots::Status::IOError(std::string("epoll/timerfd: ") +
                                 std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTimerTag;
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, timerfd_, &ev);
  conns_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return uots::Status::IOError("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return uots::Status::IOError(std::string("connect: ") +
                                   std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    conns_[i].fd = fd;
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<uint64_t>(i);
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  }
  return uots::Status::OK();
}

bool LoadGen::Flush(Conn* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  c->out.clear();
  c->out_off = 0;
  return true;
}

void LoadGen::UpdateInterest(int idx) {
  Conn& c = conns_[idx];
  const bool want = c.out_off < c.out.size();
  if (want == c.want_write) return;
  c.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = static_cast<uint64_t>(idx);
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
}

PhaseResult LoadGen::Run(const std::vector<WireRequest>& reqs, int64_t base_id,
                         double drain_s) {
  PhaseResult out;
  out.results.resize(reqs.size());
  const int64_t start = NowNs() + 2'000'000;  // first due slightly ahead
  size_t next = 0;
  size_t outstanding = 0;
  int64_t drain_end = 0;
  std::vector<bool> dirty(conns_.size(), false);
  epoll_event events[16];
  char buf[1 << 16];

  auto fail_conn = [&](int idx) {
    Conn& c = conns_[idx];
    c.dead = true;
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
    for (size_t i = 0; i < next; ++i) {
      if (reqs[i].conn == idx && out.results[i].outcome == Outcome::kPending) {
        out.results[i].outcome = Outcome::kTransport;
        --outstanding;
      }
    }
  };

  while (true) {
    int64_t now = NowNs();
    // Send everything that is due.
    while (next < reqs.size() && start + reqs[next].due_ns <= now) {
      const WireRequest& r = reqs[next];
      Conn& c = conns_[r.conn];
      out.results[next].late_ns = now - (start + r.due_ns);
      if (c.dead) {
        out.results[next].outcome = Outcome::kTransport;
      } else {
        c.out += r.frame;
        dirty[r.conn] = true;
        ++outstanding;
      }
      ++next;
    }
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (!dirty[i]) continue;
      dirty[i] = false;
      if (!Flush(&conns_[i])) {
        fail_conn(static_cast<int>(i));
      } else {
        UpdateInterest(static_cast<int>(i));
      }
    }
    if (next == reqs.size() && outstanding == 0) break;

    int timeout_ms = -1;
    if (next < reqs.size()) {
      const int64_t due = start + reqs[next].due_ns;
      itimerspec its{};
      its.it_value.tv_sec = due / 1'000'000'000;
      its.it_value.tv_nsec = due % 1'000'000'000;
      ::timerfd_settime(timerfd_, TFD_TIMER_ABSTIME, &its, nullptr);
    } else {
      if (drain_end == 0) drain_end = now + static_cast<int64_t>(drain_s * 1e9);
      if (now >= drain_end) break;
      timeout_ms = static_cast<int>((drain_end - now) / 1'000'000) + 1;
    }
    const int n = ::epoll_wait(epfd_, events, 16, timeout_ms);
    for (int e = 0; e < n; ++e) {
      const uint64_t tag = events[e].data.u64;
      if (tag == kTimerTag) {
        uint64_t expirations;
        (void)!::read(timerfd_, &expirations, sizeof(expirations));
        continue;
      }
      const int idx = static_cast<int>(tag);
      Conn& c = conns_[idx];
      if (c.dead) continue;
      if (events[e].events & EPOLLOUT) {
        if (!Flush(&c)) {
          fail_conn(idx);
          continue;
        }
        UpdateInterest(idx);
      }
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      bool closed = false;
      while (true) {
        const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          c.in.append(buf, static_cast<size_t>(r));
          if (static_cast<size_t>(r) < sizeof(buf)) break;
        } else if (r == 0) {
          closed = true;
          break;
        } else if (errno == EINTR) {
          continue;
        } else {
          if (errno != EAGAIN && errno != EWOULDBLOCK) closed = true;
          break;
        }
      }
      const int64_t recv_ns = NowNs();
      // Frames: 4-byte big-endian length, then the JSON body.
      while (c.in.size() - c.in_off >= 4) {
        const auto* p = reinterpret_cast<const unsigned char*>(c.in.data() +
                                                                c.in_off);
        const size_t len = (size_t{p[0]} << 24) | (size_t{p[1]} << 16) |
                           (size_t{p[2]} << 8) | size_t{p[3]};
        if (c.in.size() - c.in_off < 4 + len) break;
        const std::string_view body(c.in.data() + c.in_off + 4, len);
        c.in_off += 4 + len;
        const int64_t id = ScanId(body);
        const int64_t i = id - base_id;
        if (i < 0 || static_cast<size_t>(i) >= next) continue;
        WireResult& w = out.results[static_cast<size_t>(i)];
        if (w.outcome != Outcome::kPending) continue;
        w.outcome = ScanStatus(body);
        w.latency_ns = recv_ns - (start + reqs[static_cast<size_t>(i)].due_ns);
        if (reqs[static_cast<size_t>(i)].keep) w.payload.assign(body);
        --outstanding;
      }
      if (c.in_off == c.in.size()) {
        c.in.clear();
        c.in_off = 0;
      } else if (c.in_off > (1 << 20)) {
        c.in.erase(0, c.in_off);
        c.in_off = 0;
      }
      if (closed) fail_conn(idx);
    }
  }
  // Disarm the timer so a stale expiry cannot wake the next phase early.
  itimerspec zero{};
  ::timerfd_settime(timerfd_, 0, &zero, nullptr);
  for (WireResult& w : out.results) {
    if (w.outcome == Outcome::kPending) w.outcome = Outcome::kTransport;
  }
  return out;
}

}  // namespace perfbench
