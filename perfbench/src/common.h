// Shared helpers for the benchmark runner: the frozen run constants,
// clocks, quantiles, and the failure-accounting record.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Frozen settings. BENCHMARK.json's workload descriptions and
// perfbench/README.md quote these values; change them together.
// ---------------------------------------------------------------------------

/// Server flags, identical for every workload.
inline constexpr int kServerThreads = 3;        ///< nproc - 1 on a 4-core box
inline constexpr int kCacheEntries = 1024;      ///< result-cache entry budget
inline constexpr int kCacheShards = 8;
/// Longer than a compaction of the served dataset takes, so every cycle
/// lasts one interval and the delta's size at each ingest is the same
/// from run to run.
inline constexpr double kCompactIntervalMs = 2000.0;
inline constexpr int kMaxInflight = 256;        ///< server default admission

/// Load generator shape.
inline constexpr int kConnections = 4;          ///< <= nproc
/// A reporting-window slice is invalid when the generator sent its p99
/// request later after it was due than kLateShareMax of the slice's query
/// p99, or than kLateMaxMs: requests are timed from when they were due, so
/// a late generator would otherwise pass its own delay off as the server's.
/// The absolute cap keeps a host stall that inflates the query p99 too from
/// making its own slice look valid.
inline constexpr double kLateShareMax = 0.10;
inline constexpr double kLateMaxMs = 1.0;
/// A ladder rung only counts when the generator kept up: its median
/// lateness stayed within this.
inline constexpr double kKeepUpMs = 2.0;

/// Capacity rule: a ladder rung passes when both p99 values stay under
/// these limits (a failed request counts as infinitely late) and the
/// generator keeps up (median lateness within kKeepUpMs).
inline constexpr double kQueryP99LimitMs = 100.0;
inline constexpr double kTripP99LimitMs = 100.0;

/// Ingest stream: fixed-size batches at a fixed cadence.
inline constexpr int kIngestBatchTrips = 8;
inline constexpr double kIngestCadenceMs = 25.0;

/// Request mix (all workloads): 80% retrieval, 20% trips (see BuildPool).
inline constexpr int kQueryLocations[] = {2, 5, 8};
inline constexpr int kTripLocations[] = {2, 4, 6};
inline constexpr int kQueryK = 10;

/// hot_cache draws requests Zipf(kZipfS) from a pool of
/// kHotPoolFactor x the cache's entry budget.
inline constexpr double kZipfS = 0.99;
inline constexpr int kHotPoolFactor = 8;

/// Server spawns per run; setup_s is their median.
inline constexpr int kSetupReps = 9;

// ---------------------------------------------------------------------------

inline int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
inline double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Equal neighbours (infinite ones included) need no interpolation.
  if (frac == 0.0 || (*v)[lo] == (*v)[hi]) return (*v)[lo];
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * frac;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Operation types the benchmark sends.
enum class Op : uint8_t { kQuery = 0, kTrip = 1, kIngest = 2 };
inline constexpr int kNumOps = 3;
inline const char* OpName(Op op) {
  switch (op) {
    case Op::kQuery: return "query";
    case Op::kTrip: return "trip";
    case Op::kIngest: return "ingest";
  }
  return "?";
}

/// Per-request outcome on the wire.
enum class Outcome : uint8_t {
  kPending = 0,   ///< sent, no response yet (a transport failure at the end)
  kOk,
  kOverloaded,
  kDeadline,
  kError,         ///< any other non-ok status
  kTransport,     ///< no response, or the connection failed
};

/// Failure accounting for one operation type.
struct Tally {
  int64_t sent = 0, ok = 0, overloaded = 0, deadline = 0, error = 0,
          transport = 0;
  int64_t failed() const { return overloaded + deadline + error + transport; }
  void Add(Outcome o) {
    ++sent;
    switch (o) {
      case Outcome::kOk: ++ok; break;
      case Outcome::kOverloaded: ++overloaded; break;
      case Outcome::kDeadline: ++deadline; break;
      case Outcome::kError: ++error; break;
      case Outcome::kPending:
      case Outcome::kTransport: ++transport; break;
    }
  }
  Tally& operator+=(const Tally& o) {
    sent += o.sent; ok += o.ok; overloaded += o.overloaded;
    deadline += o.deadline; error += o.error; transport += o.transport;
    return *this;
  }
  std::string ToString() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "sent=%lld ok=%lld overloaded=%lld deadline=%lld "
                  "error=%lld transport=%lld",
                  static_cast<long long>(sent), static_cast<long long>(ok),
                  static_cast<long long>(overloaded),
                  static_cast<long long>(deadline),
                  static_cast<long long>(error),
                  static_cast<long long>(transport));
    return buf;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
