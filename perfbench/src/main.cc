// uots_perfbench — the repository benchmark runner.
//
//   uots_perfbench prepare --snapshot=PATH
//   uots_perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                      --server=PATH --snapshot=PATH --workdir=DIR
//
// `prepare` builds the served dataset once: the BRN city with 15k trips
// and the contraction-hierarchy oracle baked into a snapshot.
//
// `run --trace 0` measures the end-to-end metrics against a uots_server
// child process: set-up time (median of kSetupReps spawns), latency at the
// workload's fixed reporting rate, capacity on the workload's rate
// ladder, ingest acknowledgement latency and peak RSS. `run --trace 1`
// measures the per-layer metrics: a shorter wire window at the reporting
// rate, then the same schedule replayed in process with and without spans
// (replay.h). Both end with the correctness gate, and the last line of
// standard output is the result object. See perfbench/README.md.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/datasets.h"
#include "gate.h"
#include "loadgen.h"
#include "oracle/ch_oracle.h"
#include "replay.h"
#include "server/protocol.h"
#include "server_proc.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kDatasetTrajectories = 15000;
/// About this many reporting-window reads are kept for the gate.
constexpr size_t kWindowSamples = 96;
/// Post-write gate: this many retrieval and trip pool entries, each sent
/// twice (the repeat exercises the cache path).
constexpr int kGateQueries = 24;
constexpr int kGateTrips = 12;
/// Ingest probe after the reads: one unmeasured compaction interval, then
/// kIngestSlices slices of one interval each; the reported latencies pool
/// the kKeptIngestSlices with the least host CPU steal.
constexpr int kIngestSlices = 5;
constexpr int kKeptIngestSlices = 3;
constexpr double kIngestProbeSeconds =
    (kIngestSlices + 1) * kCompactIntervalMs / 1000.0;
/// The replays' ingest probe: five compaction intervals.
constexpr double kReplayIngestSeconds = 5 * kCompactIntervalMs / 1000.0;
constexpr double kWarmupSeconds = 1.0;
constexpr double kDrainSeconds = 15.0;
/// The reporting window is this many back-to-back slices; the reported
/// latencies pool up to kKeptSlices valid ones, the least host CPU steal
/// first. Short slices catch the quiet gaps between bursts of steal.
constexpr int kWindowSlices = 36;
constexpr int kKeptSlices = 12;
/// Slices measured beyond kWindowSlices while fewer than kKeptSlices are
/// valid (the generator kept up).
constexpr int kExtraSlices = 6;
/// A ladder rung that fails while the host steals more than this share of
/// the CPU time the machine wanted is probed again, once per run: steal
/// only ever makes a rung fail, so the repeat gives a rung the host failed
/// a second chance, and a rung the server cannot sustain fails again.
constexpr double kLadderRetryStealPct = 2.0;

struct Args {
  std::string cmd;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string server;
  std::string snapshot;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      val = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    } else {
      return false;
    }
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->trace = std::atoi(val.c_str());
    } else if (key == "--server") {
      a->server = val;
    } else if (key == "--snapshot") {
      a->snapshot = val;
    } else if (key == "--workdir") {
      a->workdir = val;
    } else {
      return false;
    }
  }
  return true;
}

int Prepare(const Args& a) {
  auto db = uots::bench::LoadCity(uots::bench::City::kBRN,
                                  kDatasetTrajectories);
  uots::OracleBuildStats ostats;
  auto oracle = uots::DistanceOracle::Build(db->network(), {}, &ostats);
  if (!oracle.ok()) {
    std::fprintf(stderr, "prepare: oracle: %s\n",
                 oracle.status().ToString().c_str());
    return 1;
  }
  db->AttachOracle(std::make_shared<uots::DistanceOracle>(std::move(*oracle)));
  const uots::Status st = uots::storage::WriteSnapshot(*db, a.snapshot);
  if (!st.ok()) {
    std::fprintf(stderr, "prepare: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("prepared %s (%zu vertices, %zu trajectories, oracle %.2fs)\n",
              a.snapshot.c_str(), db->network().NumVertices(),
              db->store().size(), ostats.seconds);
  return 0;
}

/// Ordered metric list, printed as the result object's "metrics".
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back(Metric{name, value, unit});
  }
  void Append(const std::vector<Metric>& ms) {
    items_.insert(items_.end(), ms.begin(), ms.end());
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[256];
      const double v = std::isfinite(items_[i].value) ? items_[i].value : 1e9;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", i ? ", " : "",
                    items_[i].name.c_str(), v, items_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }
  void Print() const {
    for (const Metric& m : items_) {
      std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  std::vector<Metric> items_;
};

/// Latency sample of one request; failures count as missing every limit.
double LatencyMs(const WireResult& w) {
  return w.outcome == Outcome::kOk ? static_cast<double>(w.latency_ns) / 1e6
                                   : INFINITY;
}

/// Per-phase summary, split by operation type.
struct PhaseSummary {
  Tally tally[kNumOps];
  std::vector<double> latency_ms[kNumOps];
  std::vector<double> late_ms;
  double P(Op op, double q) {
    std::vector<double> v = latency_ms[static_cast<int>(op)];
    return Quantile(&v, q);
  }
  double LateP99() { return Quantile(&late_ms, 0.99); }
  Tally Total() const {
    Tally t;
    for (const Tally& x : tally) t += x;
    return t;
  }
  PhaseSummary& operator+=(const PhaseSummary& o) {
    for (int op = 0; op < kNumOps; ++op) {
      tally[op] += o.tally[op];
      latency_ms[op].insert(latency_ms[op].end(), o.latency_ms[op].begin(),
                            o.latency_ms[op].end());
    }
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    return *this;
  }
};

PhaseSummary Summarize(const std::vector<WireRequest>& reqs,
                       const PhaseResult& r) {
  PhaseSummary s;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const int op = static_cast<int>(reqs[i].op);
    s.tally[op].Add(r.results[i].outcome);
    s.latency_ms[op].push_back(LatencyMs(r.results[i]));
    s.late_ms.push_back(static_cast<double>(r.results[i].late_ns) / 1e6);
  }
  return s;
}

/// Everything one wire run needs.
class WireSession {
 public:
  WireSession(const Args& a, const WorkloadSpec& spec, const RequestPool& pool,
              const std::vector<std::vector<uots::Trajectory>>& batches)
      : a_(a), spec_(spec), pool_(pool), batches_(batches),
        rng_(a.seed * 7919 + 17) {}

  std::vector<std::string> ServerArgs() const {
    std::vector<std::string> args = {
        "--dataset=" + a_.snapshot,
        "--port=0",
        "--threads=" + std::to_string(kServerThreads),
        "--max-inflight=" + std::to_string(kMaxInflight),
        "--cache-max-entries=" + std::to_string(kCacheEntries),
        "--cache-shards=" + std::to_string(kCacheShards),
        "--compact-snapshot=" + CompactPath(),
        "--compact-interval-ms=" +
            std::to_string(static_cast<int>(kCompactIntervalMs))};
    return args;
  }

  std::string CompactPath() const {
    return a_.workdir + "/compact-" + std::to_string(getpid()) + ".snap";
  }

  /// Spawns the server `reps` times, timing spawn -> first answer; the
  /// last one stays up. \return the set-up times, seconds.
  uots::Result<std::vector<double>> SpawnServer(int reps) {
    // A fixed one-location query: set-up time should not depend on how
    // heavy the seed's first query happens to be.
    uots::QueryRequest probe;
    probe.query.locations = {0};
    probe.query.k = 1;
    probe.cache = uots::CacheMode::kBypass;
    const std::string frame =
        uots::EncodeFrame(uots::EncodeQueryRequest(probe));
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
      if (r > 0) server_.Stop();
      uots::Status st = server_.Start(a_.server, ServerArgs(),
                                      a_.workdir + "/server.log", 60.0);
      if (!st.ok()) return st;
      std::string body;
      st = BlockingRoundTrip(server_.port(), frame, &body, 30.0);
      if (!st.ok()) return st;
      times.push_back(static_cast<double>(NowNs() - server_.spawn_ns()) / 1e9);
      if (body.find("\"status\":\"ok\"") == std::string::npos) {
        return uots::Status::Internal("probe request failed: " + body);
      }
    }
    uots::Status st = gen_.Connect(server_.port(), kConnections);
    if (!st.ok()) return st;
    return times;
  }

  /// Reads at `qps` for `seconds`, over all connections.
  std::vector<Planned> PlanPhase(double qps, double seconds) {
    return PlanReads(spec_, pool_, qps, seconds, &rng_);
  }

  /// Sends `plan`; reads with keep_every > 0 keep every Nth response.
  PhaseResult Send(const std::vector<Planned>& plan, size_t keep_every,
                   std::vector<WireRequest>* reqs_out) {
    std::vector<WireRequest>& reqs = *reqs_out;
    reqs.clear();
    reqs.reserve(plan.size());
    const int64_t base = next_id_;
    for (size_t i = 0; i < plan.size(); ++i) {
      WireRequest w;
      w.due_ns = plan[i].due_ns;
      w.conn = plan[i].conn;
      w.op = plan[i].op;
      w.keep = keep_every > 0 && i % keep_every == 0;
      w.frame = EncodeFrame(pool_, batches_, plan[i],
                            base + static_cast<int64_t>(i));
      reqs.push_back(std::move(w));
    }
    next_id_ += static_cast<int64_t>(plan.size());
    PhaseResult r = gen_.Run(reqs, base, kDrainSeconds);
    // Track acknowledged batches: the replica applies them in order.
    for (size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].op == Op::kIngest && r.results[i].outcome == Outcome::kOk) {
        applied_.push_back(plan[i].index);
      }
    }
    return r;
  }

  /// Sends the post-write gate requests: each entry twice, in two
  /// pipelined rounds, with the default cache policy.
  std::vector<Sample> GateRound(Tally* tally) {
    std::vector<uint32_t> picks;
    int nq = 0, nt = 0;
    for (uint32_t e = 0; e < pool_.entries.size(); ++e) {
      if (pool_.entries[e].op == Op::kQuery && nq < kGateQueries) {
        picks.push_back(e);
        ++nq;
      } else if (pool_.entries[e].op == Op::kTrip && nt < kGateTrips) {
        picks.push_back(e);
        ++nt;
      }
    }
    std::vector<Sample> samples;
    for (int round = 0; round < 2; ++round) {
      std::vector<Planned> plan;
      for (size_t i = 0; i < picks.size(); ++i) {
        Planned p;
        p.op = pool_.entries[picks[i]].op;
        p.index = picks[i];
        p.conn = static_cast<uint8_t>(i % kConnections);
        plan.push_back(p);
      }
      std::vector<WireRequest> reqs;
      PhaseResult r = Send(plan, 1, &reqs);
      for (size_t i = 0; i < plan.size(); ++i) {
        tally[static_cast<int>(plan[i].op)].Add(r.results[i].outcome);
        samples.push_back(
            Sample{plan[i].op, plan[i].index, std::move(r.results[i].payload)});
      }
    }
    return samples;
  }

  ServerProcess& server() { return server_; }
  size_t* next_batch() { return &next_batch_; }
  const std::vector<uint32_t>& applied() const { return applied_; }
  void CloseLoad() { gen_.Close(); }

 private:
  const Args& a_;
  const WorkloadSpec& spec_;
  const RequestPool& pool_;
  const std::vector<std::vector<uots::Trajectory>>& batches_;
  uots::Rng rng_;
  ServerProcess server_;
  LoadGen gen_;
  int64_t next_id_ = 1;
  size_t next_batch_ = 0;
  std::vector<uint32_t> applied_;  ///< batch numbers acknowledged, in order
};

/// Keeps the sampled reads of a phase for the gate, whatever their
/// outcome: the gate counts a response that is not "ok" as a mismatch.
void CollectSamples(const std::vector<WireRequest>& reqs, PhaseResult* r,
                    const std::vector<Planned>& plan,
                    std::vector<Sample>* out) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (!reqs[i].keep || reqs[i].op == Op::kIngest) continue;
    out->push_back(Sample{reqs[i].op, plan[i].index,
                          std::move(r->results[i].payload)});
  }
}

/// Host CPU ticks from /proc/stat: {steal, busy}. Steal is time the
/// hypervisor kept this machine's CPUs from running when they had work;
/// busy is all time that was not idle, steal included. It is printed with
/// each window, because it makes every timing on the box noisier.
std::pair<int64_t, int64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t v, busy = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    if (i != 3 && i != 4) busy += v;  // not idle, not iowait
    if (i == 7) steal = v;
  }
  return {steal, busy};
}

/// Runs the calling thread ahead of the server while it is in scope: the
/// load generator stands in for clients on other machines, so it should
/// not queue for a core behind the server it measures. Real-time FIFO
/// where permitted (reset in forked children, so the server runs at normal
/// priority), nice -10 otherwise. Lateness is measured either way.
class GeneratorPriority {
 public:
  GeneratorPriority() {
    sched_param sp{};
    sp.sched_priority = 10;
    realtime_ =
        sched_setscheduler(0, SCHED_FIFO | SCHED_RESET_ON_FORK, &sp) == 0;
    if (!realtime_) (void)setpriority(PRIO_PROCESS, 0, -10);
  }
  ~GeneratorPriority() { Release(); }
  /// Back to normal priority (threads started later inherit it).
  void Release() {
    const sched_param sp{};
    (void)sched_setscheduler(0, SCHED_OTHER, &sp);
    (void)setpriority(PRIO_PROCESS, 0, 0);
  }
  const char* mode() const { return realtime_ ? "fifo" : "nice"; }

 private:
  bool realtime_ = false;
};

/// Host steal between two CpuTicks() readings, percent of the CPU time
/// this machine wanted. As a share of the wanted time, not of all time, it
/// does not grow with the work a slice happens to hold, so ranking slices
/// by it does not favour light ones.
double StealPct(std::pair<int64_t, int64_t> t0, std::pair<int64_t, int64_t> t1) {
  return 100.0 * static_cast<double>(t1.first - t0.first) /
         static_cast<double>(std::max<int64_t>(1, t1.second - t0.second));
}

/// Pools the `keep` slices with the least host steal; equal steal keeps
/// the measurement order. \return the pool; `kept` gets their indices.
PhaseSummary PoolQuietest(const std::vector<PhaseSummary>& slices,
                          const std::vector<double>& steal, int keep,
                          std::vector<int>* kept) {
  std::vector<int> order(slices.size());
  for (size_t k = 0; k < slices.size(); ++k) order[k] = static_cast<int>(k);
  std::stable_sort(order.begin(), order.end(),
                   [&](int x, int y) { return steal[x] < steal[y]; });
  order.resize(std::min(order.size(), static_cast<size_t>(keep)));
  PhaseSummary pool;
  for (int k : order) pool += slices[k];
  *kept = std::move(order);
  return pool;
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  return 1;
}

int Run(const Args& a) {
  const WorkloadSpec* spec = FindWorkload(a.workload);
  if (spec == nullptr) return Fail("unknown workload " + a.workload);
  if (a.seconds <= 0.0) return Fail("--seconds must be positive");
  const bool traced = a.trace != 0;

  // Wall time per stage, printed with the result.
  std::vector<std::pair<const char*, double>> stages;
  int64_t stage_start = NowNs();
  auto stage = [&](const char* name) {
    const int64_t now = NowNs();
    stages.emplace_back(name, static_cast<double>(now - stage_start) / 1e9);
    stage_start = now;
  };

  auto db_r = uots::storage::LoadSnapshot(a.snapshot);
  if (!db_r.ok()) return Fail("snapshot: " + db_r.status().ToString());
  std::shared_ptr<uots::TrajectoryDatabase> db = std::move(*db_r);

  const size_t pool_size =
      spec->zipf ? static_cast<size_t>(kCacheEntries * kHotPoolFactor) : 4096;
  auto pool_r = BuildPool(*db, pool_size, a.seed);
  if (!pool_r.ok()) return Fail("pool: " + pool_r.status().ToString());
  const RequestPool pool = std::move(*pool_r);

  // Time budget: trace 0 spends 60% on the reporting window (its tails
  // need the samples) and 40% on the ladder; trace 1 splits it between
  // the wire window and the two replays.
  const double window_s = traced ? a.seconds / 3.0 : a.seconds * 0.6;
  const double ladder_s = traced ? 0.0 : a.seconds * 0.4;
  const size_t ladder_probes = static_cast<size_t>(
      std::ceil(std::log2(static_cast<double>(spec->ladder.size()) + 1.0)));
  const double probe_s = ladder_probes > 0 ? ladder_s / ladder_probes : 0.0;
  // The wire probe and the replays' probe (both replays send the same
  // batches; each has its own Ingestor).
  const size_t num_batches = static_cast<size_t>(
      (kIngestProbeSeconds + (traced ? kReplayIngestSeconds : 0.0)) * 1000.0 /
          kIngestCadenceMs +
      8);
  auto batches_r = BuildIngestBatches(*db, num_batches, a.seed);
  if (!batches_r.ok()) return Fail("ingest: " + batches_r.status().ToString());
  const auto batches = std::move(*batches_r);
  stage("inputs");

  MetricSet metrics;
  std::remove((a.workdir + "/server.log").c_str());
  GeneratorPriority priority;
  WireSession session(a, *spec, pool, batches);
  auto setup = session.SpawnServer(traced ? 1 : kSetupReps);
  if (!setup.ok()) return Fail("server: " + setup.status().ToString());

  stage("setup");

  // Warm-up: page in the snapshot, fill the cache, start the delta.
  {
    std::vector<WireRequest> reqs;
    session.Send(session.PlanPhase(spec->report_qps, kWarmupSeconds), 0, &reqs);
  }

  // Reporting window at the fixed rate: kWindowSlices back-to-back slices,
  // with the host's steal read around each. A slice is invalid when the
  // generator's late p99 in it exceeds kLateShareMax of its query p99 or
  // kLateMaxMs (common.h). While fewer than kKeptSlices
  // slices are valid, up to kExtraSlices more are measured. The reported
  // latencies pool up to kKeptSlices valid slices, the least host steal
  // first, so a burst of hypervisor preemption in a few slices does not
  // set them. With no valid slice the window is invalid: it then pools the
  // kKeptSlices with the least steal and is reported and flagged, as every
  // run must end with a result. Every slice counts in the failure
  // accounting and feeds the gate.
  const double slice_s = window_s / kWindowSlices;
  const size_t keep_every =
      static_cast<size_t>(spec->report_qps * window_s) / kWindowSamples + 1;
  std::vector<Planned> window_plan;  // every slice, as one schedule
  std::vector<Sample> window_samples;
  std::vector<PhaseSummary> slices;
  std::vector<double> steal;
  std::vector<bool> slice_valid;
  int num_valid = 0;
  while (static_cast<int>(slices.size()) < kWindowSlices ||
         (num_valid < kKeptSlices &&
          static_cast<int>(slices.size()) < kWindowSlices + kExtraSlices)) {
    const size_t k = slices.size();
    const auto ticks0 = CpuTicks();
    const std::vector<Planned> plan =
        session.PlanPhase(spec->report_qps, slice_s);
    std::vector<WireRequest> reqs;
    PhaseResult r = session.Send(plan, keep_every, &reqs);
    steal.push_back(StealPct(ticks0, CpuTicks()));
    slices.push_back(Summarize(reqs, r));
    const bool ok =
        slices[k].LateP99() <=
        std::min(kLateMaxMs, kLateShareMax * slices[k].P(Op::kQuery, 0.99));
    slice_valid.push_back(ok);
    num_valid += ok ? 1 : 0;
    CollectSamples(reqs, &r, plan, &window_samples);
    for (Planned p : plan) {
      p.due_ns += static_cast<int64_t>(k * slice_s * 1e9);
      window_plan.push_back(p);
    }
  }
  // Invalid slices rank behind every valid one.
  std::vector<double> rank(slices.size());
  for (size_t k = 0; k < slices.size(); ++k) {
    rank[k] = steal[k] + (slice_valid[k] ? 0.0 : 1000.0);
  }
  const bool valid = num_valid > 0;
  std::vector<int> kept;
  PhaseSummary ws = PoolQuietest(
      slices, rank, valid ? std::min(num_valid, kKeptSlices) : kKeptSlices,
      &kept);
  Tally window_tally[kNumOps];  // every slice
  for (const PhaseSummary& sl : slices) {
    for (int op = 0; op < kNumOps; ++op) window_tally[op] += sl.tally[op];
  }
  const double late_p99 = ws.LateP99();
  const double window_len_s = static_cast<double>(slices.size()) * slice_s;
  std::printf("window: host steal per slice %%:");
  for (size_t k = 0; k < slices.size(); ++k) {
    std::printf(" %.2f%s", steal[k], slice_valid[k] ? "" : "*");
  }
  std::printf(" (* invalid); kept:");
  for (int k : kept) std::printf(" %d", k);
  std::printf("\n  query p99 %.3f ms, trip p99 %.3f ms, generator late "
              "p99 %.3f ms; %d of %zu slices valid -> %s\n",
              ws.P(Op::kQuery, 0.99), ws.P(Op::kTrip, 0.99), late_p99,
              num_valid, slices.size(),
              valid ? "valid" : "INVALID (the generator ran late)");

  stage("window");

  // Capacity: binary search over the ladder. Rung `lo` is the highest
  // known to pass (-1: none yet), `hi` the lowest known to fail.
  // capacity_qps is the read goodput measured on the highest passing rung.
  int lo = -1, hi = static_cast<int>(spec->ladder.size());
  double goodput = spec->ladder[0] / 2.0;  // below the ladder
  Tally ladder_tally;
  bool retried = false;
  while (!traced && hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const auto ticks0 = CpuTicks();
    std::vector<WireRequest> reqs;
    PhaseResult r = session.Send(
        session.PlanPhase(spec->ladder[mid], probe_s), 0, &reqs);
    const double steal = StealPct(ticks0, CpuTicks());
    PhaseSummary s = Summarize(reqs, r);
    ladder_tally += s.Total();
    const double qp99 = s.P(Op::kQuery, 0.99);
    const double tp99 = s.P(Op::kTrip, 0.99);
    // Falling behind shows in the median lateness; a host stall only
    // shows in the tail, which the latency limits already judge.
    const double late = Quantile(&s.late_ms, 0.5);
    const bool pass = qp99 < kQueryP99LimitMs && tp99 < kTripP99LimitMs &&
                      late <= kKeepUpMs;
    if (pass) {
      // Answered reads over the time from the probe's start to its last
      // answer.
      int64_t end_ns = 1;
      for (size_t i = 0; i < reqs.size(); ++i) {
        if (r.results[i].outcome == Outcome::kOk) {
          end_ns = std::max(end_ns, reqs[i].due_ns + r.results[i].latency_ns);
        }
      }
      goodput = static_cast<double>(s.tally[0].ok + s.tally[1].ok) /
                (static_cast<double>(end_ns) / 1e9);
    }
    const bool retry = !pass && !retried && steal > kLadderRetryStealPct;
    std::printf("ladder %7.0f/s: query p99 %8.2f ms, trip p99 %8.2f ms, "
                "late p50 %.3f ms, host steal %.2f%% -> %s\n",
                spec->ladder[mid], qp99, tp99, late, steal,
                pass ? "pass" : retry ? "fail, probed again" : "fail");
    if (retry) {
      retried = true;
      continue;
    }
    (pass ? lo : hi) = mid;
  }

  stage("ladder");

  // Ingest probe: batches on an otherwise idle server. The delta's
  // sawtooth repeats every compaction interval, so each slice of one
  // interval holds the same mix of delta sizes, and keeping the quietest
  // slices does not favour small deltas. The first interval grows the
  // delta from empty, so it is sent and counted but not measured.
  PhaseSummary ps;  // the kept slices, pooled
  Tally ingest_tally;
  {
    std::vector<PhaseSummary> slices;
    std::vector<double> steal;
    for (int k = 0; k <= kIngestSlices; ++k) {
      const auto ticks0 = CpuTicks();
      std::vector<WireRequest> reqs;
      PhaseResult r = session.Send(PlanIngest(kCompactIntervalMs / 1000.0,
                                              session.next_batch(),
                                              batches.size()),
                                   0, &reqs);
      const double st = StealPct(ticks0, CpuTicks());
      PhaseSummary sl = Summarize(reqs, r);
      ingest_tally += sl.tally[static_cast<int>(Op::kIngest)];
      if (k == 0) continue;
      steal.push_back(st);
      slices.push_back(std::move(sl));
    }
    std::vector<int> kept;
    ps = PoolQuietest(slices, steal, kKeptIngestSlices, &kept);
    std::printf("ingest probe: host steal per slice %%:");
    for (double st : steal) std::printf(" %.2f", st);
    std::printf("; kept:");
    for (int k : kept) std::printf(" %d", k);
    std::printf("\n");
  }

  // Post-write gate requests, then the server goes down.
  Tally gate_tally[kNumOps];
  std::vector<Sample> gate_samples = session.GateRound(gate_tally);
  const double peak_rss = session.server().PeakRssMb();
  session.CloseLoad();
  session.server().Stop();
  priority.Release();
  std::remove(session.CompactPath().c_str());

  stage("probe+gate");

  // Correctness: window samples against the snapshot as loaded (reads
  // before any write), post-write samples against the replica.
  GateResult g1 = CheckSamples(*db, pool, window_samples);
  auto replica = BuildReplica(a.snapshot, batches, session.applied());
  if (!replica.ok()) return Fail("replica: " + replica.status().ToString());
  GateResult g2 = CheckSamples(**replica, pool, gate_samples);

  stage("reference");

  // Accounting. Ladder rungs above capacity fail by design and are
  // reported separately; everything else must succeed.
  Tally op_tally[kNumOps];
  for (int op = 0; op < kNumOps; ++op) {
    op_tally[op] += gate_tally[op];
    op_tally[op] += op == static_cast<int>(Op::kIngest) ? ingest_tally
                                                       : window_tally[op];
  }
  Tally total;
  for (const Tally& t : op_tally) total += t;
  std::printf("workload %s seed %" PRIu64 " trace %d: server threads=%d "
              "cache_entries=%d compact_interval_ms=%.0f connections=%d "
              "generator=%s\n",
              spec->name, a.seed, a.trace, kServerThreads, kCacheEntries,
              kCompactIntervalMs, kConnections, priority.mode());
  for (int op = 0; op < kNumOps; ++op) {
    std::printf("  %-7s %s\n", OpName(static_cast<Op>(op)),
                op_tally[op].ToString().c_str());
  }
  if (!traced) std::printf("  ladder  %s\n", ladder_tally.ToString().c_str());
  std::printf("gate: window %d/%d, post-write %d/%d identical%s%s\n",
              g1.checked - g1.mismatches, g1.checked,
              g2.checked - g2.mismatches, g2.checked,
              g1.mismatches + g2.mismatches ? " -- FIRST MISMATCH: " : "",
              g1.mismatches ? g1.first_mismatch.c_str()
                            : g2.first_mismatch.c_str());
  const bool correct = g1.mismatches == 0 && g2.mismatches == 0 &&
                       g1.checked > 0 && g2.checked > 0 && op_tally[0].transport == 0 &&
                       op_tally[1].transport == 0 &&
                       op_tally[2].transport == 0;

  if (!traced) {
    std::vector<double> setup_s = *setup;
    metrics.Add("setup_s", Quantile(&setup_s, 0.5), "s");
    metrics.Add("peak_rss_mb", peak_rss, "MiB");
    metrics.Add("query_p50_ms", ws.P(Op::kQuery, 0.5), "ms");
    metrics.Add("trip_p50_ms", ws.P(Op::kTrip, 0.5), "ms");
    metrics.Add("capacity_qps", goodput, "1/s");
    std::printf("samples: query %zu, trip %zu in the window, ingest %zu\n",
                ws.latency_ms[0].size(), ws.latency_ms[1].size(),
                ps.latency_ms[2].size());
  } else {
    // Per-layer run: replay the window's schedule in process, untraced
    // then traced, and close the books against the wire.
    // The window's reads, then an ingest probe of fresh batches.
    ReplayInput in;
    in.snapshot_path = a.snapshot;
    in.pool = &pool;
    in.batches = &batches;
    in.schedule = window_plan;
    for (Planned p :
         PlanIngest(kReplayIngestSeconds, session.next_batch(), batches.size())) {
      p.due_ns += static_cast<int64_t>(window_len_s * 1e9);
      in.schedule.push_back(p);
    }
    in.compact_path =
        a.workdir + "/replay-" + std::to_string(getpid()) + ".snap";
    in.traced = false;
    ReplayOutput plain = Replay(in);
    if (!plain.status.ok()) return Fail("replay: " + plain.status.ToString());
    in.traced = true;
    in.trace_out = a.workdir + "/trace-" + spec->name + ".json";
    ReplayOutput tr = Replay(in);
    if (!tr.status.ok()) return Fail("replay: " + tr.status.ToString());
    std::remove(in.compact_path.c_str());

    metrics.Append(tr.metrics);
    const double wire_p50 = ws.P(Op::kQuery, 0.5);
    const double sum_p50 = Quantile(&tr.query_layer_sum_ms, 0.5);
    metrics.Add("server.wire_residual_ms", wire_p50 - sum_p50, "ms");
    metrics.Add("loadgen.late_p99_ms", late_p99, "ms");
    // Wire latencies whose ten-seed spread on a shared host exceeded the
    // largest bound an end-to-end metric may have: reported here, without
    // one. The trip p95, not a p99: too few trips for ten beyond a p99.
    metrics.Add("wire.query_p99_ms", ws.P(Op::kQuery, 0.99), "ms");
    metrics.Add("wire.trip_p95_ms", ws.P(Op::kTrip, 0.95), "ms");
    metrics.Add("wire.ingest_p50_ms", ps.P(Op::kIngest, 0.5), "ms");
    metrics.Add("wire.ingest_p95_ms", ps.P(Op::kIngest, 0.95), "ms");
    // Both replays ran the same reads in the same order: pair them.
    std::vector<double> diff;
    for (size_t i = 0; i < tr.query_e2e_ms.size() &&
                       i < plain.query_e2e_ms.size(); ++i) {
      diff.push_back(tr.query_e2e_ms[i] - plain.query_e2e_ms[i]);
    }
    std::vector<double> plain_e2e = plain.query_e2e_ms;
    const double plain_p50 = Quantile(&plain_e2e, 0.5);
    metrics.Add("trace.overhead_pct",
                plain_p50 > 0 ? Quantile(&diff, 0.5) / plain_p50 * 100.0 : 0.0,
                "%");
    Tally wt;
    for (const Tally& t : window_tally) wt += t;
    metrics.Add("failed_ratio",
                wt.sent ? static_cast<double>(wt.failed()) /
                              static_cast<double>(wt.sent)
                        : 0.0,
                "ratio");
    std::printf("closure: wire query p50 %.4f ms = layer sum p50 %.4f ms + "
                "residual %.4f ms (%lld spans recorded)\n",
                wire_p50, sum_p50, wire_p50 - sum_p50,
                static_cast<long long>(tr.spans));
  }

  if (traced) stage("replay");
  std::printf("stages:");
  for (const auto& [name, secs] : stages) std::printf(" %s %.2fs", name, secs);
  std::printf("\n");
  metrics.Print();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(total.sent),
              static_cast<long long>(total.failed()), metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::ParseArgs(argc, argv, &a) ||
      (a.cmd != "prepare" && a.cmd != "run") || a.snapshot.empty() ||
      (a.cmd == "run" && (a.server.empty() || a.workdir.empty()))) {
    std::fprintf(stderr,
                 "usage: uots_perfbench prepare --snapshot=PATH\n"
                 "       uots_perfbench run --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "                          --server=PATH --snapshot=PATH "
                 "--workdir=DIR\n");
    return 2;
  }
  return a.cmd == "prepare" ? perfbench::Prepare(a) : perfbench::Run(a);
}
