#include "replay.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "ingest/ingestor.h"
#include "oracle/querier.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/service.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace perfbench {
namespace {

/// One recorded span. Spans of one request share `req`.
struct Span {
  int64_t req;
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

class Recorder {
 public:
  explicit Recorder(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  /// Records [start, end) under `name` and returns its duration, ns.
  int64_t Add(int64_t req, const char* name, int64_t start, int64_t end) {
    if (on_) spans_.push_back(Span{req, name, start, end});
    return end - start;
  }
  const std::vector<Span>& spans() const { return spans_; }

  void WriteChromeTrace(const std::string& path, int64_t origin) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fputs("{\"traceEvents\": [\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f}",
                   i ? ",\n" : "", s.name, static_cast<long long>(s.req),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
    std::fputs("\n]}\n", f);
    std::fclose(f);
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Per-request ledger, filled as the request moves through the layers.
struct Ledger {
  Op op = Op::kQuery;
  int64_t due_ns = 0;
  int64_t decode_ns = 0, parse_ns = 0, probe_ns = 0, encode_ns = 0,
          hop_ns = 0;
  double queue_wait_ms = 0.0, execute_ms = 0.0;
  bool probed = false, hit = false, executed = false;
  int64_t done_ns = 0;
  size_t response_bytes = 0;
};

/// A worker completion or a finished compaction, handed to the replay
/// thread (which plays the reactor).
struct Event {
  size_t idx = 0;
  bool trip = false;
  bool compaction = false;
  int64_t posted_ns = 0;
  uots::ExecutionResult query;
  uots::TripExecutionResult trip_result;
  // Compaction outcome.
  uots::Status status;
  std::shared_ptr<const uots::TrajectoryDatabase> db;
  size_t sealed = 0;
  int64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;  ///< merge, write, load, done
  int64_t bytes = 0;
};

class EventQueue {
 public:
  void Push(Event e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      q_.push_back(std::move(e));
    }
    cv_.notify_one();
  }
  /// Waits until an event arrives or `deadline_ns` (<0: forever) passes.
  std::deque<Event> Wait(int64_t deadline_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    if (q_.empty()) {
      if (deadline_ns < 0) {
        cv_.wait(lock, [this] { return !q_.empty(); });
      } else {
        const auto tp = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(deadline_ns));
        cv_.wait_until(lock, tp, [this] { return !q_.empty(); });
      }
    }
    std::deque<Event> out;
    out.swap(q_);
    return out;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Event> q_;
};

/// Rebuilds `base` with `trips` appended, the way the server's compaction
/// folds its delta (every index rebuilt, the base oracle carried). The
/// result shares `base`'s oracle, whose storage `base` owns.
uots::Result<std::unique_ptr<uots::TrajectoryDatabase>> Fold(
    const uots::TrajectoryDatabase& base,
    const std::vector<uots::Trajectory>& trips) {
  uots::TrajectoryStore merged;
  for (size_t id = 0; id < base.store().size(); ++id) {
    auto added =
        merged.Add(base.store().Materialize(static_cast<uots::TrajId>(id)));
    if (!added.ok()) return added.status();
  }
  for (const uots::Trajectory& t : trips) {
    auto added = merged.Add(t);
    if (!added.ok()) return added.status();
  }
  uots::SimilarityOptions sim;
  sim.sigma_m = base.model().sigma_m();
  sim.sigma_s = base.model().sigma_s();
  sim.measure = base.model().textual().measure();
  auto db = std::make_unique<uots::TrajectoryDatabase>(
      base.network(), std::move(merged), base.vocabulary(), sim);
  db->AttachOracle(base.oracle_ptr());
  return db;
}

/// Background compaction, the way the server folds its delta: merge base
/// rows and the sealed trips, rebuild, write a snapshot, validate it by
/// loading it back.
Event Compact(std::shared_ptr<const uots::TrajectoryDatabase> base,
              std::vector<uots::Trajectory> sealed, const std::string& path) {
  Event ev;
  ev.compaction = true;
  ev.sealed = sealed.size();
  ev.t0 = NowNs();
  auto merged = Fold(*base, sealed);
  if (!merged.ok()) {
    ev.status = merged.status();
    return ev;
  }
  ev.t1 = NowNs();
  ev.status = uots::storage::WriteSnapshot(**merged, path);
  ev.t2 = NowNs();
  if (!ev.status.ok()) return ev;
  uots::storage::LoadOptions lopts;
  lopts.similarity.sigma_m = base->model().sigma_m();
  lopts.similarity.sigma_s = base->model().sigma_s();
  lopts.similarity.measure = base->model().textual().measure();
  auto loaded = uots::storage::LoadSnapshot(path, lopts);
  ev.t3 = NowNs();
  if (!loaded.ok()) {
    ev.status = loaded.status();
    return ev;
  }
  ev.db = std::shared_ptr<const uots::TrajectoryDatabase>(std::move(*loaded));
  auto info = uots::storage::InspectSnapshot(path);
  ev.bytes = info.ok() ? static_cast<int64_t>(info->file_size) : 0;
  return ev;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }
double Div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace

ReplayOutput Replay(const ReplayInput& in) {
  ReplayOutput out;
  const RequestPool& pool = *in.pool;
  Recorder rec(in.traced);
  const int64_t origin = NowNs();

  // storage: the initial load.
  const int64_t l0 = NowNs();
  auto loaded = uots::storage::LoadSnapshot(in.snapshot_path);
  const int64_t l1 = NowNs();
  if (!loaded.ok()) {
    out.status = loaded.status();
    return out;
  }
  rec.Add(-1, "storage.load_snapshot", l0, l1);
  std::shared_ptr<const uots::TrajectoryDatabase> db(std::move(*loaded));

  uots::ServiceOptions sopts;
  sopts.threads = kServerThreads;
  sopts.max_inflight = kMaxInflight;
  sopts.cache_max_entries = kCacheEntries;
  sopts.cache_shards = kCacheShards;
  uots::UotsService service(db, sopts);
  uots::Ingestor ingestor(db.get());
  uots::FrameDecoder decoder;
  EventQueue events;

  const size_t n = in.schedule.size();
  std::vector<std::string> frames(n);
  for (size_t i = 0; i < n; ++i) {
    frames[i] = EncodeFrame(pool, *in.batches, in.schedule[i],
                            static_cast<int64_t>(i) + 1);
  }
  std::vector<Ledger> ledger(n);

  // Aggregates over executed requests.
  uots::QueryStats qstats;  // retrieval, summed
  int64_t executed_queries = 0;
  uots::QueryStats tstats;  // trips, summed
  int64_t executed_trips = 0, trips_returned = 0, segments = 0;
  std::vector<double> apply_ms, delta_at_apply;
  int64_t rejected_batches = 0, overloaded = 0;
  int compactions = 0;
  double compaction_s = 0.0;
  int64_t compaction_bytes = 0;
  bool compacting = false;
  std::thread compact_thread;
  const int64_t interval_ns = static_cast<int64_t>(kCompactIntervalMs * 1e6);

  const int64_t start = NowNs() + 2'000'000;
  int64_t next_compact = start + interval_ns;
  size_t next = 0, outstanding = 0;

  auto finish = [&](size_t idx, const std::string& body, int64_t enc0) {
    const std::string frame = uots::EncodeFrame(body);
    const int64_t enc1 = NowNs();
    Ledger& l = ledger[idx];
    l.encode_ns = rec.Add(static_cast<int64_t>(idx), "server.encode", enc0, enc1);
    l.response_bytes = frame.size();
    l.done_ns = enc1;
    rec.Add(static_cast<int64_t>(idx), "request", start + l.due_ns, enc1);
  };

  auto handle_event = [&](Event& ev) {
    if (ev.compaction) {
      compact_thread.join();
      compacting = false;
      if (!ev.status.ok()) {
        out.status = ev.status;
        return;
      }
      db = ev.db;
      service.SwapDatabase(db);
      ingestor.Rebase(db.get(), ev.sealed);
      if (service.result_cache() != nullptr) {
        service.result_cache()->InvalidateGeneration();
      }
      // Compaction spans use negative ids: they belong to no request.
      const int64_t span_id = -2 - compactions;
      rec.Add(span_id, "storage.compaction", ev.t0, ev.t3);
      rec.Add(span_id, "storage.write_snapshot", ev.t1, ev.t2);
      rec.Add(span_id, "storage.load_snapshot", ev.t2, ev.t3);
      ++compactions;
      compaction_s += static_cast<double>(ev.t3 - ev.t0) / 1e9;
      compaction_bytes += ev.bytes;
      return;
    }
    const int64_t enc0 = NowNs();
    Ledger& l = ledger[ev.idx];
    l.hop_ns = rec.Add(static_cast<int64_t>(ev.idx), "server.completion_hop",
                       ev.posted_ns, enc0);
    --outstanding;
    if (!ev.trip) {
      uots::ExecutionResult& r = ev.query;
      l.queue_wait_ms = r.queue_wait_ms;
      l.execute_ms = r.execute_ms;
      uots::QueryResponse resp;
      resp.id = static_cast<int64_t>(ev.idx) + 1;
      resp.status = uots::FromStatus(r.status);
      if (r.status.ok()) {
        qstats += r.result.stats;
        ++executed_queries;
        resp.results = std::move(r.result.items);
        resp.has_stats = true;
        resp.stats = r.result.stats;
        resp.queue_wait_ms = r.queue_wait_ms;
        resp.execute_ms = r.execute_ms;
      } else {
        resp.error = r.status.message();
      }
      finish(ev.idx, uots::EncodeQueryResponse(resp), enc0);
    } else {
      uots::TripExecutionResult& r = ev.trip_result;
      l.queue_wait_ms = r.queue_wait_ms;
      l.execute_ms = r.execute_ms;
      uots::TripResponse resp;
      resp.id = static_cast<int64_t>(ev.idx) + 1;
      resp.status = uots::FromStatus(r.status);
      if (r.status.ok()) {
        tstats += r.result.stats;
        ++executed_trips;
        for (const uots::AssembledTrip& t : r.result.trips) {
          ++trips_returned;
          segments += static_cast<int64_t>(t.segments.size());
        }
        resp.trips = std::move(r.result.trips);
        resp.has_stats = true;
        resp.stats = r.result.stats;
        resp.queue_wait_ms = r.queue_wait_ms;
        resp.execute_ms = r.execute_ms;
      } else {
        resp.error = r.status.message();
      }
      finish(ev.idx, uots::EncodeTripResponse(resp), enc0);
    }
  };

  auto handle_request = [&](size_t idx) {
    Ledger& l = ledger[idx];
    l.op = in.schedule[idx].op;
    l.due_ns = in.schedule[idx].due_ns;
    const int64_t id = static_cast<int64_t>(idx);
    const std::string& frame = frames[idx];
    // server: frame decode.
    const int64_t t0 = NowNs();
    decoder.Append(frame.data(), frame.size());
    std::string payload;
    decoder.Poll(&payload);
    const int64_t t1 = NowNs();
    l.decode_ns = rec.Add(id, "server.decode", t0, t1);
    // server: JSON parse and request decode.
    auto doc = uots::ParseJson(payload);
    const uots::RequestType type = uots::RequestTypeOf(*doc);
    if (type == uots::RequestType::kIngest) {
      auto req = uots::ParseIngestRequest(*doc);
      const int64_t t2 = NowNs();
      l.parse_ns = rec.Add(id, "server.parse", t1, t2);
      delta_at_apply.push_back(static_cast<double>(ingestor.delta_trajectories()));
      auto applied = ingestor.Apply(std::move(req->trajectories));
      const int64_t t3 = NowNs();
      apply_ms.push_back(Ms(rec.Add(id, "ingest.apply", t2, t3)));
      uots::IngestResponse resp;
      resp.id = id + 1;
      if (applied.ok()) {
        if (service.result_cache() != nullptr) {
          service.result_cache()->InvalidateGeneration();
        }
        resp.accepted = static_cast<int64_t>(applied->accepted);
        resp.first_traj = static_cast<int64_t>(applied->first_id);
        resp.generation = static_cast<int64_t>(applied->generation);
        resp.delta_trajectories =
            static_cast<int64_t>(ingestor.delta_trajectories());
      } else {
        ++rejected_batches;
        resp.status = uots::FromStatus(applied.status());
        resp.error = applied.status().message();
      }
      finish(idx, uots::EncodeIngestResponse(resp), NowNs());
      return;
    }
    const bool trip = type == uots::RequestType::kTrip;
    uots::QueryRequest qreq;
    uots::TripRequest treq;
    if (trip) {
      treq = std::move(*uots::ParseTripRequest(*doc));
    } else {
      qreq = std::move(*uots::ParseQueryRequest(*doc));
    }
    const int64_t t2 = NowNs();
    l.parse_ns = rec.Add(id, "server.parse", t1, t2);
    // cache: the result-cache probe.
    const bool bypass = (trip ? treq.cache : qreq.cache) == uots::CacheMode::kBypass;
    std::string key;
    std::shared_ptr<const uots::CachedResult> hit;
    if (!bypass) {
      hit = trip ? service.TripCacheLookup(treq.query, &key)
                 : service.CacheLookup(qreq.query, uots::AlgorithmKind::kUots,
                                       &key);
      l.probed = true;
      l.hit = hit != nullptr;
      l.probe_ns = rec.Add(id, "cache.probe", t2, NowNs());
    }
    if (hit != nullptr) {
      const int64_t enc0 = NowNs();
      if (trip) {
        uots::TripResponse resp;
        resp.id = id + 1;
        resp.trips = hit->trips;
        resp.has_stats = true;
        resp.stats = hit->stats;
        resp.cached = true;
        finish(idx, uots::EncodeTripResponse(resp), enc0);
      } else {
        uots::QueryResponse resp;
        resp.id = id + 1;
        resp.results = hit->items;
        resp.has_stats = true;
        resp.stats = hit->stats;
        resp.cached = true;
        finish(idx, uots::EncodeQueryResponse(resp), enc0);
      }
      return;
    }
    // service: admission and execution on the worker pool.
    l.executed = true;
    bool admitted;
    if (trip) {
      admitted = service.TryExecuteTrip(
          treq.query, nullptr,
          [&events, idx](uots::TripExecutionResult r) {
            Event ev;
            ev.idx = idx;
            ev.trip = true;
            ev.trip_result = std::move(r);
            ev.posted_ns = NowNs();
            events.Push(std::move(ev));
          },
          std::move(key));
    } else {
      admitted = service.TryExecute(
          qreq.query, uots::AlgorithmKind::kUots, nullptr,
          [&events, idx](uots::ExecutionResult r) {
            Event ev;
            ev.idx = idx;
            ev.query = std::move(r);
            ev.posted_ns = NowNs();
            events.Push(std::move(ev));
          },
          std::move(key));
    }
    if (admitted) {
      ++outstanding;
    } else {
      ++overloaded;
      l.executed = false;
      finish(idx, "{\"status\":\"overloaded\"}", NowNs());
    }
  };

  while (next < n || outstanding > 0 || compacting) {
    // Wake for the next due request or compaction tick; once everything
    // is sent, only completions remain to wait for.
    const int64_t deadline =
        next < n ? std::min(start + in.schedule[next].due_ns, next_compact)
                 : -1;
    std::deque<Event> evs = events.Wait(deadline);
    for (Event& ev : evs) handle_event(ev);
    if (!out.status.ok()) break;
    const int64_t now = NowNs();
    if (now >= next_compact) {
      next_compact = now + interval_ns;
      if (!compacting && ingestor.delta_trajectories() > 0 && next < n) {
        compacting = true;
        compact_thread = std::thread(
            [&events, base = db, sealed = ingestor.pending(),
             path = in.compact_path]() mutable {
              events.Push(Compact(std::move(base), std::move(sealed), path));
            });
      }
    }
    while (next < n && start + in.schedule[next].due_ns <= NowNs()) {
      handle_request(next++);
    }
  }
  if (compact_thread.joinable()) compact_thread.join();
  service.Drain();
  if (!out.status.ok()) return out;

  // oracle: probe the pairwise kernel on consecutive query locations.
  std::vector<double> distance_us;
  if (db->oracle() != nullptr) {
    uots::OracleQuerier querier(*db->oracle());
    for (size_t i = 0; i < n && distance_us.size() < 2000; ++i) {
      const Planned& p = in.schedule[i];
      if (p.op != Op::kQuery) continue;
      const auto& locs = pool.queries[pool.entries[p.index].index].locations;
      for (size_t j = 1; j < locs.size(); ++j) {
        const int64_t a = NowNs();
        (void)querier.Distance(locs[j - 1], locs[j]);
        distance_us.push_back(
            Us(rec.Add(static_cast<int64_t>(i), "oracle.distance", a, NowNs())));
      }
    }
  }

  // Fold the ledgers.
  std::vector<double> decode_us, parse_us, encode_us, hop_us, bytes, probe_us,
      queue_ms, exec_ms;
  int64_t probes = 0, hits = 0;
  for (size_t i = 0; i < n; ++i) {
    const Ledger& l = ledger[i];
    if (l.op == Op::kIngest) continue;
    decode_us.push_back(Us(l.decode_ns));
    parse_us.push_back(Us(l.parse_ns));
    encode_us.push_back(Us(l.encode_ns));
    bytes.push_back(static_cast<double>(l.response_bytes));
    if (l.probed) {
      ++probes;
      hits += l.hit;
      probe_us.push_back(Us(l.probe_ns));
    }
    if (l.executed) {
      queue_ms.push_back(l.queue_wait_ms);
      exec_ms.push_back(l.execute_ms);
      hop_us.push_back(Us(l.hop_ns));
    }
    if (l.op == Op::kQuery) {
      out.query_e2e_ms.push_back(Ms(l.done_ns - (start + l.due_ns)));
      out.query_layer_sum_ms.push_back(
          Ms(l.decode_ns + l.parse_ns + l.probe_ns + l.encode_ns + l.hop_ns) +
          l.queue_wait_ms + l.execute_ms);
    }
  }
  const uots::ResultCache::Stats cs = service.result_cache()->stats();
  const double q = static_cast<double>(executed_queries);
  const double all_exec = static_cast<double>(executed_queries + executed_trips);
  auto phase = [&](uots::QueryPhase p) { return Div(qstats.PhaseMillis(p), q); };
  std::vector<Metric>& m = out.metrics;
  m.push_back({"server.decode_us", Mean(decode_us), "us"});
  m.push_back({"server.parse_us", Mean(parse_us), "us"});
  m.push_back({"server.encode_us", Mean(encode_us), "us"});
  m.push_back({"server.response_bytes", Mean(bytes), "bytes"});
  m.push_back({"server.completion_hop_us", Mean(hop_us), "us"});
  m.push_back({"server.queue_wait_ms", Mean(queue_ms), "ms"});
  m.push_back({"server.execute_ms", Mean(exec_ms), "ms"});
  m.push_back({"server.overloaded", static_cast<double>(overloaded), "count"});
  m.push_back({"cache.hit_ratio", Div(static_cast<double>(hits),
                                      static_cast<double>(probes)), "ratio"});
  m.push_back({"cache.probe_us", Mean(probe_us), "us"});
  m.push_back({"cache.evictions_per_1k",
               Div(static_cast<double>(cs.evictions) * 1000.0,
                   static_cast<double>(probes)), "count"});
  m.push_back({"cache.invalidated_entries",
               static_cast<double>(cs.invalidated_entries), "count"});
  m.push_back({"core.search_ms", Div(qstats.elapsed_ms, q), "ms"});
  m.push_back({"core.textual_filter_ms",
               phase(uots::QueryPhase::kTextualFilter), "ms"});
  m.push_back({"core.spatial_expansion_ms",
               phase(uots::QueryPhase::kSpatialExpansion), "ms"});
  m.push_back({"core.bound_maintenance_ms",
               phase(uots::QueryPhase::kBoundMaintenance), "ms"});
  m.push_back({"core.scheduling_ms", phase(uots::QueryPhase::kScheduling), "ms"});
  m.push_back({"core.refinement_ms", phase(uots::QueryPhase::kRefinement), "ms"});
  m.push_back({"core.candidates_per_query",
               Div(static_cast<double>(qstats.candidates), q), "count"});
  m.push_back({"core.visited_per_query",
               Div(static_cast<double>(qstats.visited_trajectories), q), "count"});
  m.push_back({"core.candidate_ratio",
               Div(static_cast<double>(qstats.candidates),
                   static_cast<double>(qstats.visited_trajectories)), "ratio"});
  m.push_back({"net.settled_per_query",
               Div(static_cast<double>(qstats.settled_vertices), q), "count"});
  m.push_back({"net.heap_pushes_per_query",
               Div(static_cast<double>(qstats.heap_pushes), q), "count"});
  m.push_back({"text.postings_per_query",
               Div(static_cast<double>(qstats.posting_entries), q), "count"});
  const double lookups =
      static_cast<double>(qstats.oracle_lookups + tstats.oracle_lookups);
  m.push_back({"oracle.lookups_per_query", Div(lookups, all_exec), "count"});
  m.push_back({"oracle.pruned_per_lookup",
               Div(static_cast<double>(qstats.oracle_pruned_candidates +
                                       tstats.oracle_pruned_candidates),
                   lookups), "ratio"});
  m.push_back({"oracle.distance_us", Mean(distance_us), "us"});
  const double t = static_cast<double>(executed_trips);
  m.push_back({"trip.harvest_ms",
               Div(tstats.PhaseMillis(uots::QueryPhase::kTripHarvest), t), "ms"});
  m.push_back({"trip.assemble_ms",
               Div(tstats.PhaseMillis(uots::QueryPhase::kTripAssemble), t), "ms"});
  m.push_back({"trip.segments_per_trip",
               Div(static_cast<double>(segments),
                   static_cast<double>(trips_returned)), "count"});
  m.push_back({"ingest.apply_ms", Mean(apply_ms), "ms"});
  m.push_back({"ingest.delta_trips_mean", Mean(delta_at_apply), "count"});
  double delta_max = 0.0;
  for (double d : delta_at_apply) delta_max = std::max(delta_max, d);
  m.push_back({"ingest.delta_trips_max", delta_max, "count"});
  m.push_back({"ingest.rejected_batches", static_cast<double>(rejected_batches),
               "count"});
  m.push_back({"storage.load_s", static_cast<double>(l1 - l0) / 1e9, "s"});
  m.push_back({"storage.compaction_s", Div(compaction_s, compactions), "s"});
  m.push_back({"storage.compaction_bytes",
               Div(static_cast<double>(compaction_bytes), compactions), "bytes"});
  m.push_back({"storage.compactions", static_cast<double>(compactions), "count"});
  std::vector<double> sums = out.query_layer_sum_ms;
  m.push_back({"server.layer_sum_ms", Quantile(&sums, 0.5), "ms"});

  out.spans = static_cast<int64_t>(rec.spans().size());
  if (in.traced && !in.trace_out.empty()) {
    rec.WriteChromeTrace(in.trace_out, origin);
  }
  return out;
}

}  // namespace perfbench
