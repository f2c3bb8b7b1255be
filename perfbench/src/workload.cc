#include "workload.h"

#include <cmath>

#include "core/workload.h"
#include "server/protocol.h"
#include "text/zipf.h"
#include "traj/generator.h"
#include "trip/workload.h"

namespace perfbench {
namespace {

/// Geometric ladder lo, lo*step, ... (rounded to whole requests/s).
std::vector<double> Ladder(double lo, double step, int rungs) {
  std::vector<double> out;
  double r = lo;
  for (int i = 0; i < rungs; ++i) {
    out.push_back(std::round(r));
    r *= step;
  }
  return out;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"search_mix", /*bypass=*/true, /*zipf=*/false, /*report_qps=*/200.0,
       Ladder(500.0, 1.06, 15)},
      {"hot_cache", false, true, 800.0, Ladder(1400.0, 1.06, 15)},
  };
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& s : Specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

uots::Result<RequestPool> BuildPool(const uots::TrajectoryDatabase& db,
                                    size_t size, uint64_t seed) {
  // Every entry belongs to a cell: a retrieval (m, decoupled) pair or a
  // trip m. Cells follow a fixed 15-slot cycle — every fifth slot a trip,
  // the rest rotating through the retrieval cells — so any prefix of the
  // pool has the request mix. Zipf draws concentrate on the first ranks;
  // with the cells fixed, only the queries inside them depend on the seed.
  constexpr int kQueryCells = 2 * std::size(kQueryLocations);
  constexpr int kTripCells = std::size(kTripLocations);
  static_assert(kTripCells * 4 == 2 * kQueryCells, "15-slot cycle: 12 + 3");
  std::vector<int> cell_of(size);
  std::vector<int> per_cell(kQueryCells + kTripCells, 0);
  for (size_t i = 0; i < size; ++i) {
    const size_t slot = i % 15;
    // Retrieval cells c = 2 * m_index + decoupled, visited so that
    // neighbouring slots differ in both m and decoupling.
    static constexpr int kQueryOrder[] = {0, 3, 4, 1, 2, 5};
    const int c = slot % 5 == 4
                      ? kQueryCells + static_cast<int>(slot / 5)
                      : kQueryOrder[(slot - slot / 5) % kQueryCells];
    cell_of[i] = c;
    ++per_cell[c];
  }

  RequestPool pool;
  std::vector<uint32_t> cell_base(per_cell.size(), 0);
  for (int c = 0; c < kQueryCells + kTripCells; ++c) {
    if (per_cell[c] == 0) continue;
    if (c < kQueryCells) {
      uots::WorkloadOptions w;
      w.num_queries = per_cell[c];
      w.num_locations = kQueryLocations[c / 2];
      w.decouple_keywords = (c % 2) == 1;
      w.k = kQueryK;
      w.seed = seed * 131 + static_cast<uint64_t>(c);
      auto qs = uots::MakeWorkload(db, w);
      if (!qs.ok()) return qs.status();
      cell_base[c] = static_cast<uint32_t>(pool.queries.size());
      pool.queries.insert(pool.queries.end(), qs->begin(), qs->end());
    } else {
      uots::TripWorkloadOptions w;
      w.num_queries = per_cell[c];
      w.num_locations = kTripLocations[c - kQueryCells];
      w.seed = seed * 137 + static_cast<uint64_t>(c);
      auto ts = uots::MakeTripWorkload(db, w);
      if (!ts.ok()) return ts.status();
      cell_base[c] = static_cast<uint32_t>(pool.trips.size());
      pool.trips.insert(pool.trips.end(), ts->begin(), ts->end());
    }
  }
  std::vector<uint32_t> used(per_cell.size(), 0);
  pool.entries.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    const int c = cell_of[i];
    pool.entries.push_back(PoolEntry{c < kQueryCells ? Op::kQuery : Op::kTrip,
                                     cell_base[c] + used[c]++});
  }
  return pool;
}

uots::Result<std::vector<std::vector<uots::Trajectory>>> BuildIngestBatches(
    const uots::TrajectoryDatabase& db, size_t num_batches, uint64_t seed) {
  uots::TripGeneratorOptions g;
  g.num_trajectories = static_cast<int>(num_batches * kIngestBatchTrips);
  if (db.vocabulary().size() > 0) {
    g.vocabulary_size = static_cast<int>(db.vocabulary().size());
  }
  g.seed = seed * 0x51ED27ULL + 0xA11CE;
  auto gen = uots::GenerateTrips(db.network(), g);
  if (!gen.ok()) return gen.status();
  std::vector<std::vector<uots::Trajectory>> batches(num_batches);
  for (size_t i = 0; i < gen->store.size(); ++i) {
    batches[i / kIngestBatchTrips].push_back(
        gen->store.Materialize(static_cast<uots::TrajId>(i)));
  }
  while (!batches.empty() && batches.back().size() < kIngestBatchTrips) {
    batches.pop_back();
  }
  return batches;
}

std::vector<Planned> PlanReads(const WorkloadSpec& spec,
                               const RequestPool& pool, double qps,
                               double seconds, uots::Rng* rng) {
  std::vector<Planned> out;
  if (qps <= 0.0 || seconds <= 0.0) return out;
  out.reserve(static_cast<size_t>(qps * seconds * 1.1) + 16);
  const uots::ZipfSampler zipf(pool.entries.size(), kZipfS);
  const double end_ns = seconds * 1e9;
  double t = -1e9 / qps;
  int conn = 0;
  while (true) {
    // Evenly spaced arrivals: the offered load has no bursts of its own,
    // so queueing in the tails comes from the requests' costs alone.
    t += 1e9 / qps;
    if (t >= end_ns) break;
    Planned p;
    p.due_ns = static_cast<int64_t>(t);
    p.index = static_cast<uint32_t>(spec.zipf ? zipf.Sample(*rng)
                                              : rng->Uniform(pool.entries.size()));
    p.op = pool.entries[p.index].op;
    p.conn = static_cast<uint8_t>(conn);
    p.bypass = spec.bypass;
    conn = (conn + 1) % kConnections;
    out.push_back(p);
  }
  return out;
}

std::vector<Planned> PlanIngest(double seconds, size_t* next_batch,
                                size_t max_batches) {
  std::vector<Planned> out;
  const int64_t cadence_ns = static_cast<int64_t>(kIngestCadenceMs * 1e6);
  for (int64_t t = 0; t < static_cast<int64_t>(seconds * 1e9);
       t += cadence_ns) {
    if (*next_batch >= max_batches) break;
    Planned p;
    p.due_ns = t;
    p.op = Op::kIngest;
    p.index = static_cast<uint32_t>((*next_batch)++);
    out.push_back(p);
  }
  return out;
}

std::string EncodeFrame(const RequestPool& pool,
                        const std::vector<std::vector<uots::Trajectory>>& batches,
                        const Planned& p, int64_t id) {
  std::string body;
  const uots::CacheMode cache =
      p.bypass ? uots::CacheMode::kBypass : uots::CacheMode::kDefault;
  switch (p.op) {
    case Op::kQuery: {
      uots::QueryRequest req;
      req.id = id;
      req.query = pool.queries[pool.entries[p.index].index];
      req.cache = cache;
      body = uots::EncodeQueryRequest(req);
      break;
    }
    case Op::kTrip: {
      uots::TripRequest req;
      req.id = id;
      req.query = pool.trips[pool.entries[p.index].index];
      req.cache = cache;
      body = uots::EncodeTripRequest(req);
      break;
    }
    case Op::kIngest: {
      uots::IngestRequest req;
      req.id = id;
      req.trajectories = batches[p.index];
      body = uots::EncodeIngestRequest(req);
      break;
    }
  }
  return uots::EncodeFrame(body);
}

}  // namespace perfbench
