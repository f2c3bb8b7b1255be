// Workload definitions and request generation.
//
// Every input the server receives is generated here from the run's seed:
// a pool of retrieval and trip queries drawn from the snapshot itself
// (core/workload.h and trip/workload.h seed queries from real
// trajectories, so every query has strong matches), an open-loop arrival
// schedule, and batches of fresh trips for the ingest stream.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "core/database.h"
#include "core/query.h"
#include "traj/trajectory.h"
#include "trip/trip_query.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

/// \brief One benchmark workload (see BENCHMARK.json for why each exists).
struct WorkloadSpec {
  const char* name;
  /// Send every read with "cache":"bypass" (the cache is never used).
  bool bypass;
  /// Draw reads Zipf(kZipfS) from the pool instead of uniformly.
  bool zipf;
  /// Fixed offered rate at which latency is reported, requests/s.
  double report_qps;
  /// Capacity ladder of offered rates, ascending.
  std::vector<double> ladder;
};

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(std::string_view name);

/// One request of the pool: a retrieval or trip query.
struct PoolEntry {
  Op op;
  uint32_t index;  ///< into RequestPool::queries or ::trips
};

/// \brief The distinct requests a run draws from.
struct RequestPool {
  std::vector<uots::UotsQuery> queries;
  std::vector<uots::TripQuery> trips;
  std::vector<PoolEntry> entries;  ///< in Zipf rank order
};

/// Builds a pool of `size` entries with the benchmark's request mix: 20%
/// trips, m even over kTripLocations; 80% retrieval, m even over
/// kQueryLocations, half of it with decoupled keywords. Every 15
/// consecutive entries hold exactly that mix.
uots::Result<RequestPool> BuildPool(const uots::TrajectoryDatabase& db,
                                    size_t size, uint64_t seed);

/// Generates `num_batches` batches of kIngestBatchTrips fresh trips over
/// `db`'s network and vocabulary (distinct content, so none is refused as
/// a duplicate).
uots::Result<std::vector<std::vector<uots::Trajectory>>> BuildIngestBatches(
    const uots::TrajectoryDatabase& db, size_t num_batches, uint64_t seed);

/// \brief One scheduled request.
struct Planned {
  int64_t due_ns = 0;  ///< offset from the phase start
  Op op = Op::kQuery;
  uint32_t index = 0;  ///< pool entry (reads) or batch number (ingest)
  uint8_t conn = 0;
  bool bypass = false;
};

/// Draws reads for one phase: evenly spaced arrivals at `qps` for
/// `seconds`, round-robin over the kConnections connections.
std::vector<Planned> PlanReads(const WorkloadSpec& spec,
                               const RequestPool& pool, double qps,
                               double seconds, uots::Rng* rng);

/// Ingest batches `*next_batch`, `*next_batch + 1`, ... at the fixed
/// cadence on connection 0 for `seconds`; advances *next_batch.
std::vector<Planned> PlanIngest(double seconds, size_t* next_batch,
                                size_t max_batches);

/// Encodes one planned request as a wire frame (length prefix included)
/// with correlation id `id`.
std::string EncodeFrame(const RequestPool& pool,
                        const std::vector<std::vector<uots::Trajectory>>& batches,
                        const Planned& p, int64_t id);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
