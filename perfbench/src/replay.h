// Traced in-process replay.
//
// Replays a request schedule on its due times through the program's own
// layer entry points, in the same order the server runs them, with a span
// recorded around each call:
//
//   server   FrameDecoder::Poll, Parse{Query,Trip,Ingest}Request,
//            Encode{Query,Trip}Response
//   cache    UotsService::CacheLookup / TripCacheLookup
//   service  UotsService::TryExecute / TryExecuteTrip (queue wait and
//            execute time, the engine's QueryStats and phase_ns)
//   ingest   Ingestor::Apply
//   storage  LoadSnapshot / WriteSnapshot (initial load and compactions)
//   oracle   OracleQuerier::Distance (probed on the schedule's locations)
//
// One thread plays the reactor, exactly as uots_server does; executions
// run on the service's own worker pool. Spans of one request share its id
// and are kept in memory until the replay ends.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <utility>
#include <vector>

#include "workload.h"

namespace perfbench {

struct ReplayInput {
  std::string snapshot_path;
  const RequestPool* pool = nullptr;
  const std::vector<std::vector<uots::Trajectory>>* batches = nullptr;
  std::vector<Planned> schedule;  ///< reads and ingest, by due time
  std::string compact_path;       ///< where compactions write
  bool traced = true;             ///< record spans
  std::string trace_out;          ///< Chrome trace JSON path ("" = none)
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct ReplayOutput {
  uots::Status status;
  /// Per-layer metrics (self times, counts, ratios).
  std::vector<Metric> metrics;
  /// Retrieval requests: due -> response encoded, ms.
  std::vector<double> query_e2e_ms;
  /// Retrieval requests: the sum of their layer spans, ms.
  std::vector<double> query_layer_sum_ms;
  int64_t spans = 0;
};

ReplayOutput Replay(const ReplayInput& in);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
