// Correctness gate: wire answers against an in-process reference.

#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/database.h"
#include "traj/trajectory.h"
#include "workload.h"

namespace perfbench {

/// \brief A response captured on the wire for checking.
struct Sample {
  Op op = Op::kQuery;
  uint32_t entry = 0;   ///< RequestPool::entries index
  std::string payload;  ///< response JSON
};

struct GateResult {
  int checked = 0;
  int mismatches = 0;
  std::string first_mismatch;  ///< description of the first failure
};

/// The reference for answers served after the writes: the snapshot with
/// the `applied` batches applied in order through an in-process Ingestor.
/// Answers do not depend on how the server split base and delta, so the
/// replica keeps every batch in its delta.
uots::Result<std::shared_ptr<const uots::TrajectoryDatabase>> BuildReplica(
    const std::string& snapshot,
    const std::vector<std::vector<uots::Trajectory>>& batches,
    const std::vector<uint32_t>& applied);

/// Compares every sample bit for bit with RunQuery / TripPlanner::Plan
/// over `db` (including any delta published on it). A response that is
/// not "ok" counts as a mismatch.
GateResult CheckSamples(const uots::TrajectoryDatabase& db,
                        const RequestPool& pool,
                        const std::vector<Sample>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
