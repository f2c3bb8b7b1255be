#include "gate.h"

#include "core/batch.h"
#include "ingest/ingestor.h"
#include "server/protocol.h"
#include "storage/snapshot_reader.h"
#include "trip/planner.h"

namespace perfbench {
namespace {

bool SameItems(const std::vector<uots::ScoredTrajectory>& a,
               const std::vector<uots::ScoredTrajectory>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].score != b[i].score ||
        a[i].spatial_sim != b[i].spatial_sim ||
        a[i].textual_sim != b[i].textual_sim) {
      return false;
    }
  }
  return true;
}

}  // namespace

uots::Result<std::shared_ptr<const uots::TrajectoryDatabase>> BuildReplica(
    const std::string& snapshot,
    const std::vector<std::vector<uots::Trajectory>>& batches,
    const std::vector<uint32_t>& applied) {
  auto loaded = uots::storage::LoadSnapshot(snapshot);
  if (!loaded.ok()) return loaded.status();
  std::shared_ptr<const uots::TrajectoryDatabase> db = std::move(*loaded);
  uots::Ingestor ingestor(db.get());
  for (uint32_t b : applied) {
    auto r = ingestor.Apply(batches[b]);
    if (!r.ok()) return r.status();
  }
  return db;
}

GateResult CheckSamples(const uots::TrajectoryDatabase& db,
                        const RequestPool& pool,
                        const std::vector<Sample>& samples) {
  GateResult out;
  uots::TripPlanner planner(db);
  auto fail = [&out](const std::string& why) {
    if (out.mismatches++ == 0) out.first_mismatch = why;
  };
  for (const Sample& s : samples) {
    ++out.checked;
    const PoolEntry& e = pool.entries[s.entry];
    const std::string tag =
        std::string(OpName(s.op)) + " entry " + std::to_string(s.entry);
    if (s.op == Op::kQuery) {
      auto remote = uots::ParseQueryResponse(s.payload);
      auto local = uots::RunQuery(db, pool.queries[e.index]);
      if (!remote.ok() || !remote->ok() || !local.ok()) {
        fail(tag + ": not ok on " + (local.ok() ? "the wire" : "reference"));
      } else if (!SameItems(remote->results, local->items)) {
        fail(tag + ": answers differ");
      }
    } else {
      auto remote = uots::ParseTripResponse(s.payload);
      auto local = planner.Plan(pool.trips[e.index]);
      if (!remote.ok() || !remote->ok() || !local.ok()) {
        fail(tag + ": not ok on " + (local.ok() ? "the wire" : "reference"));
      } else if (remote->trips != local->trips) {
        fail(tag + ": trips differ");
      }
    }
  }
  return out;
}

}  // namespace perfbench
