#include "util/counters.h"

#include <sstream>

namespace uots {

const char* ToString(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kTextualFilter:
      return "textual_filter";
    case QueryPhase::kSpatialExpansion:
      return "spatial_expansion";
    case QueryPhase::kBoundMaintenance:
      return "bound_maintenance";
    case QueryPhase::kScheduling:
      return "scheduling";
    case QueryPhase::kRefinement:
      return "refinement";
    case QueryPhase::kTripHarvest:
      return "trip_harvest";
    case QueryPhase::kTripAssemble:
      return "trip_assemble";
  }
  return "unknown";
}

std::string QueryStats::ToString() const {
  std::ostringstream os;
  os << "visited=" << visited_trajectories << " hits=" << trajectory_hits
     << " settled=" << settled_vertices << " pops=" << heap_pops
     << " pushes=" << heap_pushes << " decreases=" << heap_decreases
     << " stale=" << heap_stale_pops << " candidates=" << candidates
     << " postings=" << posting_entries << " steps=" << schedule_steps
     << " rebuilds=" << bound_rebuilds << " oracle_lookups=" << oracle_lookups
     << " oracle_pruned=" << oracle_pruned_candidates << " ms=" << elapsed_ms;
  os << " phases[";
  for (int i = 0; i < kNumQueryPhases; ++i) {
    if (i != 0) os << " ";
    os << uots::ToString(static_cast<QueryPhase>(i)) << "="
       << PhaseMillis(static_cast<QueryPhase>(i)) << "ms";
  }
  os << "]";
  return os.str();
}

std::string QueryStats::ToJson() const {
  std::ostringstream os;
  os << "{\"visited_trajectories\": " << visited_trajectories
     << ", \"trajectory_hits\": " << trajectory_hits
     << ", \"settled_vertices\": " << settled_vertices
     << ", \"heap_pops\": " << heap_pops
     << ", \"heap_pushes\": " << heap_pushes
     << ", \"heap_decreases\": " << heap_decreases
     << ", \"heap_stale_pops\": " << heap_stale_pops
     << ", \"candidates\": " << candidates
     << ", \"posting_entries\": " << posting_entries
     << ", \"schedule_steps\": " << schedule_steps
     << ", \"bound_rebuilds\": " << bound_rebuilds
     << ", \"oracle_lookups\": " << oracle_lookups
     << ", \"oracle_pruned_candidates\": " << oracle_pruned_candidates
     << ", \"elapsed_ms\": " << elapsed_ms << ", \"phase_ms\": {";
  for (int i = 0; i < kNumQueryPhases; ++i) {
    if (i != 0) os << ", ";
    os << "\"" << uots::ToString(static_cast<QueryPhase>(i))
       << "\": " << PhaseMillis(static_cast<QueryPhase>(i));
  }
  os << "}}";
  return os.str();
}

}  // namespace uots
