#include "core/temporal.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/topk.h"
#include "ingest/merged_view.h"
#include "net/dijkstra.h"
#include "util/timer.h"

namespace uots {

namespace {

double Combine3(const TemporalUotsQuery& q, double spatial, double temporal,
                double textual) {
  return q.weight_spatial * spatial + q.weight_temporal * temporal +
         q.weight_textual * textual;
}

}  // namespace

Status ValidateTemporalQuery(const TemporalUotsQuery& q, size_t num_vertices) {
  if (q.locations.empty()) {
    return Status::InvalidArgument("query needs at least one location");
  }
  if (q.locations.size() + q.times.size() > kMaxQueryLocations) {
    return Status::InvalidArgument("too many query sources (max 64 total)");
  }
  for (VertexId v : q.locations) {
    if (v >= num_vertices) {
      return Status::InvalidArgument("query location out of range");
    }
  }
  for (int32_t t : q.times) {
    if (t < 0 || t >= kSecondsPerDay) {
      return Status::InvalidArgument("query time outside [0, 86400)");
    }
  }
  if (q.weight_spatial < 0 || q.weight_temporal < 0 || q.weight_textual < 0) {
    return Status::InvalidArgument("weights must be non-negative");
  }
  const double sum = q.weight_spatial + q.weight_temporal + q.weight_textual;
  if (std::fabs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("weights must sum to 1");
  }
  if (q.times.empty() && q.weight_temporal != 0.0) {
    return Status::InvalidArgument("weight_temporal needs query times");
  }
  if (q.k < 1) return Status::InvalidArgument("k must be >= 1");
  return Status::OK();
}

Result<TemporalSearchResult> BruteForceTemporalSearch(
    const TrajectoryDatabase& db, const TemporalUotsQuery& query) {
  UOTS_RETURN_NOT_OK(ValidateTemporalQuery(query, db.network().NumVertices()));
  UOTS_TRACE_SCOPE("BF-3D");
  WallTimer timer;
  TemporalSearchResult out;
  MergedView view;  // base + live delta, as the expansion search sees it
  view.Bind(db);
  const auto& model = db.model();

  std::vector<ShortestPathTree> trees;
  trees.reserve(query.locations.size());
  {
    ScopedPhase phase(&out.stats, QueryPhase::kSpatialExpansion);
    for (VertexId o : query.locations) {
      trees.push_back(ComputeShortestPathTree(db.network(), o));
      out.stats.settled_vertices +=
          static_cast<int64_t>(db.network().NumVertices());
    }
  }

  {
    ScopedPhase refine_phase(&out.stats, QueryPhase::kRefinement);
    TopK<TemporalScoredTrajectory> topk(static_cast<size_t>(query.k));
    for (TrajId id = 0; id < view.NumTrajectories(); ++id) {
      const auto samples = view.SamplesOf(id);
      double spatial = 0.0;
      for (const auto& tree : trees) {
        double best = std::numeric_limits<double>::infinity();
        for (const Sample& s : samples) {
          best = std::min(best, tree.dist[s.vertex]);
        }
        spatial += model.SpatialDecay(best);
      }
      spatial /= static_cast<double>(trees.size());

      double temporal = 0.0;
      if (!query.times.empty()) {
        for (int32_t t : query.times) {
          double best = std::numeric_limits<double>::infinity();
          for (const Sample& s : samples) {
            best = std::min(best, std::fabs(static_cast<double>(t) - s.time_s));
          }
          temporal += model.TemporalDecay(best);
        }
        temporal /= static_cast<double>(query.times.size());
      }

      const double textual =
          model.textual().Score(query.keywords, view.KeywordsOf(id));
      topk.Offer(TemporalScoredTrajectory{
          id, Combine3(query, spatial, temporal, textual), spatial, temporal,
          textual});
      ++out.stats.visited_trajectories;
      ++out.stats.candidates;
    }
    out.items = std::move(topk).Finish();
  }
  out.stats.elapsed_ms = timer.ElapsedMillis();
  return out;
}

}  // namespace uots
