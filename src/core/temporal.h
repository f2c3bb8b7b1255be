// Three-domain (spatial + temporal + textual) UOTS extension: query and
// result types, validation, and the brute-force reference.
//
// The EDBT-2012 paper searches the spatial and textual domains; its
// companion work (personalized trajectory matching) adds the temporal
// domain. This module defines the natural three-domain generalization:
//
//   SimU3(q, tau) = ws * SimS + wt * SimP + wk * SimT,   ws+wt+wk = 1
//   SimP(q, tau)  = (1/|q.times|) * sum_j e^(-d(t_j, tau)/sigma_s)
//   d(t_j, tau)   = min_i |t_j - tau.t_i|
//
// The expansion search itself is UotsSearcher::Search(TemporalUotsQuery)
// (core/search.h): temporal query sources are incremental timeline walks
// (TemporalExpansion, traj/time_index.h) that settle samples in
// nondecreasing |dt| — the same structure as the network expansions — so
// all m_s + m_t sources run in the one search loop under one scheduling
// policy and one global upper bound.

#ifndef UOTS_CORE_TEMPORAL_H_
#define UOTS_CORE_TEMPORAL_H_

#include <vector>

#include "core/algorithm.h"

namespace uots {

/// \brief A three-domain query.
struct TemporalUotsQuery {
  std::vector<VertexId> locations;  ///< at least one
  std::vector<int32_t> times;       ///< preferred visit times (time of day, s)
  KeywordSet keywords;
  double weight_spatial = 0.4;
  double weight_temporal = 0.3;
  double weight_textual = 0.3;
  int k = 1;
};

/// \brief One result with the full score decomposition.
struct TemporalScoredTrajectory {
  TrajId id = kInvalidTraj;
  double score = 0.0;
  double spatial_sim = 0.0;
  double temporal_sim = 0.0;
  double textual_sim = 0.0;
};

/// \brief Top-k answer plus instrumentation.
struct TemporalSearchResult {
  std::vector<TemporalScoredTrajectory> items;  ///< descending by score
  QueryStats stats;
};

/// Validates a three-domain query against the database shape. Weights must
/// be non-negative and sum to 1 (1e-9 tolerance); weight_temporal must be 0
/// when no times are given; locations + times must not exceed
/// kMaxQueryLocations sources in total.
Status ValidateTemporalQuery(const TemporalUotsQuery& q, size_t num_vertices);

/// Exact brute-force evaluation over base + live delta (ground truth and
/// baseline).
Result<TemporalSearchResult> BruteForceTemporalSearch(
    const TrajectoryDatabase& db, const TemporalUotsQuery& query);

}  // namespace uots

#endif  // UOTS_CORE_TEMPORAL_H_
