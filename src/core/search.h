// The UOTS expansion search — the paper's contribution, plus its
// three-domain (spatial + temporal + textual) extension (core/temporal.h).
//
// For one query with m locations and a keyword set:
//
//  * Textual domain: a single probe of the keyword inverted index yields
//    the exact SimT of every keyword-sharing trajectory (all others have
//    SimT = 0 exactly). Candidates are kept in descending SimT order; the
//    head of the not-yet-fully-scanned remainder upper-bounds the textual
//    component of everything unseen.
//  * Spatial domain: one incremental network expansion per query location
//    ("query source"). When expansion i first settles a vertex of
//    trajectory tau, the settled distance IS d(o_i, tau) exactly.
//  * Temporal domain (three-domain queries only): one timeline walk per
//    query time (traj/time_index.h). It settles samples in nondecreasing
//    |dt|, so the first settled sample of tau gives d(t_j, tau) exactly and
//    the walk radius lower-bounds every unseen trajectory — the same
//    structure as the spatial domain, so all sources share one loop.
//
//  Upper bound of a partly scanned tau (radius r_i of source i lower-
//  bounds its distance to tau for every source that has not scanned tau):
//
//    SimS.ub(tau) = (1/m) [ sum_{i in mask} e^(-d_i/sigma)
//                         + sum_{i not in mask} e^(-r_i/sigma) ]
//    SimU.ub(tau) = ws * SimS.ub(tau) + wt * SimP.ub(tau) + wk * SimT(tau)
//
//  with SimP.ub built the same way over the temporal sources. A two-domain
//  query runs with ws = lambda, wt = 0, wk = 1 - lambda, which evaluates
//  bit-identically to SimilarityModel::Combine (x + 0.0 == x).
//
//  Global bound: max over partly scanned of SimU.ub, versus
//    ws * (1/m) sum_i e^(-r_i/sigma) + wt * (...) + wk * maxRemainingSimT
//  for everything unseen. The search stops when the pruning threshold (the
//  k-th exact score for top-k queries, theta for threshold queries) reaches
//  the global bound — everything unresolved is pruned.
//
//  Scheduling (the paper family's query-source priority): the next source
//  to expand maximizes label(i) = sum of SimU.ub over partly scanned
//  trajectories not yet scanned from source i — the source with the most
//  potential to turn promising partial candidates into fully scanned ones.
//  Ablations: round-robin and sequential policies (core/algorithm.h).

#ifndef UOTS_CORE_SEARCH_H_
#define UOTS_CORE_SEARCH_H_

#include <memory>
#include <span>
#include <vector>

#include "core/algorithm.h"
#include "core/temporal.h"
#include "ingest/merged_view.h"
#include "net/expansion.h"
#include "oracle/distance_provider.h"
#include "traj/time_index.h"
#include "util/versioned.h"

namespace uots {

/// \brief The UOTS search engine (stateful scratch; one per thread).
class UotsSearcher : public SearchAlgorithm {
 public:
  UotsSearcher(const TrajectoryDatabase& db, const UotsSearchOptions& opts = {});

  /// Top-k search: the k highest-scoring trajectories.
  Result<SearchResult> Search(const UotsQuery& query) override;

  /// Three-domain top-k search (core/temporal.h). Same loop, bounds,
  /// oracle, cancel token and (score, id) top-k as the two-domain search;
  /// sees live-ingested trips through the same MergedView.
  Result<TemporalSearchResult> Search(const TemporalUotsQuery& query);

  /// Threshold search: every trajectory with SimU >= theta, descending.
  /// `query.k` is ignored. The same bounds prune the search space; the
  /// expansion stops once nothing unresolved can reach theta.
  Result<SearchResult> SearchThreshold(const UotsQuery& query, double theta);

  const char* name() const override {
    switch (opts_.scheduling) {
      case SchedulingPolicy::kHeuristic:
        return "UOTS";
      case SchedulingPolicy::kRoundRobin:
        return "UOTS-w/o-h";
      case SchedulingPolicy::kSequential:
        return "UOTS-seq";
    }
    return "UOTS";
  }

 private:
  /// Per-trajectory scan state (created on first hit from any source).
  struct TrajState {
    TrajId id = kInvalidTraj;
    uint64_t mask = 0;  ///< query sources that have scanned this traj
    int known = 0;      ///< popcount(mask)
    /// Sum of scanned decays per domain ([0] spatial, [1] temporal), in
    /// scan order — bound upkeep only; final scores re-sum decay_pool_.
    double sum_decay[2] = {0.0, 0.0};
    double text = 0.0;  ///< exact SimT
    /// SimU upper bound cached when the state was last touched/rebuilt.
    /// Radii only grow and decays only shrink, so this never underestimates
    /// the state's true current bound (see RunSearch).
    double cached_ub = 0.0;
    /// Base index of this state's per-source decays in decay_pool_.
    size_t decay_base = 0;
  };

  /// \brief One query as the search loop sees it: its sources and domain
  /// weights. Sources [0, |locations|) are network expansions, the rest
  /// timeline walks.
  struct Sources {
    std::span<const VertexId> locations;
    std::span<const int32_t> times;
    double ws = 0.0;  ///< spatial weight
    double wt = 0.0;  ///< temporal weight
    double wk = 0.0;  ///< textual weight
  };

  /// \brief Result-collection policy shared by the top-k and threshold
  /// modes: Accept() consumes each fully-scanned (exact-score) trajectory,
  /// PruneThreshold() is the score everything unresolved must beat.
  class Sink;

  /// Runs the expansion search, feeding exact results into `sink`.
  /// \return kDeadlineExceeded when the installed cancel token fired
  /// (checked once per scheduling round); OK otherwise.
  Status RunSearch(const Sources& query, Sink* sink, QueryStats* stats);

  /// Probes the keyword index and fills text_docs_ / text_of_.
  void ResolveTextualDomain(const KeywordSet& keywords, QueryStats* stats);

  /// Runs a two-domain query (lambda > 0) through RunSearch into `sink`
  /// and projects the collected items into `out`.
  Status RunTwoDomain(const UotsQuery& query, Sink* sink, SearchResult* out);

  Result<SearchResult> SearchTextOnly(const UotsQuery& query);
  Result<SearchResult> SearchTextOnlyThreshold(const UotsQuery& query,
                                               double theta);

  const TrajectoryDatabase* db_;
  UotsSearchOptions opts_;
  /// Base+delta read surface, rebound at the top of every search so one
  /// query sees one sealed ingest generation.
  MergedView view_;
  /// Exact-distance oracle front-end; null without an attached oracle (or
  /// with opts_.use_oracle off). Per-searcher scratch, like the expansions.
  std::unique_ptr<DistanceProvider> provider_;
  /// Resumable per-source walks, reused across queries.
  std::vector<std::unique_ptr<NetworkExpansion>> spatial_;
  std::vector<TemporalExpansion> temporal_;
  VersionedArray<int32_t> state_slot_;  ///< traj id -> index into states_
  VersionedArray<double> text_of_;      ///< traj id -> exact SimT
  std::vector<TrajState> states_;
  std::vector<int32_t> partial_;        ///< indexes of partly scanned states
  /// Per-state, per-source decays e^(-d_i/sigma), one slot per source.
  /// Final scores always sum these in source order, one sum per domain —
  /// the association order of SimilarityModel::SpatialSim and the
  /// brute-force references — so a score does not depend on which source
  /// happened to scan the trajectory first (and matches the oracle path
  /// and the brute-force references bit for bit).
  std::vector<double> decay_pool_;
  std::vector<ScoredDoc> text_docs_;    ///< textual candidates, SimT desc
  /// Counter scratch for the shared keyword index (one per engine — the
  /// index itself must stay read-only under concurrent queries).
  TextScoringScratch text_scratch_;
};

}  // namespace uots

#endif  // UOTS_CORE_SEARCH_H_
