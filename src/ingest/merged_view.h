// MergedView — the base+delta read surface every query engine uses.
//
// A MergedView is a per-query snapshot: Bind() captures the database's
// current delta overlay (one shared_ptr load), after which the view is
// frozen even if the reactor publishes further generations mid-query.
// Engines address trajectories by global id; the view routes
//
//   id <  base_count()  ->  the immutable base store/indexes
//   id >= base_count()  ->  the delta (local id = id - base_count())
//
// Bit-identity with a monolithic rebuild (tests/ingest_test.cc) rests on
// two properties the view preserves:
//
//  1. Posting order. Base postings are ascending < base_count, delta
//     postings ascending >= base_count, so walking base-then-delta
//     enumerates exactly the ascending posting list a rebuilt index would
//     hold for the same trips.
//  2. Score arithmetic. Per-trajectory numeric state (distance decays,
//     set-overlap counts) is independent of other trajectories, and
//     DeltaIndex::ScoreCandidates replicates InvertedKeywordIndex's
//     per-measure formulas operation-for-operation.
//
// With no delta published, every method degenerates to the base accessors
// (one null check); the quiescent query path is unchanged.

#ifndef UOTS_INGEST_MERGED_VIEW_H_
#define UOTS_INGEST_MERGED_VIEW_H_

#include <memory>
#include <span>
#include <vector>

#include "core/database.h"
#include "ingest/delta_index.h"

namespace uots {

/// \brief Snapshot view over base + delta; cheap to Bind per query.
class MergedView {
 public:
  MergedView() = default;

  /// Captures `db`'s current delta generation. The view (and the pinned
  /// DeltaIndex) stays valid for the caller's lifetime regardless of later
  /// publishes; `db` itself must outlive the view.
  void Bind(const TrajectoryDatabase& db) {
    base_ = &db;
    delta_ = db.delta();
    base_count_ = static_cast<TrajId>(db.store().size());
  }

  bool has_delta() const { return delta_ != nullptr && delta_->size() > 0; }
  const DeltaIndex* delta() const { return delta_.get(); }

  /// First delta global id == number of base trajectories.
  TrajId base_count() const { return base_count_; }

  /// Base + delta trajectory count (the id space is [0, NumTrajectories)).
  size_t NumTrajectories() const {
    return base_count_ + (delta_ ? delta_->size() : 0);
  }

  std::span<const Sample> SamplesOf(TrajId id) const {
    return id < base_count_ ? base_->store().SamplesOf(id)
                            : delta_->store().SamplesOf(id - base_count_);
  }

  KeywordSet KeywordsOf(TrajId id) const {
    return id < base_count_ ? base_->store().KeywordsOf(id)
                            : delta_->store().KeywordsOf(id - base_count_);
  }

  size_t LengthOf(TrajId id) const {
    return id < base_count_ ? base_->store().LengthOf(id)
                            : delta_->store().LengthOf(id - base_count_);
  }

  /// \brief The two posting segments for vertex `v`.
  ///
  /// `base` then `delta` is the ascending, deduplicated global posting
  /// list; iterate both in order.
  struct Postings {
    std::span<const TrajId> base;
    std::span<const TrajId> delta;
  };

  Postings TrajectoriesAt(VertexId v) const {
    Postings p;
    p.base = base_->vertex_index().TrajectoriesAt(v);
    if (delta_) p.delta = delta_->TrajectoriesAt(v);
    return p;
  }

  /// Sorted (time_s, global id) timeline of the delta's samples (empty
  /// without a delta); timeline walks merge it with the base TimeIndex.
  std::span<const TimeIndex::Entry> DeltaTimeline() const {
    if (!delta_) return {};
    return delta_->timeline();
  }

  /// \brief Scores every base and delta trajectory sharing >= 1 term with
  /// `query` (unsorted, like InvertedKeywordIndex::ScoreCandidates).
  /// `scratch` is the caller-owned counter scratch for the base index —
  /// engines keep one each, since the index is shared across threads.
  void ScoreTextual(const KeywordSet& query, const TextualSimilarity& sim,
                    std::vector<ScoredDoc>* out,
                    int64_t* posting_entries = nullptr,
                    TextScoringScratch* scratch = nullptr) const {
    const auto doc_keys = [this](DocId d) {
      return base_->store().KeywordsOf(static_cast<TrajId>(d));
    };
    base_->keyword_index().ScoreCandidates(query, sim, out, posting_entries,
                                           doc_keys, scratch);
    if (delta_) delta_->ScoreCandidates(query, sim, out, posting_entries);
  }

 private:
  const TrajectoryDatabase* base_ = nullptr;
  std::shared_ptr<const DeltaIndex> delta_;
  TrajId base_count_ = 0;
};

}  // namespace uots

#endif  // UOTS_INGEST_MERGED_VIEW_H_
