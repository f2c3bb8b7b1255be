// Timeline index and incremental temporal expansion.
//
// The temporal analogue of the spatial network expansion: all trajectory
// samples are sorted on their time-of-day, and a TemporalExpansion walks
// outward from a query timestamp, settling samples in nondecreasing
// absolute time difference. Exactly like Dijkstra's settle order makes the
// first scanned vertex of a trajectory its network distance, the first
// settled sample of a trajectory here IS d(t, tau) = min_i |t - t_i|, and
// the current radius lower-bounds every unseen trajectory's temporal
// distance. This powers the three-domain (spatial + temporal + textual)
// extension of the UOTS search (core/temporal.h, core/search.h).

#ifndef UOTS_TRAJ_TIME_INDEX_H_
#define UOTS_TRAJ_TIME_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "traj/store.h"
#include "util/column_vec.h"

namespace uots {

/// \brief Immutable sorted (time, trajectory) timeline over one store.
class TimeIndex {
 public:
  explicit TimeIndex(const TrajectoryStore& store);

  /// One timeline entry.
  struct Entry {
    int32_t time_s;
    TrajId traj;
  };

  /// \brief Reassembles the index from a prebuilt sorted column (e.g. a view
  /// over a validated snapshot section); skips the sort entirely.
  static TimeIndex FromColumns(ColumnVec<Entry> entries);

  std::span<const Entry> entries() const { return entries_.span(); }
  size_t size() const { return entries_.size(); }

  /// Index of the first entry with time >= t (size() if none).
  size_t LowerBound(int32_t t) const;

  size_t MemoryUsage() const { return Memory().total(); }
  MemoryBreakdown Memory() const { return entries_.Memory(); }

 private:
  TimeIndex() = default;

  ColumnVec<Entry> entries_;  // sorted by (time_s, traj)
};

/// \brief Resumable outward walk from a query timestamp.
///
/// Walks one or two sorted timelines as if they were one: the base index
/// and, optionally, a live-ingest delta run (DeltaIndex::timeline()) whose
/// trajectory ids all exceed the base's. Merging by (time, trajectory)
/// settles exactly the sequence a timeline rebuilt over base + delta would.
class TemporalExpansion {
 public:
  explicit TemporalExpansion(const TimeIndex& index) : index_(&index) {}

  /// (Re)starts the walk from time-of-day `t` (seconds) over the base
  /// timeline merged with `delta` (sorted by (time_s, traj); may be empty).
  void Reset(int32_t t, std::span<const TimeIndex::Entry> delta = {});

  /// \brief Settles the next-nearest sample.
  /// \param[out] traj  the trajectory owning the settled sample
  /// \param[out] dt    its absolute time difference from the query time
  /// \return false when the whole timeline is exhausted.
  bool Step(TrajId* traj, double* dt);

  /// |Δt| of the sample the next Step() settles; +inf once exhausted.
  double PeekOffset() const;

  /// |Δt| of the last settled sample; lower bound for everything unseen.
  double radius() const { return radius_; }
  bool exhausted() const { return exhausted_; }
  int64_t settled_count() const { return settled_count_; }

 private:
  /// The runs holding the next entry leftward / rightward (-1: none) and
  /// those entries' offsets (+inf: none).
  struct Heads {
    int left = -1;
    int right = -1;
    double left_dt;
    double right_dt;
  };
  Heads NextHeads() const;

  const TimeIndex* index_;
  int32_t origin_ = 0;
  /// Run 0 is the base timeline, run 1 the delta. In each run, entries
  /// below lo_ (moving left) and from hi_ (moving right) are unsettled;
  /// [lo_, hi_) has been consumed.
  std::span<const TimeIndex::Entry> runs_[2];
  size_t lo_[2] = {0, 0};
  size_t hi_[2] = {0, 0};
  double radius_ = 0.0;
  bool exhausted_ = false;
  int64_t settled_count_ = 0;
};

}  // namespace uots

#endif  // UOTS_TRAJ_TIME_INDEX_H_
