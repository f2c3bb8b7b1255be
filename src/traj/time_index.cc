#include "traj/time_index.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace uots {

namespace {

bool EntryBefore(const TimeIndex::Entry& a, const TimeIndex::Entry& b) {
  return a.time_s != b.time_s ? a.time_s < b.time_s : a.traj < b.traj;
}

size_t LowerBoundOf(std::span<const TimeIndex::Entry> run, int32_t t) {
  return static_cast<size_t>(
      std::lower_bound(run.begin(), run.end(), t,
                       [](const TimeIndex::Entry& e, int32_t v) {
                         return e.time_s < v;
                       }) -
      run.begin());
}

}  // namespace

TimeIndex::TimeIndex(const TrajectoryStore& store) {
  std::vector<Entry> entries;
  entries.reserve(store.TotalSamples());
  for (TrajId id = 0; id < store.size(); ++id) {
    for (const Sample& s : store.SamplesOf(id)) {
      entries.push_back(Entry{s.time_s, id});
    }
  }
  std::sort(entries.begin(), entries.end(), EntryBefore);
  entries_ = std::move(entries);
}

TimeIndex TimeIndex::FromColumns(ColumnVec<Entry> entries) {
  TimeIndex idx;
  idx.entries_ = std::move(entries);
  return idx;
}

size_t TimeIndex::LowerBound(int32_t t) const {
  return LowerBoundOf(entries(), t);
}

void TemporalExpansion::Reset(int32_t t,
                              std::span<const TimeIndex::Entry> delta) {
  origin_ = t;
  runs_[0] = index_->entries();
  runs_[1] = delta;
  for (int r = 0; r < 2; ++r) lo_[r] = hi_[r] = LowerBoundOf(runs_[r], t);
  radius_ = 0.0;
  exhausted_ = runs_[0].empty() && runs_[1].empty();
  settled_count_ = 0;
}

TemporalExpansion::Heads TemporalExpansion::NextHeads() const {
  // Next entry leftward is the later of the runs' left heads, rightward the
  // earlier of their right heads — the merged timeline's neighbours.
  Heads h;
  for (int r = 0; r < 2; ++r) {
    if (lo_[r] > 0 &&
        (h.left < 0 ||
         EntryBefore(runs_[h.left][lo_[h.left] - 1], runs_[r][lo_[r] - 1]))) {
      h.left = r;
    }
    if (hi_[r] < runs_[r].size() &&
        (h.right < 0 ||
         EntryBefore(runs_[r][hi_[r]], runs_[h.right][hi_[h.right]]))) {
      h.right = r;
    }
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  h.left_dt = h.left >= 0 ? static_cast<double>(origin_) -
                                runs_[h.left][lo_[h.left] - 1].time_s
                          : kInf;
  h.right_dt = h.right >= 0 ? static_cast<double>(
                                  runs_[h.right][hi_[h.right]].time_s) -
                                  origin_
                            : kInf;
  return h;
}

double TemporalExpansion::PeekOffset() const {
  const Heads h = NextHeads();
  return std::min(h.left_dt, h.right_dt);
}

bool TemporalExpansion::Step(TrajId* traj, double* dt) {
  const Heads h = NextHeads();
  if (h.left < 0 && h.right < 0) {
    exhausted_ = true;
    return false;
  }
  if (h.left_dt <= h.right_dt) {
    *traj = runs_[h.left][--lo_[h.left]].traj;
    *dt = h.left_dt;
  } else {
    *traj = runs_[h.right][hi_[h.right]++].traj;
    *dt = h.right_dt;
  }
  assert(*dt >= radius_);
  radius_ = *dt;
  ++settled_count_;
  return true;
}

}  // namespace uots
