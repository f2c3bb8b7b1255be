// Timeline index, temporal expansion, and the three-domain search.

#include "core/temporal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "core/search.h"
#include "net/generators.h"
#include "traj/generator.h"
#include "util/rng.h"

namespace uots {
namespace {

std::unique_ptr<TrajectoryDatabase> MakeDb(int num_trajectories,
                                           uint64_t seed) {
  GridNetworkOptions gopts;
  gopts.rows = 18;
  gopts.cols = 18;
  gopts.seed = seed;
  auto g = MakeGridNetwork(gopts);
  EXPECT_TRUE(g.ok());
  TripGeneratorOptions topts;
  topts.num_trajectories = num_trajectories;
  topts.vocabulary_size = 100;
  topts.seed = seed + 1;
  auto data = GenerateTrips(*g, topts);
  EXPECT_TRUE(data.ok());
  return std::make_unique<TrajectoryDatabase>(
      std::move(*g), std::move(data->store), std::move(data->vocabulary));
}

TEST(TimeIndex, SortedAndComplete) {
  auto db = MakeDb(50, 71);
  const TimeIndex& index = db->time_index();
  EXPECT_EQ(index.size(), db->store().TotalSamples());
  for (size_t i = 1; i < index.entries().size(); ++i) {
    EXPECT_LE(index.entries()[i - 1].time_s, index.entries()[i].time_s);
  }
}

TEST(TimeIndex, LowerBoundSemantics) {
  TrajectoryStore store;
  Trajectory t;
  t.samples = {{0, 100}, {1, 200}, {2, 300}};
  ASSERT_TRUE(store.Add(t).ok());
  const TimeIndex index(store);
  EXPECT_EQ(index.LowerBound(0), 0u);
  EXPECT_EQ(index.LowerBound(150), 1u);
  EXPECT_EQ(index.LowerBound(200), 1u);
  EXPECT_EQ(index.LowerBound(301), 3u);
}

TEST(TemporalExpansion, SettlesInNondecreasingOffsetOrder) {
  auto db = MakeDb(40, 72);
  TemporalExpansion ex(db->time_index());
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const int32_t origin = static_cast<int32_t>(rng.Uniform(kSecondsPerDay));
    ex.Reset(origin);
    double last = -1.0;
    TrajId t;
    double dt;
    size_t count = 0;
    while (ex.Step(&t, &dt)) {
      EXPECT_GE(dt, last);
      EXPECT_DOUBLE_EQ(dt, ex.radius());
      last = dt;
      ++count;
    }
    EXPECT_TRUE(ex.exhausted());
    EXPECT_EQ(count, db->store().TotalSamples());
  }
}

TEST(TemporalExpansion, FirstHitPerTrajectoryIsExactMinimum) {
  auto db = MakeDb(40, 73);
  const int32_t origin = 12 * 3600;
  TemporalExpansion ex(db->time_index());
  ex.Reset(origin);
  std::map<TrajId, double> first_hit;
  TrajId t;
  double dt;
  while (ex.Step(&t, &dt)) {
    first_hit.emplace(t, dt);  // only the first insert survives
  }
  for (TrajId id = 0; id < db->store().size(); ++id) {
    double expected = 1e18;
    for (const Sample& s : db->store().SamplesOf(id)) {
      expected = std::min(
          expected, std::fabs(static_cast<double>(origin) - s.time_s));
    }
    ASSERT_TRUE(first_hit.count(id));
    EXPECT_DOUBLE_EQ(first_hit[id], expected) << "trajectory " << id;
  }
}

TEST(TemporalExpansion, MergedWalkMatchesRebuiltTimeline) {
  // Base trips 0..1, "delta" trip 2 (ids above the base): walking the base
  // index merged with the delta run settles exactly the sequence of an
  // index rebuilt over all three — equal times included.
  Trajectory a, b, c;
  a.samples = {{0, 100}, {1, 400}};
  b.samples = {{2, 250}, {3, 400}};
  c.samples = {{4, 90}, {5, 250}, {6, 700}};
  TrajectoryStore base, all;
  for (const Trajectory* t : {&a, &b}) ASSERT_TRUE(base.Add(*t).ok());
  for (const Trajectory* t : {&a, &b, &c}) ASSERT_TRUE(all.Add(*t).ok());
  const TimeIndex base_index(base);
  const TimeIndex all_index(all);
  const std::vector<TimeIndex::Entry> delta = {{90, 2}, {250, 2}, {700, 2}};
  for (int32_t origin : {0, 250, 300, 400, 1000}) {
    TemporalExpansion merged(base_index);
    TemporalExpansion rebuilt(all_index);
    merged.Reset(origin, delta);
    rebuilt.Reset(origin);
    TrajId tm, tr;
    double dm, dr;
    for (;;) {
      EXPECT_EQ(merged.PeekOffset(), rebuilt.PeekOffset());
      const bool more = rebuilt.Step(&tr, &dr);
      ASSERT_EQ(merged.Step(&tm, &dm), more) << "origin " << origin;
      if (!more) break;
      EXPECT_EQ(tm, tr) << "origin " << origin;
      EXPECT_EQ(dm, dr) << "origin " << origin;
    }
    EXPECT_EQ(merged.settled_count(), 7);
  }
}

TEST(TemporalExpansion, EmptyStore) {
  TrajectoryStore store;
  const TimeIndex index(store);
  TemporalExpansion ex(index);
  ex.Reset(1000);
  TrajId t;
  double dt;
  EXPECT_FALSE(ex.Step(&t, &dt));
  EXPECT_TRUE(ex.exhausted());
}

TEST(ValidateTemporalQuery, Rules) {
  TemporalUotsQuery q;
  EXPECT_FALSE(ValidateTemporalQuery(q, 100).ok());  // no locations
  q.locations = {1};
  q.times = {3600};
  EXPECT_TRUE(ValidateTemporalQuery(q, 100).ok());
  q.weight_spatial = 0.5;  // weights now sum to 1.1
  EXPECT_FALSE(ValidateTemporalQuery(q, 100).ok());
  q.weight_spatial = 0.4;
  q.times = {-5};
  EXPECT_FALSE(ValidateTemporalQuery(q, 100).ok());  // bad time
  q.times.clear();
  EXPECT_FALSE(ValidateTemporalQuery(q, 100).ok());  // wt>0 without times
  q.weight_temporal = 0.0;
  q.weight_textual = 0.6;
  EXPECT_TRUE(ValidateTemporalQuery(q, 100).ok());
  q.locations.assign(40, 1);
  q.times.assign(30, 1000);
  q.weight_temporal = 0.3;
  q.weight_textual = 0.3;
  EXPECT_FALSE(ValidateTemporalQuery(q, 100).ok());  // > 64 sources
}

/// Bit-identity, not tolerance: same ids, same exact doubles.
void ExpectIdentical(const TemporalSearchResult& expected,
                     const TemporalSearchResult& got) {
  ASSERT_EQ(expected.items.size(), got.items.size());
  for (size_t i = 0; i < expected.items.size(); ++i) {
    const auto& e = expected.items[i];
    const auto& g = got.items[i];
    EXPECT_EQ(e.id, g.id) << "rank " << i;
    EXPECT_EQ(e.score, g.score) << "rank " << i;
    EXPECT_EQ(e.spatial_sim, g.spatial_sim) << "rank " << i;
    EXPECT_EQ(e.temporal_sim, g.temporal_sim) << "rank " << i;
    EXPECT_EQ(e.textual_sim, g.textual_sim) << "rank " << i;
  }
}

using Weights = std::tuple<double, double, double>;

class TemporalEquivalenceTest : public ::testing::TestWithParam<Weights> {};

TEST_P(TemporalEquivalenceTest, SearchMatchesBruteForce) {
  const auto [ws, wt, wk] = GetParam();
  static auto* db = MakeDb(300, 74).release();
  Rng rng(75);
  UotsSearcher searcher(*db);
  for (int trial = 0; trial < 5; ++trial) {
    // Derive a query from a random seed trajectory (locations, times, and
    // keywords all perturbed from it) so strong matches exist.
    const TrajId seed =
        static_cast<TrajId>(rng.Uniform(db->store().size()));
    const auto samples = db->store().SamplesOf(seed);
    TemporalUotsQuery q;
    q.weight_spatial = ws;
    q.weight_temporal = wt;
    q.weight_textual = wk;
    q.k = 10;
    for (int i = 0; i < 3; ++i) {
      q.locations.push_back(
          samples[rng.Uniform(samples.size())].vertex);
      if (wt > 0) {
        const int32_t jitter = static_cast<int32_t>(rng.UniformInt(-900, 900));
        int32_t t = samples[rng.Uniform(samples.size())].time_s + jitter;
        t = std::clamp(t, 0, kSecondsPerDay - 1);
        q.times.push_back(t);
      }
    }
    q.keywords = db->store().KeywordsOf(seed);

    auto expected = BruteForceTemporalSearch(*db, q);
    auto got = searcher.Search(q);
    ASSERT_TRUE(expected.ok() && got.ok());
    ExpectIdentical(*expected, *got);
    for (const auto& item : got->items) {
      // Decomposition consistency, exactly as the score is evaluated.
      EXPECT_EQ(item.score, ws * item.spatial_sim + wt * item.temporal_sim +
                                wk * item.textual_sim);
    }
  }
}

std::string WeightsName(const ::testing::TestParamInfo<Weights>& info) {
  return "s" +
         std::to_string(static_cast<int>(std::get<0>(info.param) * 10)) +
         "_t" +
         std::to_string(static_cast<int>(std::get<1>(info.param) * 10)) +
         "_k" +
         std::to_string(static_cast<int>(std::get<2>(info.param) * 10));
}

INSTANTIATE_TEST_SUITE_P(
    Weights, TemporalEquivalenceTest,
    ::testing::Values(Weights{0.4, 0.3, 0.3}, Weights{1.0, 0.0, 0.0},
                      Weights{0.2, 0.8, 0.0}, Weights{0.1, 0.1, 0.8},
                      Weights{0.5, 0.5, 0.0}),
    WeightsName);

TEST(TemporalSearch, ReducesToTwoDomainWhenTemporalWeightZero) {
  auto db = MakeDb(200, 76);
  TemporalUotsQuery q3;
  q3.locations = {5, 50, 120};
  q3.keywords = KeywordSet({1, 2, 3});
  q3.weight_spatial = 0.5;
  q3.weight_temporal = 0.0;
  q3.weight_textual = 0.5;
  q3.k = 8;
  UotsSearcher searcher3(*db);
  auto r3 = searcher3.Search(q3);
  ASSERT_TRUE(r3.ok());

  UotsQuery q2;
  q2.locations = q3.locations;
  q2.keywords = q3.keywords;
  q2.lambda = 0.5;
  q2.k = 8;
  auto engine2 = CreateAlgorithm(*db, AlgorithmKind::kUots);
  auto r2 = engine2->Search(q2);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->items.size(), r3->items.size());
  for (size_t i = 0; i < r2->items.size(); ++i) {
    EXPECT_EQ(r2->items[i].id, r3->items[i].id) << "rank " << i;
    EXPECT_EQ(r2->items[i].score, r3->items[i].score) << "rank " << i;
    EXPECT_EQ(r2->items[i].spatial_sim, r3->items[i].spatial_sim);
    EXPECT_EQ(r2->items[i].textual_sim, r3->items[i].textual_sim);
    EXPECT_EQ(r3->items[i].temporal_sim, 0.0);
  }
}

TEST(TemporalSearch, DuplicateTripsTieAtTheKBoundaryByAscendingId) {
  // Four copies of one trip at ids 3, 40, 41 and 90 score exactly alike;
  // a query built from that trip puts them at the top, so k = 2 cuts the
  // tied group. The query times lie just after the trip's, so the timeline
  // walks reach the copies leftward, highest id first. The (score, id)
  // top-k still keeps the two lowest ids.
  GridNetworkOptions gopts;
  gopts.rows = 18;
  gopts.cols = 18;
  gopts.seed = 78;
  auto g = MakeGridNetwork(gopts);
  ASSERT_TRUE(g.ok());
  TripGeneratorOptions topts;
  topts.num_trajectories = 120;
  topts.vocabulary_size = 100;
  topts.seed = 79;
  auto data = GenerateTrips(*g, topts);
  ASSERT_TRUE(data.ok());
  const Trajectory dup = data->store.Materialize(7);
  TrajectoryStore store;
  std::vector<TrajId> copies;
  for (TrajId id = 0; id < data->store.size(); ++id) {
    if (id == 3 || id == 40 || id == 41 || id == 90) {
      copies.push_back(static_cast<TrajId>(store.size()));
      ASSERT_TRUE(store.Add(dup).ok());
    }
    if (id != 7) {
      ASSERT_TRUE(store.Add(data->store.Materialize(id)).ok());
    }
  }
  ASSERT_EQ(copies.size(), 4u);
  TrajectoryDatabase db(std::move(*g), std::move(store),
                        std::move(data->vocabulary));

  TemporalUotsQuery q;
  q.locations = {dup.samples.front().vertex, dup.samples.back().vertex};
  q.times = {std::clamp(dup.samples.front().time_s + 120, 0,
                        kSecondsPerDay - 1),
             std::clamp(dup.samples.back().time_s + 60, 0,
                        kSecondsPerDay - 1)};
  q.keywords = dup.keywords;
  q.k = 2;
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kHeuristic, SchedulingPolicy::kRoundRobin,
        SchedulingPolicy::kSequential}) {
    for (const int batch : {1, 64}) {
      UotsSearchOptions opts;
      opts.scheduling = policy;
      opts.batch_size = batch;
      UotsSearcher searcher(db, opts);
      auto got = searcher.Search(q);
      auto expected = BruteForceTemporalSearch(db, q);
      ASSERT_TRUE(got.ok() && expected.ok());
      ASSERT_EQ(got->items.size(), 2u);
      EXPECT_EQ(got->items[0].id, copies[0]);
      EXPECT_EQ(got->items[1].id, copies[1]);
      EXPECT_EQ(got->items[0].score, got->items[1].score);
      ExpectIdentical(*expected, *got);
    }
  }
}

TEST(TemporalSearch, ExpiredCancelTokenAbortsTheSearch) {
  auto db = MakeDb(200, 80);
  TemporalUotsQuery q;
  q.locations = {5, 50};
  q.times = {8 * 3600};
  q.keywords = KeywordSet({1, 2});
  q.k = 5;
  UotsSearcher searcher(*db);
  CancelToken token;
  token.Cancel();
  searcher.set_cancel(&token);
  auto r = searcher.Search(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // The same engine answers normally once the token is cleared.
  searcher.set_cancel(nullptr);
  EXPECT_TRUE(searcher.Search(q).ok());
}

TEST(TemporalSearch, TemporalWeightChangesRanking) {
  auto db = MakeDb(300, 77);
  // Purely temporal preference for 3 am vs 3 pm must produce different
  // top results (rush-hour trips dominate the data).
  TemporalUotsQuery q;
  q.locations = {10};
  q.weight_spatial = 0.0;
  q.weight_temporal = 1.0;
  q.weight_textual = 0.0;
  q.k = 5;
  UotsSearcher searcher(*db);
  q.times = {3 * 3600};
  auto night = searcher.Search(q);
  q.times = {15 * 3600};
  auto day = searcher.Search(q);
  ASSERT_TRUE(night.ok() && day.ok());
  bool differs = night->items.size() != day->items.size();
  for (size_t i = 0; !differs && i < night->items.size(); ++i) {
    differs = night->items[i].id != day->items[i].id;
  }
  EXPECT_TRUE(differs);
  // Temporal similarity of the best day match should be near-perfect.
  ASSERT_FALSE(day->items.empty());
  EXPECT_GT(day->items[0].temporal_sim, 0.8);
}

}  // namespace
}  // namespace uots
