// Distance-oracle correctness: contraction-hierarchy answers must be
// EXACTLY (bitwise) equal to plain Dijkstra on every pair — the property
// the search layer relies on for oracle-on/oracle-off bit-identity — and
// the oracle-driven search itself must return bit-identical results to the
// expansion baseline and match brute force.

#include "oracle/ch_oracle.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/algorithm.h"
#include "core/search.h"
#include "core/workload.h"
#include "net/dijkstra.h"
#include "net/generators.h"
#include "oracle/distance_provider.h"
#include "oracle/querier.h"
#include "traj/generator.h"
#include "util/rng.h"

namespace uots {
namespace {

DistanceOracle BuildOracle(const RoadNetwork& g,
                           OracleBuildStats* stats = nullptr) {
  auto oracle = DistanceOracle::Build(g, {}, stats);
  EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_TRUE(oracle->Validate().ok());
  return std::move(*oracle);
}

/// Exact (EXPECT_EQ on doubles, infinity included) all-pairs comparison
/// against full Dijkstra trees. Only feasible on small networks.
void ExpectAllPairsExact(const RoadNetwork& g) {
  const DistanceOracle oracle = BuildOracle(g);
  OracleQuerier querier(oracle);
  const size_t n = g.NumVertices();
  for (VertexId s = 0; s < static_cast<VertexId>(n); ++s) {
    const ShortestPathTree tree = ComputeShortestPathTree(g, s);
    for (VertexId t = 0; t < static_cast<VertexId>(n); ++t) {
      EXPECT_EQ(querier.Distance(s, t), tree.dist[t])
          << "sd(" << s << ", " << t << ")";
    }
  }
}

TEST(ChOracle, AllPairsExactOnGrid) {
  GridNetworkOptions opts;
  opts.rows = 9;
  opts.cols = 9;
  opts.removal_rate = 0.1;
  opts.seed = 7;
  auto g = MakeGridNetwork(opts);
  ASSERT_TRUE(g.ok());
  ExpectAllPairsExact(*g);
}

TEST(ChOracle, AllPairsExactOnRingRadial) {
  RingRadialNetworkOptions opts;
  opts.rings = 6;
  opts.inner_ring_vertices = 6;
  opts.seed = 9;
  auto g = MakeRingRadialNetwork(opts);
  ASSERT_TRUE(g.ok());
  ExpectAllPairsExact(*g);
}

TEST(ChOracle, AllPairsExactOnRandomGeometric) {
  RandomGeometricOptions opts;
  opts.num_vertices = 80;
  opts.k_nearest = 4;
  opts.seed = 21;
  auto g = MakeRandomGeometricNetwork(opts);
  ASSERT_TRUE(g.ok());
  ExpectAllPairsExact(*g);
}

TEST(ChOracle, SampledPairsExactOnLargerNetworks) {
  // BRN-style (ring-radial) and NRN-style (grid) networks at a size where
  // all-pairs is too slow: sample pairs, still demand exact equality.
  std::vector<RoadNetwork> nets;
  {
    GridNetworkOptions gopts;
    gopts.rows = 40;
    gopts.cols = 40;
    gopts.removal_rate = 0.05;
    gopts.seed = 3;
    auto g = MakeGridNetwork(gopts);
    ASSERT_TRUE(g.ok());
    nets.push_back(std::move(*g));
  }
  {
    RingRadialNetworkOptions ropts;
    ropts.rings = 18;
    ropts.inner_ring_vertices = 10;
    ropts.seed = 4;
    auto g = MakeRingRadialNetwork(ropts);
    ASSERT_TRUE(g.ok());
    nets.push_back(std::move(*g));
  }
  Rng rng(0xfeedu);
  for (const RoadNetwork& g : nets) {
    const DistanceOracle oracle = BuildOracle(g);
    OracleQuerier querier(oracle);
    const size_t n = g.NumVertices();
    for (int i = 0; i < 40; ++i) {
      const auto s = static_cast<VertexId>(rng.Next() % n);
      const ShortestPathTree tree = ComputeShortestPathTree(g, s);
      for (int j = 0; j < 25; ++j) {
        const auto t = static_cast<VertexId>(rng.Next() % n);
        EXPECT_EQ(querier.Distance(s, t), tree.dist[t])
            << "sd(" << s << ", " << t << ")";
      }
    }
  }
}

TEST(ChOracle, DisconnectedPairsAreInfinite) {
  // Two components: a path 0-1-2 and a path 3-4. Within-component
  // distances stay exact; cross-component pairs must come back infinite.
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) {
    b.AddVertex(Point{static_cast<float>(100 * i), 0});
  }
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  auto g = std::move(b).Finalize(/*require_connected=*/false);
  ASSERT_TRUE(g.ok());

  const DistanceOracle oracle = BuildOracle(*g);
  OracleQuerier querier(oracle);
  EXPECT_EQ(querier.Distance(0, 2), ShortestPathDistance(*g, 0, 2));
  EXPECT_EQ(querier.Distance(3, 4), ShortestPathDistance(*g, 3, 4));
  EXPECT_EQ(querier.Distance(0, 3), kInfDistance);
  EXPECT_EQ(querier.Distance(4, 2), kInfDistance);
  EXPECT_EQ(querier.Distance(2, 2), 0.0);

  const std::vector<VertexId> sources = {0, 4};
  querier.BeginQuery(sources);
  const auto row = querier.DistancesTo(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], ShortestPathDistance(*g, 0, 1));
  EXPECT_EQ(row[1], kInfDistance);
}

TEST(ChOracle, BucketOneToManyMatchesPairwise) {
  GridNetworkOptions opts;
  opts.rows = 14;
  opts.cols = 14;
  opts.seed = 31;
  auto g = MakeGridNetwork(opts);
  ASSERT_TRUE(g.ok());
  const DistanceOracle oracle = BuildOracle(*g);
  OracleQuerier bucket(oracle);
  OracleQuerier pairwise(oracle);

  Rng rng(0x5eedu);
  const size_t n = g->NumVertices();
  for (int round = 0; round < 6; ++round) {
    std::vector<VertexId> sources;
    for (int i = 0; i < 4; ++i) {
      sources.push_back(static_cast<VertexId>(rng.Next() % n));
    }
    bucket.BeginQuery(sources);
    for (int j = 0; j < 30; ++j) {
      const auto v = static_cast<VertexId>(rng.Next() % n);
      const auto row = bucket.DistancesTo(v);
      ASSERT_EQ(row.size(), sources.size());
      for (size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(row[i], pairwise.Distance(sources[i], v))
            << "source " << sources[i] << " target " << v;
      }
    }
  }
}

TEST(ChOracle, BuildStatsAreReported) {
  GridNetworkOptions opts;
  opts.rows = 12;
  opts.cols = 12;
  opts.seed = 5;
  auto g = MakeGridNetwork(opts);
  ASSERT_TRUE(g.ok());
  OracleBuildStats stats;
  const DistanceOracle oracle = BuildOracle(*g, &stats);
  EXPECT_EQ(oracle.NumVertices(), g->NumVertices());
  EXPECT_GE(oracle.NumUpEdges(), g->NumEdges());  // every road arc kept once
  EXPECT_EQ(oracle.NumShortcuts(), oracle.NumUpEdges() - g->NumEdges());
  EXPECT_EQ(stats.shortcuts, oracle.NumShortcuts());
  EXPECT_GT(stats.witness_searches, 0u);
  EXPECT_GT(oracle.Memory().total(), 0u);
}

TEST(ChOracle, FromColumnsRoundTripsAndValidates) {
  GridNetworkOptions opts;
  opts.rows = 8;
  opts.cols = 8;
  opts.seed = 17;
  auto g = MakeGridNetwork(opts);
  ASSERT_TRUE(g.ok());
  const DistanceOracle built = BuildOracle(*g);
  const DistanceOracle viewed = DistanceOracle::FromColumns(
      ColumnVec<uint32_t>::View(built.ranks().data(), built.ranks().size()),
      ColumnVec<uint64_t>::View(built.up_offsets().data(),
                                built.up_offsets().size()),
      ColumnVec<OracleEdge>::View(built.up_edges().data(),
                                  built.up_edges().size()));
  EXPECT_TRUE(viewed.Validate().ok());
  OracleQuerier a(built);
  OracleQuerier b(viewed);
  for (VertexId v = 0; v < 20; ++v) {
    EXPECT_EQ(a.Distance(0, v), b.Distance(0, v));
  }

  // Corruption must be caught: a rank collision breaks the permutation.
  std::vector<uint32_t> bad_ranks(built.ranks().begin(), built.ranks().end());
  bad_ranks[1] = bad_ranks[0];
  const DistanceOracle corrupt = DistanceOracle::FromColumns(
      ColumnVec<uint32_t>::View(bad_ranks.data(), bad_ranks.size()),
      ColumnVec<uint64_t>::View(built.up_offsets().data(),
                                built.up_offsets().size()),
      ColumnVec<OracleEdge>::View(built.up_edges().data(),
                                  built.up_edges().size()));
  EXPECT_FALSE(corrupt.Validate().ok());
}

// ---- Search-layer integration: oracle on/off bit-identity. ----

std::unique_ptr<TrajectoryDatabase> MakeDatabase(bool attach_oracle) {
  GridNetworkOptions gopts;
  gopts.rows = 20;
  gopts.cols = 20;
  gopts.seed = 41;
  auto g = MakeGridNetwork(gopts);
  TripGeneratorOptions topts;
  topts.num_trajectories = 350;
  topts.vocabulary_size = 120;
  topts.seed = 42;
  auto data = GenerateTrips(*g, topts);
  auto db = std::make_unique<TrajectoryDatabase>(
      std::move(*g), std::move(data->store), std::move(data->vocabulary));
  if (attach_oracle) {
    auto oracle = DistanceOracle::Build(db->network());
    EXPECT_TRUE(oracle.ok());
    db->AttachOracle(std::make_shared<DistanceOracle>(std::move(*oracle)));
  }
  return db;
}

TEST(OracleSearch, BitIdenticalToExpansionBaselineAndBruteForce) {
  auto db = MakeDatabase(/*attach_oracle=*/true);

  UotsSearchOptions with;
  with.use_oracle = true;
  UotsSearchOptions without;
  without.use_oracle = false;

  WorkloadOptions wopts;
  wopts.num_queries = 10;
  wopts.num_locations = 3;
  wopts.lambda = 0.6;
  wopts.k = 10;
  wopts.seed = 77;
  auto queries = MakeWorkload(*db, wopts);
  ASSERT_TRUE(queries.ok());

  auto on = CreateAlgorithm(*db, AlgorithmKind::kUots, with);
  auto off = CreateAlgorithm(*db, AlgorithmKind::kUots, without);
  auto bf = CreateAlgorithm(*db, AlgorithmKind::kBruteForce);
  UotsSearcher on3(*db, with);
  UotsSearcher off3(*db, without);

  int32_t hour = 5;
  for (const UotsQuery& q : *queries) {
    auto r_on = on->Search(q);
    auto r_off = off->Search(q);
    auto r_bf = bf->Search(q);
    ASSERT_TRUE(r_on.ok() && r_off.ok() && r_bf.ok());

    // Bit-identity, not tolerance: same ids, same exact doubles.
    ASSERT_EQ(r_on->items.size(), r_off->items.size());
    ASSERT_EQ(r_on->items.size(), r_bf->items.size());
    for (size_t i = 0; i < r_on->items.size(); ++i) {
      EXPECT_EQ(r_on->items[i].id, r_off->items[i].id) << "rank " << i;
      EXPECT_EQ(r_on->items[i].score, r_off->items[i].score) << "rank " << i;
      EXPECT_EQ(r_on->items[i].id, r_bf->items[i].id) << "rank " << i;
      EXPECT_EQ(r_on->items[i].score, r_bf->items[i].score) << "rank " << i;
      EXPECT_EQ(r_on->items[i].spatial_sim, r_bf->items[i].spatial_sim);
      EXPECT_EQ(r_on->items[i].textual_sim, r_bf->items[i].textual_sim);
    }

    // The oracle path actually ran and did less expansion work.
    EXPECT_GT(r_on->stats.oracle_lookups, 0);
    EXPECT_EQ(r_off->stats.oracle_lookups, 0);

    // The same query with two preferred times: the three-domain search
    // shares the loop, so oracle on/off and the brute force agree too.
    TemporalUotsQuery tq;
    tq.locations = q.locations;
    tq.times = {hour * 3600, (hour + 7) * 3600 + 1200};
    hour += 1;
    tq.keywords = q.keywords;
    tq.k = q.k;
    auto t_on = on3.Search(tq);
    auto t_off = off3.Search(tq);
    auto t_bf = BruteForceTemporalSearch(*db, tq);
    ASSERT_TRUE(t_on.ok() && t_off.ok() && t_bf.ok());
    for (const auto* other : {&t_off.value(), &t_bf.value()}) {
      ASSERT_EQ(t_on->items.size(), other->items.size());
      for (size_t i = 0; i < t_on->items.size(); ++i) {
        const auto& x = t_on->items[i];
        const auto& y = other->items[i];
        EXPECT_EQ(x.id, y.id) << "3D rank " << i;
        EXPECT_EQ(x.score, y.score) << "3D rank " << i;
        EXPECT_EQ(x.spatial_sim, y.spatial_sim) << "3D rank " << i;
        EXPECT_EQ(x.temporal_sim, y.temporal_sim) << "3D rank " << i;
        EXPECT_EQ(x.textual_sim, y.textual_sim) << "3D rank " << i;
      }
    }
    EXPECT_GT(t_on->stats.oracle_lookups, 0);
    EXPECT_EQ(t_off->stats.oracle_lookups, 0);
  }
}

TEST(OracleSearch, ThresholdModeBitIdentical) {
  auto db = MakeDatabase(/*attach_oracle=*/true);

  UotsSearchOptions with;
  with.use_oracle = true;
  UotsSearchOptions without;
  without.use_oracle = false;
  UotsSearcher on(*db, with);
  UotsSearcher off(*db, without);

  WorkloadOptions wopts;
  wopts.num_queries = 6;
  wopts.num_locations = 2;
  wopts.lambda = 0.5;
  wopts.k = 5;
  wopts.seed = 99;
  auto queries = MakeWorkload(*db, wopts);
  ASSERT_TRUE(queries.ok());

  for (const UotsQuery& q : *queries) {
    for (const double theta : {0.2, 0.5, 0.8}) {
      auto r_on = on.SearchThreshold(q, theta);
      auto r_off = off.SearchThreshold(q, theta);
      ASSERT_TRUE(r_on.ok() && r_off.ok());
      ASSERT_EQ(r_on->items.size(), r_off->items.size()) << "theta " << theta;
      for (size_t i = 0; i < r_on->items.size(); ++i) {
        EXPECT_EQ(r_on->items[i].id, r_off->items[i].id);
        EXPECT_EQ(r_on->items[i].score, r_off->items[i].score);
      }
    }
  }
}

TEST(OracleSearch, NoOracleAttachedFallsBackCleanly) {
  auto db = MakeDatabase(/*attach_oracle=*/false);
  UotsSearchOptions with;
  with.use_oracle = true;  // requested but unavailable: plain expansion
  auto engine = CreateAlgorithm(*db, AlgorithmKind::kUots, with);

  WorkloadOptions wopts;
  wopts.num_queries = 2;
  wopts.num_locations = 2;
  wopts.seed = 13;
  auto queries = MakeWorkload(*db, wopts);
  ASSERT_TRUE(queries.ok());
  for (const UotsQuery& q : *queries) {
    auto r = engine->Search(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.oracle_lookups, 0);
  }
}

}  // namespace
}  // namespace uots
