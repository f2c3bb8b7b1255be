// Cross-query caching: result-cache key canonicalization, the sharded LRU
// result cache, and the service-side integration (engine-pool cap,
// concurrent hammer).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/query_key.h"
#include "cache/result_cache.h"
#include "core/batch.h"
#include "core/workload.h"
#include "net/generators.h"
#include "server/service.h"
#include "text/zipf.h"
#include "traj/generator.h"
#include "util/rng.h"

namespace uots {
namespace {

const TrajectoryDatabase& TestDb() {
  static auto* db = [] {
    GridNetworkOptions gopts;
    gopts.rows = 16;
    gopts.cols = 16;
    gopts.seed = 41;
    auto g = MakeGridNetwork(gopts);
    TripGeneratorOptions topts;
    topts.num_trajectories = 300;
    topts.vocabulary_size = 120;
    topts.seed = 42;
    auto data = GenerateTrips(*g, topts);
    return new TrajectoryDatabase(std::move(*g), std::move(data->store),
                                  std::move(data->vocabulary));
  }();
  return *db;
}

UotsQuery BaseQuery() {
  UotsQuery q;
  q.locations = {5, 1, 9};
  q.keywords = KeywordSet({3, 7, 11});
  q.lambda = 0.5;
  q.k = 5;
  return q;
}

// ---------------------------------------------------------------- query_key

TEST(QueryKey, LocationPermutationInvariant) {
  const UotsSearchOptions opts;
  UotsQuery a = BaseQuery();
  UotsQuery b = BaseQuery();
  b.locations = {9, 5, 1};
  EXPECT_EQ(EncodeResultCacheKey(a, AlgorithmKind::kUots, opts, 1),
            EncodeResultCacheKey(b, AlgorithmKind::kUots, opts, 1));
}

TEST(QueryKey, KeywordOrderInvariant) {
  const UotsSearchOptions opts;
  UotsQuery a = BaseQuery();
  UotsQuery b = BaseQuery();
  b.keywords = KeywordSet({11, 3, 7, 3});  // reordered + duplicate
  EXPECT_EQ(EncodeResultCacheKey(a, AlgorithmKind::kUots, opts, 1),
            EncodeResultCacheKey(b, AlgorithmKind::kUots, opts, 1));
}

TEST(QueryKey, DuplicateLocationsArePreserved) {
  // {5,5,1} visits vertex 5 twice — a different query than {5,1}.
  const UotsSearchOptions opts;
  UotsQuery a = BaseQuery();
  a.locations = {5, 1};
  UotsQuery b = BaseQuery();
  b.locations = {5, 5, 1};
  EXPECT_NE(EncodeResultCacheKey(a, AlgorithmKind::kUots, opts, 1),
            EncodeResultCacheKey(b, AlgorithmKind::kUots, opts, 1));
}

TEST(QueryKey, SensitiveToEveryAnswerAffectingKnob) {
  const UotsSearchOptions opts;
  const UotsQuery base = BaseQuery();
  const std::string key =
      EncodeResultCacheKey(base, AlgorithmKind::kUots, opts, 1);

  UotsQuery q = base;
  q.lambda = 0.7;
  EXPECT_NE(key, EncodeResultCacheKey(q, AlgorithmKind::kUots, opts, 1));

  q = base;
  q.k = 6;
  EXPECT_NE(key, EncodeResultCacheKey(q, AlgorithmKind::kUots, opts, 1));

  q = base;
  q.locations.push_back(2);
  EXPECT_NE(key, EncodeResultCacheKey(q, AlgorithmKind::kUots, opts, 1));

  // Different algorithm kinds may rank ties differently.
  EXPECT_NE(key, EncodeResultCacheKey(base, AlgorithmKind::kBruteForce, opts, 1));

  // Different dataset builds must never share answers.
  EXPECT_NE(key, EncodeResultCacheKey(base, AlgorithmKind::kUots, opts, 2));

  // Search knobs that can steer abort/tie behaviour are part of the key.
  UotsSearchOptions sopts;
  sopts.scheduling = SchedulingPolicy::kRoundRobin;
  EXPECT_NE(key, EncodeResultCacheKey(base, AlgorithmKind::kUots, sopts, 1));
  sopts = {};
  sopts.batch_size = 128;
  EXPECT_NE(key, EncodeResultCacheKey(base, AlgorithmKind::kUots, sopts, 1));
}

TEST(QueryKey, HashIsStableAndSpreads) {
  const UotsSearchOptions opts;
  const std::string a =
      EncodeResultCacheKey(BaseQuery(), AlgorithmKind::kUots, opts, 1);
  EXPECT_EQ(HashCacheKey(a), HashCacheKey(a));
  UotsQuery q = BaseQuery();
  q.k = 6;
  const std::string b =
      EncodeResultCacheKey(q, AlgorithmKind::kUots, opts, 1);
  EXPECT_NE(HashCacheKey(a), HashCacheKey(b));
}

// ------------------------------------------------------------- result_cache

std::shared_ptr<const CachedResult> MakeValue(TrajId id) {
  auto v = std::make_shared<CachedResult>();
  v->items.push_back({id, 1.0, 0.5, 0.5});
  return v;
}

TEST(ResultCacheTest, LruEvictsLeastRecentlyUsed) {
  ResultCache::Options opts;
  opts.max_entries = 2;
  opts.shards = 1;
  ResultCache cache(opts);
  cache.Insert("a", MakeValue(1));
  cache.Insert("b", MakeValue(2));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // refresh "a"
  cache.Insert("c", MakeValue(3));        // evicts "b"
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  ASSERT_NE(cache.Lookup("a"), nullptr);
  ASSERT_NE(cache.Lookup("c"), nullptr);
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 2);
  EXPECT_GT(s.bytes, 0);
}

TEST(ResultCacheTest, TtlExpiresEntries) {
  ResultCache::Options opts;
  opts.max_entries = 8;
  opts.ttl_ms = 1.0;
  opts.shards = 1;
  ResultCache cache(opts);
  cache.Insert("a", MakeValue(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.expired, 1);
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.bytes, 0);
}

TEST(ResultCacheTest, ReplaceUpdatesInPlace) {
  ResultCache::Options opts;
  opts.max_entries = 4;
  opts.shards = 1;
  ResultCache cache(opts);
  cache.Insert("a", MakeValue(1));
  cache.Insert("a", MakeValue(9));
  auto v = cache.Lookup("a");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->items[0].id, 9);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(ResultCacheTest, ClearDropsEntriesKeepsEventCounters) {
  ResultCache cache;
  cache.Insert("a", MakeValue(1));
  ASSERT_NE(cache.Lookup("a"), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.bytes, 0);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
}

// ------------------------------------------------------ service integration

TEST(ServiceCache, PooledEnginesCappedPerKind) {
  ServiceOptions sopts;
  sopts.threads = 2;
  sopts.max_inflight = 128;
  UotsService service(TestDb(), sopts);

  WorkloadOptions wopts;
  wopts.num_queries = 8;
  auto queries = MakeWorkload(TestDb(), wopts);
  ASSERT_TRUE(queries.ok());

  const AlgorithmKind kinds[] = {AlgorithmKind::kUots,
                                 AlgorithmKind::kBruteForce,
                                 AlgorithmKind::kTextFirst};
  std::mutex mu;
  std::condition_variable cv;
  size_t done_count = 0;
  size_t submitted = 0;
  for (int round = 0; round < 4; ++round) {
    for (AlgorithmKind kind : kinds) {
      for (const UotsQuery& q : *queries) {
        const bool ok = service.TryExecute(q, kind, nullptr,
                                           [&](ExecutionResult r) {
                                             EXPECT_TRUE(r.status.ok());
                                             std::lock_guard<std::mutex> l(mu);
                                             ++done_count;
                                             cv.notify_one();
                                           });
        ASSERT_TRUE(ok);
        ++submitted;
      }
    }
  }
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return done_count == submitted; });
  }
  service.Drain();
  // Even after 96 requests, the free pool never holds more engines of a
  // kind than there are workers to run them.
  size_t total = 0;
  for (AlgorithmKind kind : kinds) {
    const size_t n = service.pooled_engines(kind);
    EXPECT_LE(n, 2u) << ToString(kind);
    EXPECT_GE(n, 1u) << ToString(kind);
    total += n;
  }
  EXPECT_EQ(service.pooled_engines(), total);
}

TEST(ServiceCache, ConcurrentZipfHammerIsBitIdentical) {
  ServiceOptions sopts;
  sopts.threads = 4;
  sopts.max_inflight = 512;
  sopts.cache_max_entries = 64;
  sopts.cache_shards = 4;
  UotsService service(TestDb(), sopts);

  WorkloadOptions wopts;
  wopts.num_queries = 24;
  wopts.num_locations = 3;
  wopts.k = 5;
  auto queries = MakeWorkload(TestDb(), wopts);
  ASSERT_TRUE(queries.ok());

  // Reference answers from plain, uncached runs.
  std::vector<SearchResult> ref;
  for (const UotsQuery& q : *queries) {
    auto r = RunQuery(TestDb(), q, {});
    ASSERT_TRUE(r.ok());
    ref.push_back(*r);
  }

  auto identical = [](const std::vector<ScoredTrajectory>& a,
                      const std::vector<ScoredTrajectory>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].id != b[i].id || a[i].score != b[i].score ||
          a[i].spatial_sim != b[i].spatial_sim ||
          a[i].textual_sim != b[i].textual_sim) {
        return false;
      }
    }
    return true;
  };

  // Four client threads follow the server's own probe-then-execute recipe
  // under a Zipf-skewed pick, so hot queries race hits, inserts, and
  // misses concurrently.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 150;
  std::atomic<int> mismatches{0};
  std::atomic<int> hits{0};
  std::mutex mu;
  std::condition_variable cv;
  int done_count = 0;
  int submitted = 0;

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      ZipfSampler zipf(queries->size(), 0.99);
      Rng rng(1234 + static_cast<uint64_t>(t) * 0x9e3779b9ULL);
      for (int i = 0; i < kPerThread; ++i) {
        const size_t qi = zipf.Sample(rng);
        const UotsQuery& q = (*queries)[qi];
        std::string key;
        if (auto hit = service.CacheLookup(q, AlgorithmKind::kUots, &key)) {
          if (!identical(hit->items, ref[qi].items)) ++mismatches;
          ++hits;
          continue;
        }
        // Retry on transient admission refusal (backpressure, not failure).
        for (;;) {
          bool ok = false;
          {
            std::lock_guard<std::mutex> l(mu);
            ok = service.TryExecute(
                q, AlgorithmKind::kUots, nullptr,
                [&, qi](ExecutionResult r) {
                  if (!r.status.ok() ||
                      !identical(r.result.items, ref[qi].items)) {
                    ++mismatches;
                  }
                  std::lock_guard<std::mutex> l2(mu);
                  ++done_count;
                  cv.notify_one();
                },
                key);
            if (ok) ++submitted;
          }
          if (ok) break;
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return done_count == submitted; });
  }
  service.Drain();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(hits.load(), 0);  // Zipf skew guarantees repeats
  ASSERT_NE(service.result_cache(), nullptr);
  EXPECT_GT(service.result_cache()->stats().hits, 0);
}

}  // namespace
}  // namespace uots
