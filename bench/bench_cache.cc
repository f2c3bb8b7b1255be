// Experiment C1 — cross-query caching (ISSUE 5).
//
// Tier 1 (result cache): an in-process emulation of the serving path — a
// Zipf-skewed closed loop over a fixed query pool, probing the sharded LRU
// before falling back to the engine — swept over request skews with the
// cache on and off. Real POI traffic is heavily repeated (the same "museum
// + food" trip is asked for constantly), which is exactly what the skew
// knob models; the interesting numbers are the hit rate the skew buys, the
// hit/miss latency split, and the throughput uplift.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "cache/query_key.h"
#include "cache/result_cache.h"
#include "common/datasets.h"
#include "common/report.h"
#include "core/batch.h"
#include "text/zipf.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace uots {
namespace bench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RunResultCacheSweep(const TrajectoryDatabase& db, JsonReport* report) {
  // The pool is deliberately larger than the cache (512 distinct queries vs
  // 64 entries): with uniform traffic the working set cannot fit and the
  // cache thrashes; as the skew rises the head of the distribution fits and
  // the hit rate climbs. That capacity pressure is what makes the sweep
  // informative — a cache bigger than the query universe trivially hits.
  WorkloadOptions wopts;
  wopts.num_queries = 512;
  wopts.num_locations = 3;
  wopts.k = 5;
  wopts.seed = 911;
  const std::vector<UotsQuery> pool = DefaultWorkload(db, wopts);
  constexpr int kRequests = 1500;
  const UotsSearchOptions search_opts;

  Table table({"skew", "cache", "qps", "hit rate", "hit p50 ms",
               "miss p50 ms", "uplift"});
  table.PrintHeader();

  for (double skew : {0.0, 0.6, 0.99, 1.2}) {
    double qps_off = 0.0;
    for (const bool cache_on : {false, true}) {
      auto engine = CreateAlgorithm(db, AlgorithmKind::kUots, search_opts);
      ResultCache::Options copts;
      copts.max_entries = 64;
      ResultCache cache(copts);
      ZipfSampler zipf(pool.size(), skew);
      Rng rng(4242);
      LatencyHistogram hit_lat, miss_lat;
      int64_t hits = 0;

      const double t0 = Now();
      for (int i = 0; i < kRequests; ++i) {
        const UotsQuery& q = pool[zipf.Sample(rng)];
        const double r0 = Now();
        if (cache_on) {
          const std::string key = EncodeResultCacheKey(
              q, AlgorithmKind::kUots, search_opts, db.fingerprint());
          if (auto hit = cache.Lookup(key)) {
            hit_lat.Record(static_cast<int64_t>((Now() - r0) * 1e9));
            ++hits;
            continue;
          }
          auto r = engine->Search(q);
          if (!r.ok()) std::abort();
          auto value = std::make_shared<CachedResult>();
          value->items = r->items;
          value->stats = r->stats;
          cache.Insert(key, std::move(value));
        } else {
          auto r = engine->Search(q);
          if (!r.ok()) std::abort();
        }
        miss_lat.Record(static_cast<int64_t>((Now() - r0) * 1e9));
      }
      const double wall = Now() - t0;
      const double qps = kRequests / wall;
      if (!cache_on) qps_off = qps;
      const double hit_rate = static_cast<double>(hits) / kRequests;
      const double uplift = cache_on && qps_off > 0.0 ? qps / qps_off : 1.0;

      table.PrintRow({FormatDouble(skew, 2), cache_on ? "on" : "off",
                      FormatDouble(qps, 0),
                      FormatDouble(100.0 * hit_rate, 1) + "%",
                      hits > 0 ? FormatDouble(hit_lat.PercentileMs(50), 4)
                               : std::string("-"),
                      FormatDouble(miss_lat.PercentileMs(50), 3),
                      cache_on ? FormatDouble(uplift, 2) + "x" : std::string("-")});
      report->AddRow()
          .Set("tier", std::string("result"))
          .Set("skew", skew)
          .Set("cache", std::string(cache_on ? "on" : "off"))
          .Set("requests", static_cast<int64_t>(kRequests))
          .Set("queries_per_second", qps)
          .Set("hit_rate", hit_rate)
          .Set("hit_p50_ms", hits > 0 ? hit_lat.PercentileMs(50) : 0.0)
          .Set("hit_p99_ms", hits > 0 ? hit_lat.PercentileMs(99) : 0.0)
          .Set("miss_p50_ms", miss_lat.PercentileMs(50))
          .Set("miss_p99_ms", miss_lat.PercentileMs(99))
          .Set("uplift", uplift);
    }
    table.PrintRule();
  }
}

void Run() {
  auto db = LoadCity(City::kBRN);
  PrintBanner("C1 cross-query caching, BRN", *db);
  JsonReport report("C1 cross-query caching");
  std::printf("result cache over a Zipf-skewed closed loop "
              "(512-query pool, 64-entry cache, m=3, k=5)\n");
  RunResultCacheSweep(*db, &report);
  report.WriteFile("BENCH_cache.json");
}

}  // namespace
}  // namespace bench
}  // namespace uots

int main() {
  uots::bench::Run();
  return 0;
}
