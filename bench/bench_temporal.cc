// Experiment F7 — the three-domain (temporal) extension.
//
// Compares the three-domain expansion search against its brute-force
// evaluation while sweeping the temporal weight. Expected shape: the
// expansion search stays well below brute force at every weight, and the
// temporal domain is cheap to add (timeline walks settle samples much
// faster than network expansions settle vertices).

#include <cstdio>

#include "common/datasets.h"
#include "common/report.h"
#include "core/search.h"
#include "core/temporal.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace uots {
namespace bench {
namespace {

std::vector<TemporalUotsQuery> MakeQueries(const TrajectoryDatabase& db,
                                           double wt, int count) {
  Rng rng(801);
  std::vector<TemporalUotsQuery> out;
  for (int qi = 0; qi < count; ++qi) {
    const TrajId seed = static_cast<TrajId>(rng.Uniform(db.store().size()));
    const auto samples = db.store().SamplesOf(seed);
    TemporalUotsQuery q;
    q.weight_temporal = wt;
    q.weight_spatial = (1.0 - wt) * 0.6;
    q.weight_textual = 1.0 - wt - q.weight_spatial;
    q.k = 10;
    for (int i = 0; i < 4; ++i) {
      q.locations.push_back(samples[rng.Uniform(samples.size())].vertex);
    }
    for (int i = 0; i < 2; ++i) {
      q.times.push_back(samples[rng.Uniform(samples.size())].time_s);
    }
    // Keywords mix the seed's terms with vocabulary noise (matching the
    // two-domain workload generator) — full seed keyword sets would give
    // the textual domain unrealistically perfect selectivity.
    const auto& seed_keys = db.store().KeywordsOf(seed).terms();
    std::vector<TermId> keys;
    for (int i = 0; i < 5; ++i) {
      if (!seed_keys.empty() && !rng.Bernoulli(0.3)) {
        keys.push_back(seed_keys[rng.Uniform(seed_keys.size())]);
      } else {
        keys.push_back(static_cast<TermId>(rng.Uniform(1000)));
      }
    }
    q.keywords = KeywordSet(std::move(keys));
    out.push_back(std::move(q));
  }
  return out;
}

void AddTemporalRow(JsonReport* report, double wt, const char* algorithm,
                    const QueryStats& stats, const LatencyHistogram& hist,
                    double n) {
  report->AddRow()
      .Set("weight_temporal", wt)
      .Set("algorithm", algorithm)
      .Set("avg_ms", stats.elapsed_ms / n)
      .Set("avg_visited", stats.visited_trajectories / n)
      .Set("p50_ms", hist.PercentileMs(50.0))
      .Set("p95_ms", hist.PercentileMs(95.0))
      .Set("p99_ms", hist.PercentileMs(99.0))
      .Set("max_ms", static_cast<double>(hist.max_ns()) / 1e6);
}

void Run() {
  auto db = LoadCity(City::kBRN);
  PrintBanner("F7 three-domain temporal extension, BRN", *db);
  JsonReport report("F7 three-domain temporal extension");
  Table table({"wt", "algorithm", "avg ms", "visited"});
  table.PrintHeader();
  UotsSearcher searcher(*db);
  for (double wt : {0.1, 0.3, 0.5}) {
    const auto queries = MakeQueries(*db, wt, 10);
    QueryStats uots_stats, bf_stats;
    LatencyHistogram uots_hist, bf_hist;
    for (const auto& q : queries) {
      auto ru = searcher.Search(q);
      auto rb = BruteForceTemporalSearch(*db, q);
      if (!ru.ok() || !rb.ok()) std::abort();
      uots_stats += ru->stats;
      bf_stats += rb->stats;
      uots_hist.Record(static_cast<int64_t>(ru->stats.elapsed_ms * 1e6));
      bf_hist.Record(static_cast<int64_t>(rb->stats.elapsed_ms * 1e6));
      // Cross-check while we are here: the bench doubles as a validation.
      // Same ids and the same score bits as the brute-force reference.
      if (rb->items.size() != ru->items.size()) std::abort();
      for (size_t i = 0; i < rb->items.size(); ++i) {
        if (rb->items[i].id != ru->items[i].id ||
            rb->items[i].score != ru->items[i].score) {
          std::fprintf(stderr, "MISMATCH at rank %zu\n", i);
          std::abort();
        }
      }
    }
    const double n = static_cast<double>(queries.size());
    table.PrintRow({FormatDouble(wt, 1), "UOTS-3D",
                    FormatDouble(uots_stats.elapsed_ms / n, 2),
                    FormatDouble(uots_stats.visited_trajectories / n, 0)});
    table.PrintRow({FormatDouble(wt, 1), "BF-3D",
                    FormatDouble(bf_stats.elapsed_ms / n, 2),
                    FormatDouble(bf_stats.visited_trajectories / n, 0)});
    table.PrintRule();
    AddTemporalRow(&report, wt, "UOTS-3D", uots_stats, uots_hist, n);
    AddTemporalRow(&report, wt, "BF-3D", bf_stats, bf_hist, n);
  }
  report.WriteFile("BENCH_temporal.json");
}

}  // namespace
}  // namespace bench
}  // namespace uots

int main() {
  uots::bench::Run();
  return 0;
}
