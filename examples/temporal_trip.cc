// Three-domain trip planning (the temporal extension, core/temporal.h,
// answered by UotsSearcher).
//
// A commuter wants a trip that passes near two places, happens around
// 08:00, and matches their interests. The example contrasts the answers
// with and without the temporal domain: without it, an identical route
// driven at midnight ranks the same; with it, the morning trips win.

#include <cstdio>

#include "core/search.h"
#include "core/temporal.h"
#include "net/generators.h"
#include "traj/generator.h"

namespace {

void Print(const char* label, const uots::TemporalSearchResult& r) {
  std::printf("%s\n", label);
  for (const auto& item : r.items) {
    std::printf("  #%-6u score=%.3f spatial=%.3f temporal=%.3f textual=%.3f\n",
                item.id, item.score, item.spatial_sim, item.temporal_sim,
                item.textual_sim);
  }
}

}  // namespace

int main() {
  using namespace uots;

  RingRadialNetworkOptions net_opts;
  net_opts.rings = 20;
  auto network = MakeRingRadialNetwork(net_opts);
  if (!network.ok()) return 1;
  TripGeneratorOptions trip_opts;
  trip_opts.num_trajectories = 4000;
  auto trips = GenerateTrips(*network, trip_opts);
  if (!trips.ok()) return 1;
  TrajectoryDatabase db(std::move(*network), std::move(trips->store),
                        std::move(trips->vocabulary));

  TemporalUotsQuery q;
  q.locations = {2, static_cast<VertexId>(db.network().NumVertices() / 2)};
  q.times = {8 * 3600};  // around eight in the morning
  q.keywords = KeywordSet({db.vocabulary().Lookup("transit_0"),
                           db.vocabulary().Lookup("food_0")});
  q.k = 4;

  UotsSearcher searcher(db);

  q.weight_spatial = 0.5;
  q.weight_temporal = 0.0;
  q.weight_textual = 0.5;
  auto without = searcher.Search(q);
  if (!without.ok()) return 1;
  Print("without temporal preference (ws=0.5, wt=0, wk=0.5):", *without);

  q.weight_spatial = 0.4;
  q.weight_temporal = 0.3;
  q.weight_textual = 0.3;
  auto with = searcher.Search(q);
  if (!with.ok()) return 1;
  Print("\nwith 08:00 preference (ws=0.4, wt=0.3, wk=0.3):", *with);

  std::printf("\nsearch effort with temporal domain: visited %lld, settled "
              "%lld events\n",
              static_cast<long long>(with->stats.visited_trajectories),
              static_cast<long long>(with->stats.settled_vertices));
  return 0;
}
