// Query kinds served over the wire, one compile-time definition each.
//
// A traveler's request has one shape (query locations, keywords, lambda, k)
// and the server answers it in two ways: top-k trajectory retrieval and
// trip assembly. Both run through one request lifecycle — the reactor's
// HandleRequest/OnComplete/Send (server.cc), the service's admission,
// pinning, execution and cache insert (service.cc), and the shared wire
// codec (protocol.cc). Every step that differs by kind asks the kind's
// traits below: its types, parse, cache key, pooled engine, encode,
// slow-log summary and request counter. The shared bodies are templates
// over these structs; there is no virtual dispatch and no registry.
//
// Ingest is not a kind: it is a single-writer apply on the reactor with no
// pool, cache or deadline (UotsServer::HandleIngest).

#ifndef UOTS_SERVER_REQUEST_KIND_H_
#define UOTS_SERVER_REQUEST_KIND_H_

#include <cstdio>
#include <memory>
#include <string>
#include <variant>

#include "cache/query_key.h"
#include "cache/result_cache.h"
#include "core/algorithm.h"
#include "server/protocol.h"
#include "trip/planner.h"
#include "util/metrics.h"

namespace uots {

/// Slow-log summary prefix shared by every kind: "locs=.. kw=.. lambda=.. k=..".
template <class Query>
std::string SummarizeCommon(const Query& q) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "locs=%zu kw=%zu lambda=%.3g k=%d",
                q.locations.size(), q.keywords.size(), q.lambda, q.k);
  return buf;
}

/// \brief Top-k trajectory retrieval (the paper's UOTS query).
struct RetrievalKind {
  using Request = QueryRequest;
  using Response = QueryResponse;
  using Query = UotsQuery;
  using Answer = SearchResult;
  using Engine = SearchAlgorithm;
  /// Picks the pooled engine and is part of the cache key.
  using EngineKey = AlgorithmKind;

  /// The answer list, as it sits in the engine's answer, a cache entry and
  /// the response.
  static constexpr auto kAnswerList = &SearchResult::items;
  static constexpr auto kCachedList = &CachedResult::items;
  static constexpr auto kResponseList = &QueryResponse::results;
  /// Worker-side span around one execution.
  static constexpr const char* kSpanName = "server_execute";

  static Result<Request> Parse(const JsonValue& doc) {
    return ParseQueryRequest(doc);
  }
  static std::string Encode(const Response& resp) {
    return EncodeQueryResponse(resp);
  }
  static EngineKey KeyOf(const Request& req) {
    return req.has_algorithm ? req.algorithm : AlgorithmKind::kUots;
  }
  static std::string CacheKey(const Query& q, EngineKey key,
                              const UotsSearchOptions& opts, uint64_t salt) {
    return EncodeResultCacheKey(q, key, opts, salt);
  }
  static std::unique_ptr<Engine> MakeEngine(const TrajectoryDatabase& db,
                                            EngineKey key,
                                            const UotsSearchOptions& opts) {
    return CreateAlgorithm(db, key, opts);
  }
  static Result<Answer> Run(Engine& engine, const Query& q) {
    return engine.Search(q);
  }
  /// Kind-specific histograms after one execution (none for retrieval).
  static void RecordMetrics(const Status&, const Answer&, double) {}

  /// Slow-log fields: algorithm column, query summary, segment count.
  static const char* AlgorithmName(EngineKey key) { return ToString(key); }
  static std::string Summarize(const Query& q, EngineKey key) {
    return SummarizeCommon(q) + " algo=" + ToString(key);
  }
  static int Segments(const Response&) { return -1; }

  /// The ServerCounters field counting this kind's parsed requests
  /// (a template so this header needs no server types).
  template <class Counters>
  static int64_t& Counter(Counters& c) {
    return c.requests;
  }
};

/// \brief Trip assembly: connected trips from segments of several
/// trajectories (trip/planner.h).
struct TripKind {
  using Request = TripRequest;
  using Response = TripResponse;
  using Query = TripQuery;
  using Answer = TripResult;
  using Engine = TripPlanner;
  /// Trip planners come in one flavor.
  using EngineKey = std::monostate;

  static constexpr auto kAnswerList = &TripResult::trips;
  static constexpr auto kCachedList = &CachedResult::trips;
  static constexpr auto kResponseList = &TripResponse::trips;
  static constexpr const char* kSpanName = "trip_execute";

  static Result<Request> Parse(const JsonValue& doc) {
    return ParseTripRequest(doc);
  }
  static std::string Encode(const Response& resp) {
    return EncodeTripResponse(resp);
  }
  static EngineKey KeyOf(const Request&) { return {}; }
  static std::string CacheKey(const Query& q, EngineKey,
                              const UotsSearchOptions&, uint64_t salt) {
    return EncodeTripCacheKey(q, salt);
  }
  static std::unique_ptr<Engine> MakeEngine(const TrajectoryDatabase& db,
                                            EngineKey,
                                            const UotsSearchOptions&) {
    return std::make_unique<TripPlanner>(db);
  }
  static Result<Answer> Run(Engine& planner, const Query& q) {
    return planner.Plan(q);
  }
  /// Planner wall time plus its harvest/assemble phase split.
  static void RecordMetrics(const Status& st, const Answer& a,
                            double execute_ms) {
    auto& reg = MetricsRegistry::Global();
    reg.Record("trip.plan", static_cast<int64_t>(execute_ms * 1e6));
    if (!st.ok()) return;
    reg.Record("trip.harvest", a.stats.PhaseNs(QueryPhase::kTripHarvest));
    reg.Record("trip.assemble", a.stats.PhaseNs(QueryPhase::kTripAssemble));
  }

  static const char* AlgorithmName(EngineKey) { return "TRIP"; }
  static std::string Summarize(const Query& q, EngineKey) {
    std::string out = "trip " + SummarizeCommon(q);
    out += q.ordered ? " ordered=1" : " ordered=0";
    out += q.use_categories ? " cat=1" : " cat=0";
    if (q.gap_budget_m > 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " gap=%.3g", q.gap_budget_m);
      out += buf;
    }
    return out;
  }
  /// The best trip's segment count.
  static int Segments(const Response& resp) {
    return resp.trips.empty() ? 0
                              : static_cast<int>(resp.trips[0].segments.size());
  }

  template <class Counters>
  static int64_t& Counter(Counters& c) {
    return c.trip_requests;
  }
};

}  // namespace uots

#endif  // UOTS_SERVER_REQUEST_KIND_H_
