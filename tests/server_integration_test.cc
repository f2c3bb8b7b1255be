// Loopback integration tests: a real UotsServer on an ephemeral port, real
// BlockingClients over TCP. Covers the acceptance criteria end to end:
// bit-for-bit equivalence with in-process RunQuery, concurrent clients,
// admission-control overload, per-request deadlines, protocol robustness
// against malformed/oversized frames, and graceful shutdown. Retrieval and
// trip requests share one request lifecycle in the server, so the
// lifecycle tests (malformed frame, overload, deadline, drain) run once per
// request kind.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/distance_field_cache.h"
#include "core/batch.h"
#include "core/workload.h"
#include "net/generators.h"
#include "server/client.h"
#include "server/http.h"
#include "server/json.h"
#include "server/server.h"
#include "traj/generator.h"
#include "trip/workload.h"

namespace uots {
namespace {

std::unique_ptr<TrajectoryDatabase> MakeTestDb() {
  GridNetworkOptions net_opts;
  net_opts.rows = 18;
  net_opts.cols = 18;
  net_opts.seed = 21;
  auto network = MakeGridNetwork(net_opts);
  EXPECT_TRUE(network.ok());
  TripGeneratorOptions trip_opts;
  trip_opts.num_trajectories = 250;
  trip_opts.vocabulary_size = 120;
  trip_opts.seed = 22;
  auto trips = GenerateTrips(*network, trip_opts);
  EXPECT_TRUE(trips.ok());
  return std::make_unique<TrajectoryDatabase>(std::move(*network),
                                              std::move(trips->store),
                                              std::move(trips->vocabulary));
}

/// Server + loop thread with RAII shutdown, bound to an ephemeral port.
class ServerFixture {
 public:
  explicit ServerFixture(const TrajectoryDatabase& db,
                         ServerOptions opts = {}) {
    opts.port = 0;  // ephemeral: tests must never collide on a fixed port
    server_ = std::make_unique<UotsServer>(db, opts);
    Status st = server_->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
    thread_ = std::thread([this] { server_->Run(); });
  }

  ~ServerFixture() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      server_->RequestShutdown();
      thread_.join();
    }
  }

  uint16_t port() const { return server_->port(); }
  UotsServer& server() { return *server_; }

 private:
  std::unique_ptr<UotsServer> server_;
  std::thread thread_;
};

std::vector<UotsQuery> MakeQueries(const TrajectoryDatabase& db, int n) {
  WorkloadOptions wopts;
  wopts.num_queries = n;
  wopts.num_locations = 4;
  wopts.k = 5;
  wopts.seed = 33;
  auto queries = MakeWorkload(db, wopts);
  EXPECT_TRUE(queries.ok());
  return std::move(*queries);
}

/// The request kinds served through the shared lifecycle.
enum class Kind { kQuery, kTrip };
constexpr Kind kKinds[] = {Kind::kQuery, Kind::kTrip};
const char* KindName(Kind k) { return k == Kind::kTrip ? "trip" : "query"; }

/// Workloads of both kinds over one database.
struct Workloads {
  std::vector<UotsQuery> queries;
  std::vector<TripQuery> trips;
};

Workloads MakeWorkloads(const TrajectoryDatabase& db, int n) {
  TripWorkloadOptions topts;
  topts.num_queries = n;
  topts.num_locations = 3;
  topts.k = 2;
  topts.seed = 34;
  auto trips = MakeTripWorkload(db, topts);
  EXPECT_TRUE(trips.ok());
  return Workloads{MakeQueries(db, n), std::move(*trips)};
}

/// One request of either kind.
struct KindRequest {
  Kind kind;
  QueryRequest query;
  TripRequest trip;

  std::string Json() const {
    return kind == Kind::kTrip ? EncodeTripRequest(trip)
                               : EncodeQueryRequest(query);
  }
  Status SendOn(BlockingClient& c) const {
    return kind == Kind::kTrip ? c.Send(trip) : c.Send(query);
  }
};

/// Request `id` of `kind` over workload item `i` (modulo its size).
KindRequest MakeRequest(Kind kind, const Workloads& w, size_t i, int64_t id,
                        double deadline_ms = 0.0) {
  KindRequest r{kind, {}, {}};
  r.query.id = r.trip.id = id;
  r.query.deadline_ms = r.trip.deadline_ms = deadline_ms;
  r.query.query = w.queries[i % w.queries.size()];
  r.trip.query = w.trips[i % w.trips.size()];
  return r;
}

/// A reply reduced to the fields every kind shares.
template <class Response>
Result<ResponseCommon> Common(Result<Response> r) {
  if (!r.ok()) return r.status();
  return static_cast<ResponseCommon&>(*r);
}

/// Decodes `payload`, or receives the next reply, as `kind`'s response.
Result<ResponseCommon> ParseAs(Kind kind, std::string_view payload) {
  return kind == Kind::kTrip ? Common(ParseTripResponse(payload))
                             : Common(ParseQueryResponse(payload));
}
Result<ResponseCommon> ReceiveAs(BlockingClient& c, Kind kind) {
  return kind == Kind::kTrip ? Common(c.ReceiveTrip()) : Common(c.Receive());
}

Result<ResponseCommon> CallAs(BlockingClient& c, const KindRequest& req) {
  Status st = req.SendOn(c);
  if (!st.ok()) return st;
  return ReceiveAs(c, req.kind);
}

TEST(ServerIntegrationTest, ResultsMatchInProcessBitForBit) {
  auto db = MakeTestDb();
  ServerFixture fx(*db);
  const auto queries = MakeQueries(*db, 12);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  for (AlgorithmKind kind :
       {AlgorithmKind::kUots, AlgorithmKind::kBruteForce,
        AlgorithmKind::kTextFirst}) {
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryRequest req;
      req.id = static_cast<int64_t>(i);
      req.query = queries[i];
      req.algorithm = kind;
      req.has_algorithm = true;
      auto remote = client.Call(req);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      ASSERT_TRUE(remote->ok()) << remote->error;
      EXPECT_EQ(remote->id, static_cast<int64_t>(i));

      QueryOptions local_opts;
      local_opts.algorithm = kind;
      auto local = RunQuery(*db, queries[i], local_opts);
      ASSERT_TRUE(local.ok());

      ASSERT_EQ(remote->results.size(), local->items.size())
          << ToString(kind) << " query " << i;
      for (size_t j = 0; j < local->items.size(); ++j) {
        EXPECT_EQ(remote->results[j].id, local->items[j].id);
        // Bitwise equality, not near-equality: the wire protocol's doubles
        // must survive the round trip exactly.
        EXPECT_EQ(remote->results[j].score, local->items[j].score);
        EXPECT_EQ(remote->results[j].spatial_sim, local->items[j].spatial_sim);
        EXPECT_EQ(remote->results[j].textual_sim, local->items[j].textual_sim);
      }
      EXPECT_TRUE(remote->has_stats);
    }
  }
}

TEST(ServerIntegrationTest, ConcurrentClientsAllGetCorrectAnswers) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.service.threads = 4;
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 8);

  // Precompute expected answers in-process.
  std::vector<std::vector<ScoredTrajectory>> expected;
  for (const auto& q : queries) {
    auto local = RunQuery(*db, q);
    ASSERT_TRUE(local.ok());
    expected.push_back(local->items);
  }

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      BlockingClient client;
      if (!client.Connect("127.0.0.1", fx.port()).ok()) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const size_t qi = static_cast<size_t>(t + r) % queries.size();
        QueryRequest req;
        req.id = t * 1000 + r;
        req.query = queries[qi];
        auto resp = client.Call(req);
        if (!resp.ok() || !resp->ok() || resp->id != t * 1000 + r ||
            resp->results.size() != expected[qi].size()) {
          ++failures;
          continue;
        }
        for (size_t j = 0; j < expected[qi].size(); ++j) {
          if (resp->results[j].id != expected[qi][j].id ||
              resp->results[j].score != expected[qi][j].score) {
            ++failures;
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerIntegrationTest, PipelinedRequestsAreEachAnsweredOnceById) {
  auto db = MakeTestDb();
  ServerFixture fx(*db);
  const auto queries = MakeQueries(*db, 5);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  // Queue every request before reading a single response.
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryRequest req;
    req.id = static_cast<int64_t>(100 + i);
    req.query = queries[i];
    ASSERT_TRUE(client.Send(req).ok());
  }
  // Responses come back in completion order (workers finish in any
  // order), so they are matched to requests by id: every id exactly once.
  std::map<int64_t, QueryResponse> answers;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    const int64_t id = resp->id;
    EXPECT_TRUE(answers.emplace(id, std::move(*resp)).second)
        << "id " << id << " answered twice";
  }
  ASSERT_EQ(answers.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto it = answers.find(static_cast<int64_t>(100 + i));
    ASSERT_NE(it, answers.end()) << "id " << 100 + i << " never answered";
    ASSERT_TRUE(it->second.ok()) << it->second.error;
    auto local = RunQuery(*db, queries[i]);
    ASSERT_TRUE(local.ok());
    // ScoredTrajectory equality is exact: every score bit.
    EXPECT_EQ(it->second.results, local->items) << "query " << i;
  }
}

TEST(ServerIntegrationTest, MalformedFrameGetsErrorAndConnectionSurvives) {
  auto db = MakeTestDb();
  ServerFixture fx(*db);
  const Workloads w = MakeWorkloads(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  for (const Kind kind : kKinds) {
    SCOPED_TRACE(KindName(kind));
    const KindRequest good = MakeRequest(kind, w, 0, 1);

    // BlockingClient only sends well-formed requests, so drive the
    // malformed frame through a raw socket.
    struct RawConn {
      int fd = -1;
      ~RawConn() {
        if (fd >= 0) ::close(fd);
      }
    };
    RawConn raw;
    raw.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(raw.fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(raw.fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string bad_frame = EncodeFrame("{not json");
    ASSERT_EQ(::send(raw.fd, bad_frame.data(), bad_frame.size(), 0),
              static_cast<ssize_t>(bad_frame.size()));
    // Read the error response frame off the raw socket.
    FrameDecoder dec;
    std::string payload;
    char buf[4096];
    for (;;) {
      if (dec.Poll(&payload) == FrameDecoder::Next::kFrame) break;
      const ssize_t n = ::recv(raw.fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "server dropped the connection on malformed JSON";
      dec.Append(buf, static_cast<size_t>(n));
    }
    auto err = ParseAs(kind, payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->status, ResponseStatus::kParseError);

    // Same raw connection: a valid request must still be served.
    const std::string good_frame = EncodeFrame(good.Json());
    ASSERT_EQ(::send(raw.fd, good_frame.data(), good_frame.size(), 0),
              static_cast<ssize_t>(good_frame.size()));
    for (;;) {
      if (dec.Poll(&payload) == FrameDecoder::Next::kFrame) break;
      const ssize_t n = ::recv(raw.fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "connection did not survive the malformed frame";
      dec.Append(buf, static_cast<size_t>(n));
    }
    auto ok_resp = ParseAs(kind, payload);
    ASSERT_TRUE(ok_resp.ok());
    EXPECT_TRUE(ok_resp->ok()) << ok_resp->error;

    // And the unrelated client was never disturbed.
    auto main_resp = CallAs(client, good);
    ASSERT_TRUE(main_resp.ok());
    EXPECT_TRUE(main_resp->ok());
  }
}

TEST(ServerIntegrationTest, OversizedFrameGetsErrorAndConnectionSurvives) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.max_frame_bytes = 256;
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  // A request whose JSON blows past 256 bytes: pad the keyword list.
  QueryRequest big;
  big.id = 5;
  big.query = queries[0];
  std::vector<TermId> many;
  for (TermId t = 0; t < 300; ++t) many.push_back(t);
  big.query.keywords = KeywordSet(std::move(many));
  ASSERT_GT(EncodeQueryRequest(big).size(), 256u);

  ASSERT_TRUE(client.Send(big).ok());
  auto err = client.Receive();
  ASSERT_TRUE(err.ok()) << "server dropped the connection on oversize";
  EXPECT_EQ(err->status, ResponseStatus::kParseError);

  // The connection resynchronized: a small request still succeeds.
  QueryRequest good;
  good.id = 6;
  good.query = queries[0];
  auto resp = client.Call(good);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->ok()) << resp->error;
  EXPECT_EQ(resp->id, 6);
}

TEST(ServerIntegrationTest, OverloadRejectsWithRetryableStatus) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.service.threads = 1;
  opts.service.max_inflight = 1;  // one admitted request at a time
  ServerFixture fx(*db, opts);
  const Workloads w = MakeWorkloads(*db, 4);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  for (const Kind kind : kKinds) {
    SCOPED_TRACE(KindName(kind));
    // Burst: pipeline far more than the server may admit. With capacity 1,
    // at least one request must be rejected as overloaded, and every frame
    // still gets exactly one response (nothing is silently dropped).
    constexpr int kBurst = 24;
    for (int i = 0; i < kBurst; ++i) {
      ASSERT_TRUE(MakeRequest(kind, w, static_cast<size_t>(i), i)
                      .SendOn(client)
                      .ok());
    }
    int ok = 0, overloaded = 0;
    for (int i = 0; i < kBurst; ++i) {
      auto resp = ReceiveAs(client, kind);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      if (resp->ok()) {
        ++ok;
      } else {
        ASSERT_EQ(resp->status, ResponseStatus::kOverloaded);
        EXPECT_TRUE(resp->retryable());
        ++overloaded;
      }
    }
    EXPECT_EQ(ok + overloaded, kBurst);
    EXPECT_GE(ok, 1) << "admission rejected everything";
    EXPECT_GE(overloaded, 1) << "burst of 24 at capacity 1 never overloaded";
  }
}

TEST(ServerIntegrationTest, DeadlineExceededReturnsTimeoutNotHang) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.service.threads = 1;
  ServerFixture fx(*db, opts);
  const Workloads w = MakeWorkloads(*db, 2);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  for (const Kind kind : kKinds) {
    SCOPED_TRACE(KindName(kind));
    // An absurdly small deadline: the response must be a prompt timeout.
    // Retrieval runs the slowest engine against 10 us; the trip deadline
    // (1 ns) has always passed by the time a worker picks the request up,
    // so the in-queue check answers it deterministically.
    KindRequest req =
        MakeRequest(kind, w, 0, 77, kind == Kind::kTrip ? 1e-6 : 0.01);
    req.query.algorithm = AlgorithmKind::kBruteForce;
    req.query.has_algorithm = true;
    auto resp = CallAs(client, req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, ResponseStatus::kDeadlineExceeded);
    EXPECT_EQ(resp->id, 77);

    // The connection is still usable for a normal request afterwards.
    auto resp2 = CallAs(client, MakeRequest(kind, w, 1, 78));
    ASSERT_TRUE(resp2.ok());
    EXPECT_TRUE(resp2->ok()) << resp2->error;
  }
}

TEST(ServerIntegrationTest, CachedRepeatIsBitIdenticalAndFlagged) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.service.cache_max_entries = 64;
  opts.service.uots.distance_cache = std::make_shared<DistanceFieldCache>();
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 4);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  for (size_t i = 0; i < queries.size(); ++i) {
    QueryOptions local_opts;
    auto local = RunQuery(*db, queries[i], local_opts);
    ASSERT_TRUE(local.ok());

    QueryRequest req;
    req.id = static_cast<int64_t>(i * 2);
    req.query = queries[i];
    auto first = client.Call(req);
    ASSERT_TRUE(first.ok() && first->ok());
    EXPECT_FALSE(first->cached) << "first sighting cannot be a cache hit";

    req.id = static_cast<int64_t>(i * 2 + 1);
    auto second = client.Call(req);
    ASSERT_TRUE(second.ok() && second->ok());
    EXPECT_TRUE(second->cached) << "identical repeat must hit the cache";
    EXPECT_TRUE(second->has_stats);

    // Both answers match the in-process run bit for bit.
    for (const auto* resp : {&first.value(), &second.value()}) {
      ASSERT_EQ(resp->results.size(), local->items.size());
      for (size_t j = 0; j < local->items.size(); ++j) {
        EXPECT_EQ(resp->results[j].id, local->items[j].id);
        EXPECT_EQ(resp->results[j].score, local->items[j].score);
        EXPECT_EQ(resp->results[j].spatial_sim, local->items[j].spatial_sim);
        EXPECT_EQ(resp->results[j].textual_sim, local->items[j].textual_sim);
      }
    }
  }
  fx.Stop();
  EXPECT_EQ(fx.server().counters().cache_hits,
            static_cast<int64_t>(queries.size()));
}

TEST(ServerIntegrationTest, BypassSkipsTheResultCache) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.service.cache_max_entries = 64;
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  QueryRequest req;
  req.id = 1;
  req.query = queries[0];
  auto warm = client.Call(req);  // populates the cache
  ASSERT_TRUE(warm.ok() && warm->ok());

  req.id = 2;
  req.cache = CacheMode::kBypass;
  auto bypass = client.Call(req);
  ASSERT_TRUE(bypass.ok() && bypass->ok());
  EXPECT_FALSE(bypass->cached) << "bypass must recompute";
  // Recomputation agrees with the cached answer bit for bit.
  ASSERT_EQ(bypass->results.size(), warm->results.size());
  for (size_t j = 0; j < warm->results.size(); ++j) {
    EXPECT_EQ(bypass->results[j].id, warm->results[j].id);
    EXPECT_EQ(bypass->results[j].score, warm->results[j].score);
  }

  req.id = 3;
  req.cache = CacheMode::kDefault;
  auto hit = client.Call(req);
  ASSERT_TRUE(hit.ok() && hit->ok());
  EXPECT_TRUE(hit->cached) << "the entry must still be there after a bypass";
}

TEST(ServerIntegrationTest, EvictionCycleStaysCorrect) {
  auto db = MakeTestDb();
  ServerOptions opts;
  // A one-entry, one-shard cache: alternating two queries evicts on every
  // request, exercising the insert/evict/lookup cycle end to end.
  opts.service.cache_max_entries = 1;
  opts.service.cache_shards = 1;
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 2);

  std::vector<std::vector<ScoredTrajectory>> expected;
  for (const auto& q : queries) {
    auto local = RunQuery(*db, q);
    ASSERT_TRUE(local.ok());
    expected.push_back(local->items);
  }

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  int64_t id = 0;
  for (int round = 0; round < 3; ++round) {
    for (size_t qi = 0; qi < 2; ++qi) {
      QueryRequest req;
      req.id = ++id;
      req.query = queries[qi];
      auto resp = client.Call(req);
      ASSERT_TRUE(resp.ok() && resp->ok());
      EXPECT_FALSE(resp->cached) << "evicted entry served as a hit";
      ASSERT_EQ(resp->results.size(), expected[qi].size());
      for (size_t j = 0; j < expected[qi].size(); ++j) {
        EXPECT_EQ(resp->results[j].id, expected[qi][j].id);
        EXPECT_EQ(resp->results[j].score, expected[qi][j].score);
      }
    }
  }
  // Back-to-back repeats of the same query DO hit the surviving entry.
  QueryRequest req;
  req.id = ++id;
  req.query = queries[1];
  auto repeat = client.Call(req);
  ASSERT_TRUE(repeat.ok() && repeat->ok());
  EXPECT_TRUE(repeat->cached);

  ASSERT_NE(fx.server().service().result_cache(), nullptr);
  const ResultCache::Stats s = fx.server().service().result_cache()->stats();
  EXPECT_GE(s.evictions, 5);
  EXPECT_EQ(s.entries, 1);
}

TEST(ServerIntegrationTest, GracefulShutdownDrainsAndStops) {
  auto db = MakeTestDb();
  ServerFixture fx(*db);
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  QueryRequest req;
  req.id = 1;
  req.query = queries[0];
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp->ok());

  fx.Stop();  // RequestShutdown + join: must terminate, not hang

  // New connections are refused after shutdown.
  BlockingClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", fx.port()).ok());
  EXPECT_EQ(fx.server().counters().responses_ok, 1);
}

TEST(ServerIntegrationTest, RequestsDuringDrainGetShuttingDown) {
  auto db = MakeTestDb();
  const Workloads w = MakeWorkloads(*db, 1);
  for (const Kind kind : kKinds) {
    SCOPED_TRACE(KindName(kind));
    ServerFixture fx(*db);
    BlockingClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
    // Make sure the connection is established server-side first.
    ASSERT_TRUE(CallAs(client, MakeRequest(kind, w, 0, 0)).ok());

    // Race a request against shutdown: the server may answer ok (if it ran
    // before the drain flag), answer shutting_down, or close the connection
    // (if drain finished first) — but it must never hang.
    ASSERT_TRUE(MakeRequest(kind, w, 0, 1).SendOn(client).ok());
    fx.server().RequestShutdown();
    auto resp = ReceiveAs(client, kind);
    if (resp.ok()) {
      EXPECT_TRUE(resp->ok() || resp->status == ResponseStatus::kShuttingDown)
          << ToString(resp->status);
    }
    fx.Stop();
  }
}

// --- admin plane -----------------------------------------------------------

ServerOptions WithAdmin(ServerOptions opts = {}) {
  opts.admin.port = 0;  // ephemeral, like the query port
  return opts;
}

/// One admin-plane GET; fails the test on transport errors.
HttpFetchResult AdminGet(uint16_t admin_port, const std::string& path,
                         const std::string& method = "GET") {
  auto fetched = HttpFetch("127.0.0.1", admin_port, path, method);
  EXPECT_TRUE(fetched.ok()) << path << ": " << fetched.status().ToString();
  return fetched.ok() ? *fetched : HttpFetchResult{};
}

TEST(AdminIntegrationTest, MetricsServeLiveAndStayMonotonicUnderLoad) {
  auto db = MakeTestDb();
  ServerOptions opts = WithAdmin();
  opts.service.threads = 2;
  ServerFixture fx(*db, opts);
  const uint16_t admin_port = fx.server().admin_port();
  ASSERT_GT(admin_port, 0);
  const auto queries = MakeQueries(*db, 8);

  // Counters are served before the first request ever arrives.
  auto first = AdminGet(admin_port, "/metrics");
  ASSERT_EQ(first.status, 200);
  double requests_before = -1.0;
  ASSERT_TRUE(promtext::FindValue(first.body, "uots_server_requests_total",
                                  &requests_before));
  EXPECT_DOUBLE_EQ(requests_before, 0.0);
  // The latency histogram lives in the process-global metrics registry, so
  // other tests in this binary may already have populated it: diff it.
  double latency_count_before = 0.0;
  promtext::FindValue(first.body, "uots_server_request_latency_seconds_count",
                      &latency_count_before);

  // Scrape concurrently with query load; every sample must be monotone.
  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 15;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      BlockingClient client;
      if (!client.Connect("127.0.0.1", fx.port()).ok()) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        QueryRequest req;
        req.id = t * 100 + r;
        req.query = queries[static_cast<size_t>(t + r) % queries.size()];
        auto resp = client.Call(req);
        if (!resp.ok() || !resp->ok()) ++failures;
      }
    });
  }
  double last_requests = 0.0;
  auto prev_buckets = promtext::ParseHistogramBuckets(
      first.body, "uots_server_request_latency_seconds");
  for (int scrape = 0; scrape < 5; ++scrape) {
    const auto mid = AdminGet(admin_port, "/metrics");
    ASSERT_EQ(mid.status, 200);
    double v = 0.0;
    ASSERT_TRUE(
        promtext::FindValue(mid.body, "uots_server_requests_total", &v));
    EXPECT_GE(v, last_requests) << "requests_total went backwards";
    last_requests = v;
    const auto buckets = promtext::ParseHistogramBuckets(
        mid.body, "uots_server_request_latency_seconds");
    if (!prev_buckets.empty() && buckets.size() == prev_buckets.size()) {
      for (size_t i = 0; i < buckets.size(); ++i) {
        EXPECT_GE(buckets[i].cumulative, prev_buckets[i].cumulative)
            << "bucket le=" << buckets[i].le_seconds << " went backwards";
      }
    }
    prev_buckets = buckets;
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  // After the load has fully drained, the scrape is exact, not eventual:
  // cache metrics are published at scrape time.
  const auto after = AdminGet(admin_port, "/metrics");
  double requests_after = 0.0, latency_count = 0.0;
  ASSERT_TRUE(promtext::FindValue(after.body, "uots_server_requests_total",
                                  &requests_after));
  EXPECT_DOUBLE_EQ(requests_after,
                   static_cast<double>(kClients * kRequestsPerClient));
  ASSERT_TRUE(promtext::FindValue(
      after.body, "uots_server_request_latency_seconds_count",
      &latency_count));
  EXPECT_DOUBLE_EQ(latency_count - latency_count_before,
                   static_cast<double>(kClients * kRequestsPerClient));
}

TEST(AdminIntegrationTest, StatuszReportsDatasetAndServerState) {
  auto db = MakeTestDb();
  ServerFixture fx(*db, WithAdmin());
  const uint16_t admin_port = fx.server().admin_port();
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  QueryRequest req;
  req.id = 1;
  req.query = queries[0];
  ASSERT_TRUE(client.Call(req).ok());

  const auto page = AdminGet(admin_port, "/statusz");
  ASSERT_EQ(page.status, 200);
  auto root = ParseJson(page.body);
  ASSERT_TRUE(root.ok()) << root.status().ToString();

  const JsonValue* dataset = root->Find("dataset");
  ASSERT_NE(dataset, nullptr);
  EXPECT_EQ(dataset->Find("vertices")->number_value(), 18 * 18);
  EXPECT_EQ(dataset->Find("trajectories")->number_value(), 250);
  EXPECT_EQ(dataset->Find("fingerprint")->string_value().substr(0, 2), "0x");

  const JsonValue* srv = root->Find("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(srv->Find("port")->number_value(), fx.port());
  EXPECT_EQ(srv->Find("admin_port")->number_value(), admin_port);
  EXPECT_FALSE(srv->Find("draining")->bool_value());

  const JsonValue* counters = root->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->Find("requests")->number_value(), 1.0);
  EXPECT_GE(root->Find("uptime_seconds")->number_value(), 0.0);
}

TEST(AdminIntegrationTest, HealthzFlipsToNotReadyDuringDrain) {
  // A larger city than MakeTestDb(): each brute-force query must take long
  // enough that a backlog of them holds the drain open for a comfortable
  // probe window even on a loaded machine.
  GridNetworkOptions net_opts;
  net_opts.rows = 40;
  net_opts.cols = 40;
  net_opts.seed = 23;
  auto network = MakeGridNetwork(net_opts);
  ASSERT_TRUE(network.ok());
  TripGeneratorOptions trip_opts;
  trip_opts.num_trajectories = 2000;
  trip_opts.vocabulary_size = 160;
  trip_opts.seed = 24;
  auto trips = GenerateTrips(*network, trip_opts);
  ASSERT_TRUE(trips.ok());
  auto db = std::make_unique<TrajectoryDatabase>(std::move(*network),
                                                 std::move(trips->store),
                                                 std::move(trips->vocabulary));

  ServerOptions opts = WithAdmin();
  opts.service.threads = 1;  // serialize execution to hold the drain open
  opts.service.max_inflight = 4096;  // admit the whole backlog
  ServerFixture fx(*db, opts);
  const uint16_t admin_port = fx.server().admin_port();
  const auto queries = MakeQueries(*db, 4);

  const auto ready = AdminGet(admin_port, "/healthz");
  EXPECT_EQ(ready.status, 200);
  EXPECT_EQ(ready.body, "ok\n");

  // Pipeline a pile of slow (brute-force) queries without reading a single
  // response, then start the drain: the admitted backlog keeps the server
  // draining long enough to observe the not-ready flip.
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  constexpr int kBacklog = 600;
  for (int i = 0; i < kBacklog; ++i) {
    QueryRequest req;
    req.id = i;
    req.query = queries[static_cast<size_t>(i) % queries.size()];
    req.algorithm = AlgorithmKind::kBruteForce;
    req.has_algorithm = true;
    ASSERT_TRUE(client.Send(req).ok());
  }
  // The burst is only wire bytes until the reactor reads and admits it —
  // shutting down before that would reject everything instantly and close
  // the drain window we are trying to observe. Wait until /statusz shows a
  // deep executor queue before pulling the trigger.
  bool queued = false;
  for (int attempt = 0; attempt < 2000 && !queued; ++attempt) {
    const auto statusz = AdminGet(admin_port, "/statusz");
    ASSERT_EQ(statusz.status, 200);
    auto root = ParseJson(statusz.body);
    ASSERT_TRUE(root.ok());
    queued = root->Find("server")->Find("executor_queue_depth")
                 ->number_value() >= kBacklog / 2;
  }
  ASSERT_TRUE(queued) << "backlog never reached the executor queue";
  fx.server().RequestShutdown();

  bool saw_draining = false;
  for (int attempt = 0; attempt < 2000 && !saw_draining; ++attempt) {
    auto probe = HttpFetch("127.0.0.1", admin_port, "/healthz");
    if (!probe.ok()) break;  // drain finished, admin closed
    if (probe->status == 503) {
      EXPECT_EQ(probe->body, "draining\n");
      saw_draining = true;
    }
  }
  EXPECT_TRUE(saw_draining)
      << "admin plane never reported 503 while the server drained";
  fx.Stop();
}

TEST(AdminIntegrationTest, RequestIdsEchoByteForByte) {
  auto db = MakeTestDb();
  ServerFixture fx(*db, WithAdmin());
  const auto queries = MakeQueries(*db, 2);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  // Client-supplied id comes back verbatim.
  QueryRequest req;
  req.id = 1;
  req.request_id = "trip-planner/42 [shard_7]";
  req.query = queries[0];
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok() && resp->ok());
  EXPECT_EQ(resp->request_id, "trip-planner/42 [shard_7]");

  // Without one, the server generates a unique id of its documented shape.
  QueryRequest anon;
  anon.id = 2;
  anon.query = queries[0];
  auto first = client.Call(anon);
  anon.id = 3;
  auto second = client.Call(anon);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_FALSE(first->request_id.empty());
  EXPECT_EQ(first->request_id[0], 's');
  EXPECT_NE(first->request_id.find('-'), std::string::npos);
  EXPECT_NE(first->request_id, second->request_id);

  // Error responses carry the id too.
  QueryRequest dl;
  dl.id = 4;
  dl.request_id = "deadline-probe";
  dl.query = queries[1];
  dl.algorithm = AlgorithmKind::kBruteForce;
  dl.has_algorithm = true;
  dl.deadline_ms = 0.01;
  auto timed_out = client.Call(dl);
  ASSERT_TRUE(timed_out.ok());
  EXPECT_EQ(timed_out->status, ResponseStatus::kDeadlineExceeded);
  EXPECT_EQ(timed_out->request_id, "deadline-probe");
}

TEST(AdminIntegrationTest, SlowQueryLogRecordsPhaseBreakdown) {
  auto db = MakeTestDb();
  ServerFixture fx(*db, WithAdmin());
  const uint16_t admin_port = fx.server().admin_port();
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  QueryRequest req;
  req.id = 9;
  req.request_id = "slow-marker";
  req.query = queries[0];
  req.algorithm = AlgorithmKind::kBruteForce;  // deliberately slow
  req.has_algorithm = true;
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok() && resp->ok());

  const auto page = AdminGet(admin_port, "/slowqueries");
  ASSERT_EQ(page.status, 200);
  auto root = ParseJson(page.body);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_GE(root->Find("added")->number_value(), 1.0);

  const JsonValue* recent = root->Find("recent");
  ASSERT_NE(recent, nullptr);
  const JsonValue* entry = nullptr;
  for (const JsonValue& e : recent->array_items()) {
    if (e.Find("request_id")->string_value() == "slow-marker") entry = &e;
  }
  ASSERT_NE(entry, nullptr) << "slow query missing from /slowqueries";
  EXPECT_EQ(entry->Find("algorithm")->string_value(), "BF");
  EXPECT_EQ(entry->Find("status")->string_value(), "ok");
  EXPECT_NE(entry->Find("query")->string_value().find("locs=4"),
            std::string::npos);
  EXPECT_GT(entry->Find("total_ms")->number_value(), 0.0);
  const JsonValue* stats = entry->Find("stats");
  ASSERT_NE(stats, nullptr);
  const JsonValue* phases = stats->Find("phase_ms");
  ASSERT_NE(phases, nullptr) << "per-phase breakdown missing";
  EXPECT_FALSE(phases->object_items().empty());
}

TEST(AdminIntegrationTest, MalformedAdminHttpDoesNotDisturbQueries) {
  auto db = MakeTestDb();
  ServerFixture fx(*db, WithAdmin());
  const uint16_t admin_port = fx.server().admin_port();
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  QueryRequest req;
  req.id = 1;
  req.query = queries[0];
  ASSERT_TRUE(client.Call(req).ok());

  struct RawConn {
    int fd = -1;
    ~RawConn() {
      if (fd >= 0) ::close(fd);
    }
    bool Connect(uint16_t port) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      return ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0;
    }
    std::string Transact(const std::string& bytes) {
      EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
                static_cast<ssize_t>(bytes.size()));
      std::string got;
      char buf[4096];
      for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;  // admin closes after every response
        got.append(buf, static_cast<size_t>(n));
      }
      return got;
    }
  };

  // A query-protocol client that dialed the wrong port gets a clean 400.
  RawConn garbage;
  ASSERT_TRUE(garbage.Connect(admin_port));
  const std::string got400 =
      garbage.Transact(std::string("\x00\x00\x01\x00", 4) +
                       "{\"id\":1}\r\n\r\n");
  EXPECT_EQ(got400.find("HTTP/1.0 400"), 0u) << got400.substr(0, 64);

  // Oversized header block gets 431 even without a terminator.
  RawConn huge;
  ASSERT_TRUE(huge.Connect(admin_port));
  std::string big = "GET /metrics HTTP/1.0\r\nX-Pad: ";
  big.append(kMaxHttpHeaderBytes + 1024, 'a');
  const std::string got431 = huge.Transact(big);
  EXPECT_EQ(got431.find("HTTP/1.0 431"), 0u) << got431.substr(0, 64);

  // Unknown paths and unsupported methods answer without closing the plane.
  EXPECT_EQ(AdminGet(admin_port, "/nope").status, 404);
  EXPECT_EQ(AdminGet(admin_port, "/metrics", "PUT").status, 405);

  // Neither the query connection nor the admin plane was disturbed.
  req.id = 2;
  auto after = client.Call(req);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->ok());
  EXPECT_EQ(AdminGet(admin_port, "/healthz").status, 200);
}

TEST(AdminIntegrationTest, TracingSamplesSpansIntoSlowLog) {
  auto db = MakeTestDb();
  ServerFixture fx(*db, WithAdmin());
  const uint16_t admin_port = fx.server().admin_port();
  const auto queries = MakeQueries(*db, 1);

  // Sampling starts disabled and is settable at runtime over HTTP.
  auto off = AdminGet(admin_port, "/tracing");
  ASSERT_EQ(off.status, 200);
  EXPECT_NE(off.body.find("\"sample_every\":0"), std::string::npos);
  EXPECT_EQ(AdminGet(admin_port, "/tracing", "POST").status, 400)
      << "missing sample= must be rejected";
  auto on = AdminGet(admin_port, "/tracing?sample=1", "POST");
  ASSERT_EQ(on.status, 200);
  EXPECT_NE(on.body.find("\"sample_every\":1"), std::string::npos);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  QueryRequest req;
  req.id = 1;
  req.request_id = "sampled-req";
  req.query = queries[0];
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok() && resp->ok());

  const auto page = AdminGet(admin_port, "/slowqueries");
  ASSERT_EQ(page.status, 200);
  auto root = ParseJson(page.body);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  const JsonValue* entry = nullptr;
  for (const JsonValue& e : root->Find("recent")->array_items()) {
    if (e.Find("request_id")->string_value() == "sampled-req") entry = &e;
  }
  ASSERT_NE(entry, nullptr);
#if UOTS_TRACE
  // Every request is sampled at sample=1: the span tree must be attached.
  const JsonValue* spans = entry->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_FALSE(spans->array_items().empty()) << "no spans captured";
  bool saw_execute = false;
  for (const JsonValue& s : spans->array_items()) {
    if (s.Find("name")->string_value() == "server_execute") saw_execute = true;
    EXPECT_GE(s.Find("dur_us")->number_value(), 0.0);
  }
  EXPECT_TRUE(saw_execute) << "server_execute root span missing";
#else
  EXPECT_TRUE(entry->Find("spans")->array_items().empty());
#endif

  // Turning sampling back off stops capture for later requests.
  ASSERT_EQ(AdminGet(admin_port, "/tracing?sample=0", "POST").status, 200);
  req.id = 2;
  req.request_id = "unsampled-req";
  ASSERT_TRUE(client.Call(req).ok());
  auto page2 = AdminGet(admin_port, "/slowqueries");
  auto root2 = ParseJson(page2.body);
  ASSERT_TRUE(root2.ok());
  for (const JsonValue& e : root2->Find("recent")->array_items()) {
    if (e.Find("request_id")->string_value() == "unsampled-req") {
      EXPECT_TRUE(e.Find("spans")->array_items().empty());
    }
  }
}

}  // namespace
}  // namespace uots
