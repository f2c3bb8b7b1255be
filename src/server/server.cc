#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "cache/distance_field_cache.h"
#include "storage/resolver.h"
#include "storage/snapshot_writer.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace uots {

namespace {

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError("fcntl(O_NONBLOCK): " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

/// FNV-1a over the request-id string, folded to a non-negative int64 — the
/// numeric span id that joins a trace span back to its request id.
int64_t HashRequestId(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<int64_t>(h & 0x7fffffffffffffffULL);
}

}  // namespace

UotsServer::UotsServer(std::shared_ptr<const TrajectoryDatabase> db,
                       const ServerOptions& opts)
    : db_(std::move(db)), opts_(opts), ingestor_(db_.get()) {
  service_ = std::make_unique<UotsService>(db_, opts_.service);
}

UotsServer::~UotsServer() {
  if (compact_thread_.joinable()) compact_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

Status UotsServer::Start() {
  UOTS_RETURN_NOT_OK(loop_.Init());
  start_steady_ns_ = EventLoop::NowNs();
  start_unix_ms_ = SlowLogNowUnixMs();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address: " + opts_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError("bind: " + std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, opts_.listen_backlog) < 0) {
    return Status::IOError("listen: " + std::string(std::strerror(errno)));
  }
  UOTS_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  // Recover the actual port (meaningful when opts_.port == 0).
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  UOTS_RETURN_NOT_OK(loop_.AddFd(listen_fd_, EPOLLIN, [this](uint32_t) {
    OnAcceptReady();
  }));

  if (opts_.admin.port >= 0) {
    admin_ = std::make_unique<AdminPlane>(this, opts_.admin);
    UOTS_RETURN_NOT_OK(admin_->Start());
  }
  if (opts_.metrics_publish_interval_ms > 0.0) {
    // Self-rearming publish tick: exported cache/oracle counters stay fresh
    // even when nobody scrapes (they used to appear only at shutdown).
    metrics_timer_ = loop_.AddTimerAfterMs(opts_.metrics_publish_interval_ms,
                                           [this] { RequeueMetricsTimer(); });
  }
  if (!opts_.compact_snapshot_path.empty() && opts_.compact_interval_ms > 0.0) {
    compact_timer_ = loop_.AddTimerAfterMs(opts_.compact_interval_ms, [this] {
      RequeueCompactionTimer();
    });
  }
  return Status::OK();
}

void UotsServer::RequeueCompactionTimer() {
  compact_timer_ = TimerHeap::kInvalidTimer;
  if (draining_ || stop_requested_) return;
  if (ingestor_.delta_trajectories() > 0 && !compacting_) {
    (void)TriggerCompaction();  // failure leaves the delta for the next tick
  }
  compact_timer_ = loop_.AddTimerAfterMs(opts_.compact_interval_ms, [this] {
    RequeueCompactionTimer();
  });
}

void UotsServer::RequeueMetricsTimer() {
  service_->PublishCacheMetrics();
  PublishIngestMetrics();
  metrics_timer_ = loop_.AddTimerAfterMs(opts_.metrics_publish_interval_ms,
                                         [this] { RequeueMetricsTimer(); });
}

void UotsServer::PublishIngestMetrics() const {
  auto& reg = MetricsRegistry::Global();
  reg.SetCounter("server.ingest.accepted", ingestor_.accepted_total());
  reg.SetCounter("server.ingest.rejected", ingestor_.rejected_total());
  reg.SetCounter("server.ingest.batches", ingestor_.batches_total());
  reg.SetCounter("server.ingest.delta_trajectories",
                 static_cast<int64_t>(ingestor_.delta_trajectories()));
  reg.SetCounter("server.ingest.delta_bytes",
                 static_cast<int64_t>(ingestor_.delta_bytes()));
  reg.SetCounter("server.ingest.generation",
                 static_cast<int64_t>(ingestor_.generation()));
}

void UotsServer::Run() { loop_.Run(); }

void UotsServer::RequestShutdown() {
  loop_.Post([this] { BeginShutdown(); });
}

std::string UotsServer::GenerateRequestId(uint64_t conn_id) {
  std::string id = "s";
  id += std::to_string(conn_id);
  id += '-';
  id += std::to_string(next_request_seq_++);
  return id;
}

void UotsServer::RecordSlowLog(const RequestCtx& ctx, const char* status_name,
                               bool cached, double total_ms,
                               double queue_wait_ms, double execute_ms,
                               const QueryStats* stats,
                               std::vector<TraceEvent> spans, int segments) {
  if (admin_ == nullptr) return;
  SlowLogEntry e;
  e.request_id = ctx.request_id_str;
  e.algorithm = ctx.algorithm;
  e.segments = segments;
  e.query_summary = ctx.query_summary;
  e.status = status_name;
  e.cached = cached;
  e.total_ms = total_ms;
  e.queue_wait_ms = queue_wait_ms;
  e.execute_ms = execute_ms;
  e.completed_unix_ms = SlowLogNowUnixMs();
  if (stats != nullptr) {
    e.has_stats = true;
    e.stats = *stats;
  }
  e.spans = std::move(spans);
  admin_->slowlog().Add(std::move(e));
}

void UotsServer::OnAcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient (EMFILE, ECONNABORTED): retry on next readiness
    }
    if (draining_ || conns_.size() >= opts_.max_connections) {
      ++counters_.connections_rejected;
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(id, fd, opts_.max_frame_bytes);
    Connection* raw = conn.get();
    conns_.emplace(id, std::move(conn));
    ++counters_.connections_accepted;

    Status st = loop_.AddFd(fd, EPOLLIN, [this, id](uint32_t events) {
      OnConnEvent(id, events);
    });
    if (!st.ok()) {
      conns_.erase(id);  // closes the fd
      ++counters_.connections_closed;
      continue;
    }
    TouchIdleTimer(raw);
  }
}

Connection* UotsServer::FindConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void UotsServer::OnConnEvent(uint64_t conn_id, uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();

  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConnection(conn_id);
    return;
  }
  if (events & EPOLLOUT) {
    if (conn->Flush() == Connection::IoResult::kClosed) {
      CloseConnection(conn_id);
      return;
    }
    if (conn->close_after_flush && !conn->want_write() &&
        conn->inflight == 0) {
      CloseConnection(conn_id);
      return;
    }
    UpdateWriteInterest(conn);
  }
  if (events & EPOLLIN) {
    const Connection::IoResult r = conn->ReadAvailable();
    TouchIdleTimer(conn);
    // Drain every complete frame before deciding whether to close: the
    // peer may have pipelined requests ahead of its half-close.
    for (;;) {
      std::string payload;
      size_t oversized = 0;
      const FrameDecoder::Next next =
          conn->decoder().Poll(&payload, &oversized);
      if (next == FrameDecoder::Next::kNeedMore) break;
      if (next == FrameDecoder::Next::kOversized) {
        RejectFrame(conn,
                    "frame exceeds maximum size (" +
                        std::to_string(oversized) + " > " +
                        std::to_string(opts_.max_frame_bytes) + " bytes)",
                    &ServerCounters::oversized_frames);
        continue;
      }
      ++conn->stats().frames_in;
      HandleFrame(conn, payload);
      // HandleFrame may have closed the connection (write failure).
      if (conns_.find(conn_id) == conns_.end()) return;
    }
    if (r == Connection::IoResult::kClosed) {
      if (conn->inflight > 0 || conn->want_write()) {
        // Let in-flight responses finish writing, then drop.
        conn->close_after_flush = true;
      } else {
        CloseConnection(conn_id);
      }
      return;
    }
  }
}

void UotsServer::HandleFrame(Connection* conn, std::string_view payload) {
  // Parse the JSON once, then dispatch on the optional "type" field: one
  // connection freely interleaves queries and ingest batches.
  Result<JsonValue> doc = [&payload] {
    UOTS_TRACE_SCOPE("server_parse");
    return ParseJson(payload);
  }();
  if (!doc.ok() || !doc->is_object()) {
    RejectFrame(conn, doc.ok() ? "request must be an object"
                               : doc.status().message());
    return;
  }
  switch (RequestTypeOf(*doc)) {
    case RequestType::kQuery:
      HandleRequest<RetrievalKind>(conn, *doc);
      return;
    case RequestType::kTrip:
      HandleRequest<TripKind>(conn, *doc);
      return;
    case RequestType::kIngest:
      HandleIngest(conn, *doc);
      return;
    case RequestType::kUnknown: {
      const JsonValue* type = doc->Find("type");
      RejectFrame(conn, "unknown request type: " +
                            (type != nullptr && type->is_string()
                                 ? type->string_value()
                                 : std::string("(not a string)")));
      return;
    }
  }
}

void UotsServer::RejectFrame(Connection* conn, const std::string& error,
                             int64_t ServerCounters::*counter) {
  ++(counters_.*counter);
  ++conn->stats().protocol_errors;
  SendError(conn, 0, GenerateRequestId(conn->id()),
            ResponseStatus::kParseError, error);
}

void UotsServer::HandleIngest(Connection* conn, const JsonValue& doc) {
  ++counters_.ingest_requests;
  Result<IngestRequest> parsed = ParseIngestRequest(doc);
  if (!parsed.ok()) {
    ++counters_.ingest_rejected_batches;
    RejectFrame(conn, parsed.status().message());
    return;
  }
  IngestRequest req = std::move(*parsed);
  if (req.request_id.empty()) {
    req.request_id = GenerateRequestId(conn->id());
  }
  IngestResponse resp;
  resp.id = req.id;
  resp.request_id = req.request_id;
  if (draining_) {
    ++counters_.rejected_shutting_down;
    ++counters_.ingest_rejected_batches;
    resp.status = ResponseStatus::kShuttingDown;
    resp.error = "server is shutting down";
    Send<&EncodeIngestResponse>(conn, resp);
    return;
  }

  // Applied inline on the reactor: the Ingestor is single-writer by
  // design, and a batch apply (validate + delta rebuild) is bounded by the
  // batch/delta caps — comparable to the parse that preceded it.
  const int64_t apply_start_ns = EventLoop::NowNs();
  Result<Ingestor::ApplyResult> applied =
      ingestor_.Apply(std::move(req.trajectories));
  if (!applied.ok()) {
    ++counters_.ingest_rejected_batches;
    resp.status = FromStatus(applied.status());
    resp.error = applied.status().message();
    Send<&EncodeIngestResponse>(conn, resp);
    return;
  }
  counters_.ingest_accepted_trips += static_cast<int64_t>(applied->accepted);
  // Every cached answer predates this batch. The live-fingerprint key salt
  // already makes them unreachable; dropping them reclaims the memory now
  // instead of waiting for LRU churn to wash the dead keys out.
  if (service_->result_cache() != nullptr) {
    service_->result_cache()->InvalidateGeneration();
  }
  // (The tier-2 expansion cache survives: ingest adds trajectories, never
  // network vertices, so recorded settle sequences stay exact.)
  resp.status = ResponseStatus::kOk;
  resp.accepted = static_cast<int64_t>(applied->accepted);
  resp.first_traj = static_cast<int64_t>(applied->first_id);
  resp.generation = static_cast<int64_t>(applied->generation);
  resp.delta_trajectories =
      static_cast<int64_t>(ingestor_.delta_trajectories());
  Send<&EncodeIngestResponse>(conn, resp);
  MetricsRegistry::Global().Record("server.ingest.apply",
                                   EventLoop::NowNs() - apply_start_ns);
}

template <class Kind>
void UotsServer::HandleRequest(Connection* conn, const JsonValue& doc) {
  Result<typename Kind::Request> parsed = Kind::Parse(doc);
  if (!parsed.ok()) {
    RejectFrame(conn, parsed.status().message());
    return;
  }
  typename Kind::Request req = std::move(*parsed);
  ++Kind::Counter(counters_);
  const int64_t arrival_ns = EventLoop::NowNs();
  if (req.request_id.empty()) {
    req.request_id = GenerateRequestId(conn->id());
  }

  if (draining_) {
    ++counters_.rejected_shutting_down;
    SendError(conn, req.id, req.request_id, ResponseStatus::kShuttingDown,
              "server is shutting down");
    return;
  }

  const typename Kind::EngineKey key = Kind::KeyOf(req);

  // Result-cache probe, on the reactor thread: a hit answers immediately
  // without touching admission or the thread pool. On a miss the canonical
  // key rides along so the worker populates the cache.
  std::string cache_key;
  if (req.cache != CacheMode::kBypass) {
    if (auto hit = service_->Lookup<Kind>(req.query, key, &cache_key)) {
      ++counters_.cache_hits;
      ++counters_.responses_ok;
      typename Kind::Response resp;
      resp.id = req.id;
      resp.request_id = req.request_id;
      resp.*Kind::kResponseList = (*hit).*Kind::kCachedList;
      resp.has_stats = true;
      resp.stats = hit->stats;
      resp.cached = true;
      Send<&Kind::Encode>(conn, resp);
      const int64_t done_ns = EventLoop::NowNs();
      MetricsRegistry::Global().Record("server.request_latency",
                                       done_ns - arrival_ns);
      if (admin_ != nullptr) {
        RequestCtx ctx;
        ctx.request_id_str = std::move(req.request_id);
        ctx.algorithm = Kind::AlgorithmName(key);
        ctx.query_summary = Kind::Summarize(req.query, key);
        RecordSlowLog(ctx, ToString(ResponseStatus::kOk), /*cached=*/true,
                      static_cast<double>(done_ns - arrival_ns) / 1e6,
                      /*queue_wait_ms=*/0.0, /*execute_ms=*/0.0,
                      &hit->stats, {}, Kind::Segments(resp));
      }
      return;
    }
  }

  auto ctx = std::make_shared<RequestCtx>();
  ctx->conn_id = conn->id();
  ctx->request_id = req.id;
  ctx->request_id_str = req.request_id;
  ctx->algorithm = Kind::AlgorithmName(key);
  if (admin_ != nullptr) {
    ctx->query_summary = Kind::Summarize(req.query, key);
  }
  ctx->arrival_ns = arrival_ns;
  ctx->deadline_ms = req.deadline_ms > 0.0
                         ? req.deadline_ms
                         : opts_.service.default_deadline_ms;
  if (ctx->deadline_ms > 0.0) {
    ctx->token.SetDeadlineAfterMs(ctx->deadline_ms);
  }

  // Runtime trace sampling: capture the span tree of every Nth executed
  // request (POST /tracing?sample=N on the admin plane).
  ExecuteOptions exec_opts;
  exec_opts.span_id = HashRequestId(ctx->request_id_str);
  if (admin_ != nullptr) {
    const int every = admin_->trace_sample_every();
    if (every > 0 && (++trace_sample_counter_ % static_cast<uint64_t>(
                          every)) == 0) {
      exec_opts.capture_spans = true;
    }
  }

  const bool admitted = service_->Execute<Kind>(
      req.query, key, &ctx->token,
      [this, ctx](ExecutionResultOf<Kind> r) {
        // Worker thread: hop back to the loop that owns the connection.
        loop_.Post([this, ctx, r = std::move(r)]() mutable {
          OnComplete<Kind>(ctx, std::move(r));
        });
      },
      std::move(cache_key), exec_opts);
  if (!admitted) {
    if (service_->shutting_down()) {
      ++counters_.rejected_shutting_down;
      SendError(conn, req.id, ctx->request_id_str,
                ResponseStatus::kShuttingDown, "server is shutting down");
    } else {
      ++counters_.rejected_overloaded;
      SendError(conn, req.id, ctx->request_id_str,
                ResponseStatus::kOverloaded,
                "server at capacity (" +
                    std::to_string(opts_.service.max_inflight) +
                    " requests in flight)");
    }
    return;
  }

  ++conn->inflight;
  ++loop_inflight_;
  if (ctx->deadline_ms > 0.0) {
    ctx->deadline_timer =
        loop_.AddTimerAfterMs(ctx->deadline_ms, [this, ctx] {
          OnDeadline(ctx);
        });
  }
}

Status UotsServer::TriggerCompaction() {
  if (opts_.compact_snapshot_path.empty()) {
    return Status::InvalidArgument("no compaction snapshot path configured");
  }
  if (compacting_) {
    return Status::Unavailable("compaction already in progress");
  }
  if (draining_) {
    return Status::Unavailable("server is draining");
  }
  if (ingestor_.delta_trajectories() == 0) {
    return Status::InvalidArgument("delta is empty; nothing to compact");
  }
  // The previous worker (if any) already posted its outcome and was joined
  // in FinishCompaction; joinable here only after a failed outcome path.
  if (compact_thread_.joinable()) compact_thread_.join();
  compacting_ = true;
  // Seal point: trips applied after this copy stay in the delta and ride
  // into the next compaction (Rebase keeps their global ids stable).
  std::vector<Trajectory> sealed = ingestor_.pending();
  compact_thread_ = std::thread(
      [this, base = db_, trips = std::move(sealed)]() mutable {
        RunCompaction(std::move(base), std::move(trips));
      });
  return Status::OK();
}

void UotsServer::RunCompaction(std::shared_ptr<const TrajectoryDatabase> base,
                               std::vector<Trajectory> sealed_trips) {
  CompactionOutcome out = BuildCompactedSnapshot(
      *base, sealed_trips, opts_.compact_snapshot_path);
  out.sealed = sealed_trips.size();
  loop_.Post([this, out = std::move(out)]() mutable {
    FinishCompaction(std::move(out));
  });
}

UotsServer::CompactionOutcome UotsServer::BuildCompactedSnapshot(
    const TrajectoryDatabase& base, const std::vector<Trajectory>& trips,
    const std::string& path) {
  WallTimer timer;
  CompactionOutcome out;
  out.status = [&]() -> Status {
    // Merge: materialize the base rows, append the sealed delta, and
    // rebuild every index from scratch — the same construction a cold
    // restart over the combined data would run, which is exactly why the
    // swapped-in result answers bit-identically to what the merged view
    // was already serving.
    TrajectoryStore merged;
    const size_t base_count = base.store().size();
    for (size_t id = 0; id < base_count; ++id) {
      auto added = merged.Add(base.store().Materialize(static_cast<TrajId>(id)));
      if (!added.ok()) return added.status();
    }
    for (const Trajectory& t : trips) {
      auto added = merged.Add(t);
      if (!added.ok()) return added.status();
    }
    SimilarityOptions sim;
    sim.sigma_m = base.model().sigma_m();
    sim.sigma_s = base.model().sigma_s();
    sim.measure = base.model().textual().measure();
    TrajectoryDatabase merged_db(base.network(), std::move(merged),
                                 base.vocabulary(), sim);
    // The oracle is a function of the network alone, which compaction
    // never changes — carry the base's through so the new snapshot bakes
    // it in and oracle-driven pruning survives the swap.
    merged_db.AttachOracle(base.oracle_ptr());

    storage::WriteOptions wopts;
    wopts.tool = "uots_compact";
    UOTS_RETURN_NOT_OK(storage::WriteSnapshot(merged_db, path, wopts));

    // Validated reload: the database that goes live is the one read back
    // from disk (checksums verified), not the in-memory merge — what the
    // file serves after a restart is what this process serves now.
    storage::ResolveOptions ropts;
    ropts.similarity = sim;
    auto loaded = storage::LoadDatabaseFromPath(path, ropts);
    if (!loaded.ok()) return loaded.status();
    out.db = std::shared_ptr<const TrajectoryDatabase>(std::move(loaded->db));
    return Status::OK();
  }();
  out.build_ms = timer.ElapsedMillis();
  return out;
}

void UotsServer::FinishCompaction(CompactionOutcome outcome) {
  if (compact_thread_.joinable()) compact_thread_.join();
  compacting_ = false;
  auto& reg = MetricsRegistry::Global();
  if (!outcome.status.ok()) {
    reg.AddCounter("server.ingest.compact_failures", 1);
    std::fprintf(stderr, "compaction failed: %s\n",
                 outcome.status.ToString().c_str());
    MaybeFinishShutdown();  // a drain may have been waiting on us
    return;
  }
  // Swap order matters: re-point the server and service first (new
  // admissions pin the new base), then rebase the ingestor so survivors
  // keep their global ids on top of the grown base, then orphan both
  // cache tiers — the result cache because its salted keys should be
  // reclaimed, the expansion cache because its prefixes now describe a
  // retired mapping.
  db_ = std::move(outcome.db);
  service_->SwapDatabase(db_);
  ingestor_.Rebase(db_.get(), outcome.sealed);
  if (service_->result_cache() != nullptr) {
    service_->result_cache()->InvalidateGeneration();
  }
  if (opts_.service.uots.distance_cache != nullptr) {
    opts_.service.uots.distance_cache->InvalidateGeneration();
  }
  ++counters_.compactions;
  last_compaction_ms_ = outcome.build_ms;
  reg.AddCounter("server.ingest.compactions", 1);
  reg.Record("server.ingest.compact_build",
             static_cast<int64_t>(outcome.build_ms * 1e6));
  MaybeFinishShutdown();
}

void UotsServer::OnDeadline(const std::shared_ptr<RequestCtx>& ctx) {
  if (ctx->responded) return;
  ctx->responded = true;
  ctx->deadline_timer = TimerHeap::kInvalidTimer;
  // Tell the engine to stop; the worker's eventual completion is discarded.
  ctx->token.Cancel();
  ++counters_.deadline_exceeded;

  Connection* conn = FindConn(ctx->conn_id);
  if (conn != nullptr) {
    SendError(conn, ctx->request_id, ctx->request_id_str,
              ResponseStatus::kDeadlineExceeded,
              "deadline of " + std::to_string(ctx->deadline_ms) +
                  " ms exceeded");
  }
  // conn->inflight / loop_inflight_ stay up until the worker actually
  // finishes — the capacity it occupies is real until then.
}

template <class Kind>
void UotsServer::OnComplete(const std::shared_ptr<RequestCtx>& ctx,
                            ExecutionResultOf<Kind> r) {
  // Runs on the loop thread (posted). The request's admission slot is
  // already released by the service; release the loop-side accounting.
  --loop_inflight_;

  Connection* conn = FindConn(ctx->conn_id);
  if (conn != nullptr) {
    --conn->inflight;
  }

  const bool already_responded = ctx->responded;
  ctx->responded = true;
  if (ctx->deadline_timer != TimerHeap::kInvalidTimer) {
    loop_.CancelTimer(ctx->deadline_timer);
    ctx->deadline_timer = TimerHeap::kInvalidTimer;
  }

  const ResponseStatus ws =
      r.status.ok() ? ResponseStatus::kOk : FromStatus(r.status);
  typename Kind::Response resp;
  int segments = -1;
  if (r.status.ok()) {
    resp.id = ctx->request_id;
    resp.request_id = ctx->request_id_str;
    resp.*Kind::kResponseList = std::move(r.result.*Kind::kAnswerList);
    resp.has_stats = true;
    resp.stats = r.result.stats;
    resp.queue_wait_ms = r.queue_wait_ms;
    resp.execute_ms = r.execute_ms;
    segments = Kind::Segments(resp);
  }
  if (conn != nullptr && !already_responded) {
    if (r.status.ok()) {
      ++counters_.responses_ok;
      Send<&Kind::Encode>(conn, resp);
    } else {
      if (ws == ResponseStatus::kDeadlineExceeded) {
        ++counters_.deadline_exceeded;
      } else {
        ++counters_.errors_internal;
      }
      SendError(conn, ctx->request_id, ctx->request_id_str, ws,
                r.status.message());
    }
    MetricsRegistry::Global().Record(
        "server.request_latency", EventLoop::NowNs() - ctx->arrival_ns);
    // A failed write closes the connection; look it up again.
    conn = FindConn(ctx->conn_id);
  }
  // The execution happened regardless of whether anyone was left to read
  // the answer — log it (status reflects what the client saw when the
  // deadline beat the worker).
  const char* logged_status =
      already_responded ? ToString(ResponseStatus::kDeadlineExceeded)
                        : ToString(ws);
  RecordSlowLog(*ctx, logged_status, /*cached=*/false,
                static_cast<double>(EventLoop::NowNs() - ctx->arrival_ns) /
                    1e6,
                r.queue_wait_ms, r.execute_ms,
                r.status.ok() ? &resp.stats : nullptr, std::move(r.spans),
                segments);

  if (conn != nullptr && conn->close_after_flush && conn->inflight == 0 &&
      !conn->want_write()) {
    CloseConnection(ctx->conn_id);
  }
  MaybeFinishShutdown();
}

template <auto kEncode, class Response>
void UotsServer::Send(Connection* conn, const Response& resp) {
  std::string body;
  {
    UOTS_TRACE_SCOPE("server_serialize");
    body = kEncode(resp);
  }
  conn->QueueFrame(body);
  if (conn->Flush() == Connection::IoResult::kClosed) {
    CloseConnection(conn->id());
    return;
  }
  UpdateWriteInterest(conn);
}

void UotsServer::SendError(Connection* conn, int64_t request_id,
                           const std::string& request_id_str,
                           ResponseStatus status, const std::string& error) {
  QueryResponse resp;
  resp.id = request_id;
  resp.request_id = request_id_str;
  resp.status = status;
  resp.error = error;
  Send<&EncodeQueryResponse>(conn, resp);
}

void UotsServer::UpdateWriteInterest(Connection* conn) {
  if (conn->closed()) return;
  const uint32_t events =
      conn->want_write() ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  (void)loop_.SetEvents(conn->fd(), events);  // best effort
}

void UotsServer::TouchIdleTimer(Connection* conn) {
  if (opts_.idle_timeout_ms <= 0.0) return;
  if (conn->idle_timer != TimerHeap::kInvalidTimer) {
    if (loop_.RescheduleTimerAfterMs(conn->idle_timer,
                                     opts_.idle_timeout_ms)) {
      return;
    }
    conn->idle_timer = TimerHeap::kInvalidTimer;
  }
  const uint64_t id = conn->id();
  conn->idle_timer =
      loop_.AddTimerAfterMs(opts_.idle_timeout_ms, [this, id] {
        auto it = conns_.find(id);
        if (it == conns_.end()) return;
        it->second->idle_timer = TimerHeap::kInvalidTimer;
        // Keep connections with work in flight alive; re-arm instead.
        if (it->second->inflight > 0) {
          TouchIdleTimer(it->second.get());
          return;
        }
        CloseConnection(id);
      });
}

void UotsServer::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  if (conn->idle_timer != TimerHeap::kInvalidTimer) {
    loop_.CancelTimer(conn->idle_timer);
    conn->idle_timer = TimerHeap::kInvalidTimer;
  }
  if (!conn->closed()) {
    loop_.RemoveFd(conn->fd());
  }
  ++counters_.connections_closed;
  conns_.erase(it);  // Connection destructor closes the fd
  MaybeFinishShutdown();
}

void UotsServer::BeginShutdown() {
  if (draining_) return;
  draining_ = true;
  // Stop accepting *queries*: new connections get ECONNREFUSED once the
  // backlog drains; already-read frames get "shutting_down" responses. The
  // admin listener stays up so /healthz reports not-ready while the drain
  // runs (a load balancer keeps probing right through shutdown).
  if (listen_fd_ >= 0) {
    loop_.RemoveFd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  service_->BeginShutdown();
  if (opts_.drain_timeout_ms > 0.0) {
    drain_fuse_ = loop_.AddTimerAfterMs(opts_.drain_timeout_ms, [this] {
      drain_fuse_ = TimerHeap::kInvalidTimer;
      FinishShutdown();
    });
  }
  MaybeFinishShutdown();
}

void UotsServer::MaybeFinishShutdown() {
  if (!draining_ || stop_requested_) return;
  if (loop_inflight_ > 0) return;
  // An in-flight compaction finishes in bounded time and posts back;
  // FinishCompaction re-checks. (The drain fuse force-stops regardless.)
  if (compacting_) return;
  // All admitted work is done; wait only for unflushed bytes.
  for (auto& [id, conn] : conns_) {
    if (conn->want_write()) return;
  }
  if (drain_fuse_ != TimerHeap::kInvalidTimer) {
    loop_.CancelTimer(drain_fuse_);
    drain_fuse_ = TimerHeap::kInvalidTimer;
  }
  FinishShutdown();
}

void UotsServer::FinishShutdown() {
  stop_requested_ = true;
  // A force-stop (drain fuse) can land mid-compaction: wait it out so the
  // worker never outlives the loop it posts to. Its posted completion
  // simply never runs once the loop stops.
  if (compact_thread_.joinable()) compact_thread_.join();
  compacting_ = false;
  if (compact_timer_ != TimerHeap::kInvalidTimer) {
    loop_.CancelTimer(compact_timer_);
    compact_timer_ = TimerHeap::kInvalidTimer;
  }
  // Durability fold: trips still in the delta exist only in this process.
  // With a compaction path configured, write base + full delta out now so
  // a restart from that snapshot serves everything that was ever acked.
  if (!opts_.compact_snapshot_path.empty() &&
      ingestor_.delta_trajectories() > 0) {
    CompactionOutcome out = BuildCompactedSnapshot(
        *db_, ingestor_.pending(), opts_.compact_snapshot_path);
    if (out.status.ok()) {
      ++counters_.compactions;
      last_compaction_ms_ = out.build_ms;
      MetricsRegistry::Global().AddCounter("server.ingest.compactions", 1);
    } else {
      MetricsRegistry::Global().AddCounter("server.ingest.compact_failures",
                                           1);
      std::fprintf(stderr, "shutdown compaction failed: %s\n",
                   out.status.ToString().c_str());
    }
  }
  // Export the final counter values, tear the admin plane's fds out of the
  // loop while the loop still exists, and stop.
  PublishIngestMetrics();
  service_->PublishCacheMetrics();
  if (metrics_timer_ != TimerHeap::kInvalidTimer) {
    loop_.CancelTimer(metrics_timer_);
    metrics_timer_ = TimerHeap::kInvalidTimer;
  }
  if (admin_ != nullptr) admin_->Shutdown();
  loop_.Stop();
}

}  // namespace uots
