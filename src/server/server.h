// The UOTS network query server: accept loop, request lifecycle, shutdown.
//
// One reactor thread (EventLoop) owns the listener, every Connection, and
// all timers; the UotsService executes queries on its thread pool and
// posts completions back. One request lifecycle serves every query kind
// (retrieval and trip; the per-kind parts live in request_kind.h):
//
//   read -> parse -> admit -> queue -> execute -> serialize -> write
//             |        |                  |
//             |        +-- full: "overloaded" (retryable) immediately
//             |        +-- draining: "shutting_down" (retryable)
//             +-- malformed/oversized: error response, connection survives
//
// Every request carries a request id — the client's "request_id" string or
// a server-generated "s<conn>-<seq>" — echoed on every response (errors
// included), attached to the worker's trace span, and recorded in the
// slow-query log, so one string joins a response, a /slowqueries row, and
// a sampled span tree.
//
// A per-request deadline timer fires on the reactor: the client gets its
// "deadline_exceeded" response at the deadline (the connection is never
// blocked behind a slow query), the request's CancelToken is cancelled so
// the engine aborts at its next round boundary, and the eventual worker
// completion is discarded. Graceful shutdown (BeginShutdown, typically from
// SIGINT/SIGTERM) closes the listener, answers new requests with
// "shutting_down", waits for in-flight requests to complete and flush, and
// then stops the loop — a drain fuse force-stops if a peer refuses to read.
// The admin listener (server/admin.h) stays up through the drain so
// /healthz can report not-ready while the drain is in progress.

#ifndef UOTS_SERVER_SERVER_H_
#define UOTS_SERVER_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "core/database.h"
#include "ingest/ingestor.h"
#include "server/admin.h"
#include "server/connection.h"
#include "server/event_loop.h"
#include "server/protocol.h"
#include "server/service.h"

namespace uots {

/// \brief Server configuration.
struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral (read the bound port from port())
  int listen_backlog = 128;
  size_t max_connections = 1024;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Connections idle (no bytes read) this long are closed; 0 disables.
  double idle_timeout_ms = 60000.0;
  /// How long BeginShutdown waits for in-flight work before force-stopping.
  double drain_timeout_ms = 10000.0;
  /// Execution / admission knobs.
  ServiceOptions service;
  /// Admin/introspection listener; admin.port = -1 (default) disables it.
  AdminOptions admin;
  /// Cache/oracle counters are re-published into MetricsRegistry on this
  /// loop-timer period (plus at every /metrics scrape); 0 disables the
  /// timer. Keeps exported values fresh even with no scraper attached.
  double metrics_publish_interval_ms = 1000.0;
  /// Human-readable dataset provenance shown in /statusz (snapshot path,
  /// city file, "synthetic", ...).
  std::string dataset_source;
  /// Destination for delta compaction: base + delta are merged, written
  /// here as a v1 snapshot (atomic tmp+fsync+rename), validated by a full
  /// reload, and swapped in live. Empty disables compaction (POST /compact
  /// answers 409 and the drain skips the final fold).
  std::string compact_snapshot_path;
  /// Period of the automatic compaction timer; fires only when the delta
  /// is non-empty. 0 disables the timer (POST /compact still works when a
  /// snapshot path is configured).
  double compact_interval_ms = 0.0;
};

/// \brief Reactor-facing counters, readable after Run() returns (or from
/// the loop thread).
struct ServerCounters {
  int64_t connections_accepted = 0;
  int64_t connections_closed = 0;
  int64_t connections_rejected = 0;  ///< max_connections hit
  int64_t requests = 0;              ///< parsed frames that named a query
  int64_t trip_requests = 0;         ///< parsed frames that named a trip
  int64_t responses_ok = 0;
  int64_t cache_hits = 0;  ///< ok responses served from the result cache
  int64_t rejected_overloaded = 0;
  int64_t rejected_shutting_down = 0;
  int64_t deadline_exceeded = 0;
  int64_t parse_errors = 0;  ///< malformed JSON or invalid fields
  int64_t oversized_frames = 0;
  int64_t errors_internal = 0;
  int64_t ingest_requests = 0;          ///< parsed frames that named an ingest
  int64_t ingest_accepted_trips = 0;    ///< trajectories ingested
  int64_t ingest_rejected_batches = 0;  ///< batches refused (atomic: 0 trips)
  int64_t compactions = 0;              ///< delta folds swapped in live
};

/// \brief TCP front-end over a TrajectoryDatabase.
class UotsServer {
 public:
  /// Owning form: the server shares the database's lifetime, which live
  /// compaction requires — SwapDatabase retires the old base only after
  /// the last in-flight request drops its pinned reference.
  UotsServer(std::shared_ptr<const TrajectoryDatabase> db,
             const ServerOptions& opts);
  /// Non-owning convenience for embedders/tests whose database outlives
  /// the server. Ingest works; compaction swaps merely re-point the
  /// server (the caller's object is never freed).
  UotsServer(const TrajectoryDatabase& db, const ServerOptions& opts)
      : UotsServer(std::shared_ptr<const TrajectoryDatabase>(
                       std::shared_ptr<const void>(), &db),
                   opts) {}
  ~UotsServer();

  UotsServer(const UotsServer&) = delete;
  UotsServer& operator=(const UotsServer&) = delete;

  /// Binds and listens (query listener and, when configured, the admin
  /// listener); after OK, port() / admin_port() are the actual ports.
  Status Start();

  /// Runs the reactor until shutdown completes. Call from the thread that
  /// owns the server (blocks).
  void Run();

  /// Begins graceful shutdown; safe from any thread (posts to the loop).
  void RequestShutdown();

  uint16_t port() const { return port_; }
  /// Bound admin port; 0 when the admin plane is disabled.
  uint16_t admin_port() const {
    return admin_ == nullptr ? 0 : admin_->port();
  }
  const ServerCounters& counters() const { return counters_; }
  size_t open_connections() const { return conns_.size(); }
  /// Requests admitted by the loop whose response is not yet queued.
  size_t loop_inflight() const { return loop_inflight_; }
  /// True once graceful shutdown has begun (loop thread).
  bool draining() const { return draining_; }
  EventLoop& loop() { return loop_; }
  UotsService& service() { return *service_; }
  /// The currently-serving database (loop thread; compaction may swap it).
  const TrajectoryDatabase& db() const { return *db_; }
  /// Ingest-side state (loop thread): delta size, generation, tallies.
  const Ingestor& ingestor() const { return ingestor_; }
  /// \brief Folds the delta into a fresh base snapshot, off-thread.
  ///
  /// Loop thread only (the admin plane and the compaction timer call it
  /// there). Seals the current pending set, merges base + delta on a
  /// background thread, writes options().compact_snapshot_path atomically,
  /// validates it with a full reload, and posts the swap back to the loop.
  /// Fails fast when no snapshot path is configured, a compaction is
  /// already running, the server is draining, or the delta is empty.
  Status TriggerCompaction();
  /// True while a background compaction is in flight (loop thread).
  bool compacting() const { return compacting_; }
  /// Wall duration of the last completed compaction; -1 before the first.
  double last_compaction_ms() const { return last_compaction_ms_; }
  const ServerOptions& options() const { return opts_; }
  /// The admin plane, or null when disabled.
  AdminPlane* admin() { return admin_.get(); }
  /// Wall-clock (unix) and steady-clock times captured in Start().
  int64_t start_unix_ms() const { return start_unix_ms_; }
  int64_t start_steady_ns() const { return start_steady_ns_; }

 private:
  friend class AdminPlane;  // reads loop-owned state for /statusz et al.

  /// Loop-owned per-request state, shared with the deadline timer and the
  /// completion closure.
  struct RequestCtx {
    uint64_t conn_id = 0;
    int64_t request_id = 0;       ///< wire "id" (numeric correlation)
    std::string request_id_str;   ///< "request_id" (observability key)
    const char* algorithm = "";   ///< slow-log column (Kind::AlgorithmName)
    std::string query_summary;    ///< only filled when the admin plane is on
    int64_t arrival_ns = 0;
    double deadline_ms = 0.0;
    CancelToken token;
    bool responded = false;
    TimerHeap::TimerId deadline_timer = TimerHeap::kInvalidTimer;
  };

  /// Outcome of the background merge, posted back to the loop thread.
  struct CompactionOutcome {
    Status status;
    std::shared_ptr<const TrajectoryDatabase> db;  ///< validated reload
    size_t sealed = 0;      ///< pending trips folded into the new base
    double build_ms = 0.0;  ///< merge + write + validate wall time
  };

  void OnAcceptReady();
  void OnConnEvent(uint64_t conn_id, uint32_t events);
  void HandleFrame(Connection* conn, std::string_view payload);
  /// The one request lifecycle of every query kind (request_kind.h): parse,
  /// request id, drain check, cache probe and hit reply, deadline timer,
  /// admission (overload / shutting-down replies) and the completion hop.
  template <class Kind>
  void HandleRequest(Connection* conn, const JsonValue& doc);
  void HandleIngest(Connection* conn, const JsonValue& doc);
  /// Answers a frame that named no valid request with "parse_error" and
  /// counts it under `counter`.
  void RejectFrame(Connection* conn, const std::string& error,
                   int64_t ServerCounters::*counter =
                       &ServerCounters::parse_errors);
  /// Background-thread body of one compaction (never touches loop state).
  void RunCompaction(std::shared_ptr<const TrajectoryDatabase> base,
                     std::vector<Trajectory> sealed_trips);
  /// Merge base + `trips`, write `path` atomically, reload + validate.
  /// Pure with respect to server state (also run synchronously at shutdown
  /// to fold an unflushed delta before exit).
  static CompactionOutcome BuildCompactedSnapshot(
      const TrajectoryDatabase& base, const std::vector<Trajectory>& trips,
      const std::string& path);
  /// Loop-thread completion: swap the validated reload in (or record the
  /// failure) and release the single-compaction latch.
  void FinishCompaction(CompactionOutcome outcome);
  void RequeueCompactionTimer();
  /// Copies ingest-side tallies into MetricsRegistry::Global() under
  /// server.ingest.* (loop thread; the admin plane triggers it per scrape
  /// via the metrics timer's published values).
  void PublishIngestMetrics() const;
  void OnDeadline(const std::shared_ptr<RequestCtx>& ctx);
  /// Loop-thread completion of an executed request: reply (unless the
  /// deadline already did), latency, slow log, drain bookkeeping.
  template <class Kind>
  void OnComplete(const std::shared_ptr<RequestCtx>& ctx,
                  ExecutionResultOf<Kind> r);

  Connection* FindConn(uint64_t conn_id);
  /// Encodes `resp` with `kEncode` and queues it on `conn` (every response
  /// kind; the encoder is bound at compile time).
  template <auto kEncode, class Response>
  void Send(Connection* conn, const Response& resp);
  void SendError(Connection* conn, int64_t request_id,
                 const std::string& request_id_str, ResponseStatus status,
                 const std::string& error);
  void UpdateWriteInterest(Connection* conn);
  void TouchIdleTimer(Connection* conn);
  void CloseConnection(uint64_t conn_id);
  void BeginShutdown();
  void MaybeFinishShutdown();
  void FinishShutdown();
  void RequeueMetricsTimer();
  /// Fresh server-generated request id ("s<conn>-<seq>").
  std::string GenerateRequestId(uint64_t conn_id);
  /// Appends one completed request to the slow-query log (admin on only).
  /// `segments` is Kind::Segments of the answer (-1 where meaningless).
  void RecordSlowLog(const RequestCtx& ctx, const char* status_name,
                     bool cached, double total_ms, double queue_wait_ms,
                     double execute_ms, const QueryStats* stats,
                     std::vector<TraceEvent> spans, int segments = -1);

  std::shared_ptr<const TrajectoryDatabase> db_;
  ServerOptions opts_;
  EventLoop loop_;
  std::unique_ptr<UotsService> service_;
  Ingestor ingestor_;

  /// Single-compaction latch plus the worker doing the merge. The thread
  /// is joined in FinishCompaction (it has already posted its result by
  /// then) or, if a drain interrupts it, in FinishShutdown.
  bool compacting_ = false;
  std::thread compact_thread_;
  double last_compaction_ms_ = -1.0;
  TimerHeap::TimerId compact_timer_ = TimerHeap::kInvalidTimer;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  uint64_t next_conn_id_ = 1;
  uint64_t next_request_seq_ = 1;
  std::map<uint64_t, std::unique_ptr<Connection>> conns_;
  size_t loop_inflight_ = 0;  ///< requests admitted, response not yet queued
  bool draining_ = false;
  bool stop_requested_ = false;
  TimerHeap::TimerId drain_fuse_ = TimerHeap::kInvalidTimer;
  TimerHeap::TimerId metrics_timer_ = TimerHeap::kInvalidTimer;
  ServerCounters counters_;
  int64_t start_unix_ms_ = 0;
  int64_t start_steady_ns_ = 0;
  uint64_t trace_sample_counter_ = 0;
  std::unique_ptr<AdminPlane> admin_;  // after loop_: destroyed first
};

}  // namespace uots

#endif  // UOTS_SERVER_SERVER_H_
