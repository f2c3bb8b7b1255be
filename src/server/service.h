// Query execution service: admission control + thread-pool dispatch.
//
// The service is the bridge between the single-threaded reactor and the
// compute pool. Admission is a hard bound on in-flight requests (queued +
// executing): once full, Execute refuses immediately and the server
// answers "overloaded" — a saturating burst costs attackers a rejection
// frame each, never unbounded queue memory or latency collapse for the
// requests already admitted. Engines (which hold per-thread scratch state)
// are pooled per request kind (request_kind.h) and engine key, and
// re-armed with the request's CancelToken before every search, so a fired
// deadline aborts the engine at its next round boundary instead of holding
// a worker hostage.

#ifndef UOTS_SERVER_SERVICE_H_
#define UOTS_SERVER_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "cache/result_cache.h"
#include "core/algorithm.h"
#include "core/database.h"
#include "server/request_kind.h"
#include "trip/planner.h"
#include "util/cancel.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace uots {

/// \brief Tuning for UotsService.
struct ServiceOptions {
  /// Worker threads; 0 = hardware concurrency.
  int threads = 0;
  /// Hard bound on in-flight requests (queued + executing). Admission
  /// beyond this returns "overloaded".
  size_t max_inflight = 256;
  /// Deadline applied to requests that do not carry one; 0 disables.
  double default_deadline_ms = 0.0;
  /// Result-cache entry budget; 0 disables the result cache entirely.
  size_t cache_max_entries = 0;
  /// Result-cache entry TTL in milliseconds; 0 = never expires.
  double cache_ttl_ms = 0.0;
  /// Result-cache shard count (rounded to a power of two).
  size_t cache_shards = 8;
  /// Engine knobs shared by every pooled UOTS engine.
  UotsSearchOptions uots;
};

/// \brief Per-request observability context riding along with Execute.
struct ExecuteOptions {
  /// Correlation id attached to the worker's execution span (the kind's
  /// kSpanName: "server_execute" or "trip_execute") as the span's numeric
  /// id, via a stable string hash. -1 = none.
  int64_t span_id = -1;
  /// Capture the span tree of this request's execution (worker-thread
  /// scope) into ExecutionResult::spans. Used by runtime trace sampling;
  /// empty in UOTS_TRACE=OFF builds.
  bool capture_spans = false;
};

/// \brief Outcome of one executed request of any kind, delivered to the
/// completion callback on a worker thread.
template <class Answer>
struct BasicExecutionResult {
  Status status;          ///< engine status (OK, kDeadlineExceeded, ...)
  Answer result;          ///< valid when status.ok()
  double queue_wait_ms = 0.0;  ///< admission -> worker pickup
  double execute_ms = 0.0;     ///< engine wall time
  /// The request's span tree when ExecuteOptions::capture_spans was set
  /// (names are static strings; safe to keep past the request).
  std::vector<TraceEvent> spans;
};
template <class Kind>
using ExecutionResultOf = BasicExecutionResult<typename Kind::Answer>;
using ExecutionResult = ExecutionResultOf<RetrievalKind>;
using TripExecutionResult = ExecutionResultOf<TripKind>;

/// \brief Thread-pool-backed query executor with bounded admission.
///
/// Execute may be called from any thread; completions run on pool
/// workers (wrap them with EventLoop::Post to get back to a reactor).
class UotsService {
 public:
  /// Owning form: the service shares the database's lifetime, which is
  /// what live compaction needs (SwapDatabase retires the old base only
  /// after the last in-flight request drops its reference).
  UotsService(std::shared_ptr<const TrajectoryDatabase> db,
              const ServiceOptions& opts);
  /// Non-owning convenience for embedders/tests whose database outlives
  /// the service. Such a service still serves ingests, but SwapDatabase
  /// must not retire the caller's object (it only re-points the service).
  UotsService(const TrajectoryDatabase& db, const ServiceOptions& opts)
      : UotsService(std::shared_ptr<const TrajectoryDatabase>(
                        std::shared_ptr<const void>(), &db),
                    opts) {}
  ~UotsService();

  UotsService(const UotsService&) = delete;
  UotsService& operator=(const UotsService&) = delete;

  /// Admits and dispatches one request of `Kind` (request_kind.h) on the
  /// pooled engine selected by `key`. Every kind shares the admission
  /// budget, worker pool, snapshot pinning and drain accounting. `cancel`
  /// (may be nullptr) must stay valid until `done` runs; `done` is invoked
  /// exactly once on a worker thread when admission succeeds. \return
  /// false when the service is at capacity or shutting down — `done` is
  /// NOT invoked in that case. A non-empty `cache_key` (from Lookup's miss
  /// path) makes a successful result populate the result cache on the
  /// worker thread.
  template <class Kind>
  bool Execute(const typename Kind::Query& query, typename Kind::EngineKey key,
               const CancelToken* cancel,
               std::function<void(ExecutionResultOf<Kind>)> done,
               std::string cache_key = {},
               const ExecuteOptions& exec_opts = {});

  /// \brief Result-cache probe for `Kind`, cheap enough for the reactor.
  ///
  /// Returns the cached answer on a hit. On a miss, `key_out` receives the
  /// canonical key to pass to Execute so the computed result gets cached;
  /// with caching disabled (or for bypassed requests — don't call)
  /// `key_out` is cleared and the return is null. Each kind's key schema
  /// keeps the key spaces disjoint; all are salted with the live dataset
  /// fingerprint. Lookup time lands in the "server.cache.lookup"
  /// histogram.
  template <class Kind>
  std::shared_ptr<const CachedResult> Lookup(const typename Kind::Query& query,
                                             typename Kind::EngineKey key,
                                             std::string* key_out);

  /// Execute / Lookup for retrieval queries.
  bool TryExecute(const UotsQuery& query, AlgorithmKind kind,
                  const CancelToken* cancel,
                  std::function<void(ExecutionResult)> done,
                  std::string cache_key = {},
                  const ExecuteOptions& exec_opts = {}) {
    return Execute<RetrievalKind>(query, kind, cancel, std::move(done),
                                  std::move(cache_key), exec_opts);
  }
  std::shared_ptr<const CachedResult> CacheLookup(const UotsQuery& query,
                                                  AlgorithmKind kind,
                                                  std::string* key_out) {
    return Lookup<RetrievalKind>(query, kind, key_out);
  }
  /// Execute / Lookup for trip-assembly queries.
  bool TryExecuteTrip(const TripQuery& query, const CancelToken* cancel,
                      std::function<void(TripExecutionResult)> done,
                      std::string cache_key = {},
                      const ExecuteOptions& exec_opts = {}) {
    return Execute<TripKind>(query, {}, cancel, std::move(done),
                             std::move(cache_key), exec_opts);
  }
  std::shared_ptr<const CachedResult> TripCacheLookup(const TripQuery& query,
                                                      std::string* key_out) {
    return Lookup<TripKind>(query, {}, key_out);
  }

  /// The result cache, or null when ServiceOptions disabled it.
  ResultCache* result_cache() { return result_cache_.get(); }

  /// Copies cache counters into MetricsRegistry::Global() under
  /// server.cache.{hits,misses,evictions,bytes}, plus lifetime distance-
  /// oracle totals under server.oracle.{lookups,pruned_candidates}. The
  /// admin plane calls this at every /metrics scrape and the server calls
  /// it on a periodic loop timer, so the exported values are never staler
  /// than one publish interval (they used to be exported only at
  /// shutdown).
  void PublishCacheMetrics() const;

  /// Requests currently admitted (queued + executing).
  size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// Stops admission; queued work still completes (their callbacks run).
  void BeginShutdown();
  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_relaxed);
  }

  /// Blocks until every admitted request has completed.
  void Drain();

  const ServiceOptions& options() const { return opts_; }
  size_t num_threads() const { return pool_->num_threads(); }

  /// Current database (pin for the duration of one use).
  std::shared_ptr<const TrajectoryDatabase> db() const {
    std::lock_guard<std::mutex> lock(db_mu_);
    return db_;
  }

  /// \brief Points the service at a compacted replacement database.
  ///
  /// Safe while requests are executing: in-flight work pins the old
  /// database via the snapshot it took at admission; the idle engine pool
  /// (whose engines hold raw pointers into the old base) is flushed, and
  /// engines released later are discarded by version tag. Call
  /// ResultCache-side invalidation separately (the compactor does).
  void SwapDatabase(std::shared_ptr<const TrajectoryDatabase> db);

  /// Monotonic count of SwapDatabase calls (engine-pool version tag).
  uint64_t db_version() const {
    return db_version_.load(std::memory_order_acquire);
  }

  /// Idle pooled engines of `kind` (bounded by the worker count).
  size_t pooled_engines(AlgorithmKind kind) const {
    return Pooled<RetrievalKind>(&kind);
  }
  /// Idle pooled retrieval engines across all algorithm kinds.
  size_t pooled_engines() const { return Pooled<RetrievalKind>(nullptr); }
  /// Idle pooled trip planners (bounded by the worker count).
  size_t pooled_trip_planners() const { return Pooled<TripKind>(nullptr); }

 private:
  /// Idle engines of one kind, created lazily: at most one per worker and
  /// key is kept. Engines hold raw pointers into one database build, so
  /// every entry is tagged with the SwapDatabase version it was built
  /// against and dies with it.
  template <class Kind>
  struct EnginePool {
    struct Idle {
      typename Kind::EngineKey key;
      uint64_t db_version;
      std::unique_ptr<typename Kind::Engine> engine;
    };
    std::vector<Idle> idle;

    /// Idle engines with `*key` (all when null); caller holds engines_mu_.
    size_t Count(const typename Kind::EngineKey* key) const {
      size_t n = 0;
      for (const Idle& p : idle) n += key == nullptr || p.key == *key;
      return n;
    }
  };

  /// One admission's pinned view of the database.
  struct DbSnapshot {
    std::shared_ptr<const TrajectoryDatabase> db;
    uint64_t version;
  };
  DbSnapshot SnapshotDb() const;

  template <class Kind>
  EnginePool<Kind>& pool() {
    return std::get<EnginePool<Kind>>(pools_);
  }
  template <class Kind>
  const EnginePool<Kind>& pool() const {
    return std::get<EnginePool<Kind>>(pools_);
  }
  /// Idle engines of `Kind` with `*key` (all keys when null).
  template <class Kind>
  size_t Pooled(const typename Kind::EngineKey* key) const;
  template <class Kind>
  std::unique_ptr<typename Kind::Engine> AcquireEngine(
      typename Kind::EngineKey key, const DbSnapshot& snap);
  template <class Kind>
  void ReleaseEngine(typename Kind::EngineKey key, uint64_t db_version,
                     std::unique_ptr<typename Kind::Engine> engine);

  mutable std::mutex db_mu_;
  std::shared_ptr<const TrajectoryDatabase> db_;
  std::atomic<uint64_t> db_version_{0};
  ServiceOptions opts_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ResultCache> result_cache_;

  mutable std::mutex engines_mu_;
  std::tuple<EnginePool<RetrievalKind>, EnginePool<TripKind>> pools_;

  std::atomic<size_t> inflight_{0};
  std::atomic<bool> shutting_down_{false};

  /// Lifetime totals of the per-query oracle counters, accumulated on
  /// worker threads and copied out by PublishCacheMetrics.
  std::atomic<int64_t> oracle_lookups_total_{0};
  std::atomic<int64_t> oracle_pruned_total_{0};

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace uots

#endif  // UOTS_SERVER_SERVICE_H_
