#include "server/service.h"

#include <thread>
#include <utility>

#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace uots {

UotsService::UotsService(std::shared_ptr<const TrajectoryDatabase> db,
                         const ServiceOptions& opts)
    : db_(std::move(db)), opts_(opts) {
  int threads = opts_.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 2;
  }
  opts_.threads = threads;
  // The pool queue never exceeds max_inflight thanks to the admission
  // counter, but a matching bound documents (and enforces) the invariant.
  pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(threads),
                                       opts_.max_inflight);
  if (opts_.cache_max_entries > 0) {
    ResultCache::Options copts;
    copts.max_entries = opts_.cache_max_entries;
    copts.ttl_ms = opts_.cache_ttl_ms;
    copts.shards = opts_.cache_shards;
    result_cache_ = std::make_unique<ResultCache>(copts);
  }
}

UotsService::~UotsService() {
  BeginShutdown();
  Drain();
}

void UotsService::BeginShutdown() {
  shutting_down_.store(true, std::memory_order_relaxed);
}

void UotsService::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

UotsService::DbSnapshot UotsService::SnapshotDb() const {
  std::lock_guard<std::mutex> lock(db_mu_);
  return DbSnapshot{db_, db_version_.load(std::memory_order_relaxed)};
}

void UotsService::SwapDatabase(std::shared_ptr<const TrajectoryDatabase> db) {
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    db_ = std::move(db);
    db_version_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Idle engines hold raw pointers into the retired base; flush them.
  // Executing engines are safe — their admission snapshot pins the old
  // database until release, where the version tag discards them.
  std::lock_guard<std::mutex> lock(engines_mu_);
  std::apply([](auto&... p) { (p.idle.clear(), ...); }, pools_);
}

template <class Kind>
std::unique_ptr<typename Kind::Engine> UotsService::AcquireEngine(
    typename Kind::EngineKey key, const DbSnapshot& snap) {
  {
    std::lock_guard<std::mutex> lock(engines_mu_);
    auto& idle = pool<Kind>().idle;
    for (size_t i = 0; i < idle.size(); ++i) {
      if (idle[i].key == key && idle[i].db_version == snap.version) {
        auto engine = std::move(idle[i].engine);
        idle.erase(idle.begin() + static_cast<ptrdiff_t>(i));
        return engine;
      }
    }
  }
  return Kind::MakeEngine(*snap.db, key, opts_.uots);
}

template <class Kind>
void UotsService::ReleaseEngine(typename Kind::EngineKey key,
                                uint64_t db_version,
                                std::unique_ptr<typename Kind::Engine> engine) {
  engine->set_cancel(nullptr);  // never let a dead request's token linger
  std::lock_guard<std::mutex> lock(engines_mu_);
  // A swap may have happened while this engine executed; it references the
  // retired database, so it must not rejoin the pool. (Checked under
  // engines_mu_: SwapDatabase bumps the version before clearing the pool,
  // so a push racing the clear either sees the new version and drops, or
  // lands before the clear and is flushed by it.)
  if (db_version != db_version_.load(std::memory_order_acquire)) return;
  // Cap the pool at one idle engine per worker and per key: at most
  // `threads` requests of a key run concurrently, so extras could only
  // accumulate (e.g. after a burst that mixed algorithms) and pin scratch
  // memory forever. Beyond the cap the engine is simply destroyed.
  if (pool<Kind>().Count(&key) >= static_cast<size_t>(opts_.threads)) return;
  pool<Kind>().idle.push_back({key, db_version, std::move(engine)});
}

template <class Kind>
size_t UotsService::Pooled(const typename Kind::EngineKey* key) const {
  std::lock_guard<std::mutex> lock(engines_mu_);
  return pool<Kind>().Count(key);
}

template <class Kind>
std::shared_ptr<const CachedResult> UotsService::Lookup(
    const typename Kind::Query& query, typename Kind::EngineKey key,
    std::string* key_out) {
  if (result_cache_ == nullptr) {
    key_out->clear();
    return nullptr;
  }
  WallTimer timer;
  // Salt with the *live* fingerprint (base identity mixed with the delta
  // generation): every applied ingest batch moves the salt, so a key
  // minted before an ingest can never hit an entry stored after it, nor
  // vice versa.
  const uint64_t salt = db()->live_fingerprint();
  *key_out = Kind::CacheKey(query, key, opts_.uots, salt);
  auto hit = result_cache_->Lookup(*key_out);
  MetricsRegistry::Global().Record(
      "server.cache.lookup", static_cast<int64_t>(timer.ElapsedMillis() * 1e6));
  return hit;
}

void UotsService::PublishCacheMetrics() const {
  auto& reg = MetricsRegistry::Global();
  reg.SetCounter("server.oracle.lookups",
                 oracle_lookups_total_.load(std::memory_order_relaxed));
  reg.SetCounter("server.oracle.pruned_candidates",
                 oracle_pruned_total_.load(std::memory_order_relaxed));
  if (result_cache_ == nullptr) return;
  const ResultCache::Stats s = result_cache_->stats();
  reg.SetCounter("server.cache.hits", s.hits);
  reg.SetCounter("server.cache.misses", s.misses);
  reg.SetCounter("server.cache.evictions", s.evictions + s.expired);
  reg.SetCounter("server.cache.bytes", s.bytes);
}

template <class Kind>
bool UotsService::Execute(const typename Kind::Query& query,
                          typename Kind::EngineKey key,
                          const CancelToken* cancel,
                          std::function<void(ExecutionResultOf<Kind>)> done,
                          std::string cache_key,
                          const ExecuteOptions& exec_opts) {
  if (shutting_down_.load(std::memory_order_relaxed)) return false;
  // Reserve an admission slot; undo on any rejection path.
  const size_t prev = inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (prev >= opts_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  const int64_t admitted_ns = CancelToken::NowNs();
  // Pin the database build this request will run against: a compaction
  // swap mid-flight retires the old base only once this snapshot drops.
  DbSnapshot snap = SnapshotDb();
  auto task = [this, query, key, cancel, done = std::move(done),
               cache_key = std::move(cache_key), admitted_ns,
               snap = std::move(snap), exec_opts]() mutable {
    ExecutionResultOf<Kind> out;
    out.queue_wait_ms =
        static_cast<double>(CancelToken::NowNs() - admitted_ns) / 1e6;
    WallTimer exec_timer;
    if (exec_opts.capture_spans) Trace::BeginThreadCapture();
    {
      // Span opened after the capture begins and closed before it ends, so
      // a sampled request's tree always contains its own root.
      UOTS_TRACE_SCOPE_ID(Kind::kSpanName, exec_opts.span_id);
      if (cancel != nullptr && cancel->ShouldAbort()) {
        // Deadline passed while queued: skip the engine entirely.
        out.status = Status::DeadlineExceeded("deadline exceeded in queue");
      } else {
        auto engine = AcquireEngine<Kind>(key, snap);
        engine->set_cancel(cancel);
        Result<typename Kind::Answer> r = Kind::Run(*engine, query);
        ReleaseEngine<Kind>(key, snap.version, std::move(engine));
        if (r.ok()) {
          out.result = std::move(*r);
          oracle_lookups_total_.fetch_add(out.result.stats.oracle_lookups,
                                          std::memory_order_relaxed);
          oracle_pruned_total_.fetch_add(
              out.result.stats.oracle_pruned_candidates,
              std::memory_order_relaxed);
          if (result_cache_ != nullptr && !cache_key.empty()) {
            auto cached = std::make_shared<CachedResult>();
            (*cached).*Kind::kCachedList = out.result.*Kind::kAnswerList;
            cached->stats = out.result.stats;
            result_cache_->Insert(cache_key, std::move(cached));
          }
        } else {
          out.status = r.status();
        }
      }
    }
    if (exec_opts.capture_spans) out.spans = Trace::EndThreadCapture();
    out.execute_ms = exec_timer.ElapsedMillis();
    auto& reg = MetricsRegistry::Global();
    reg.Record("server.queue_wait",
               static_cast<int64_t>(out.queue_wait_ms * 1e6));
    reg.Record("server.execute", static_cast<int64_t>(out.execute_ms * 1e6));
    Kind::RecordMetrics(out.status, out.result, out.execute_ms);
    done(std::move(out));
    // Publish completion last so Drain() cannot return while `done` runs.
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(drain_mu_);
      drain_cv_.notify_all();
    }
  };
  auto fut = pool_->TrySubmit(std::move(task));
  if (!fut.has_value()) {
    // Pool already shutting down (or its queue bound raced); either way
    // this request was never scheduled.
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  return true;
}

// The kinds the server serves (request_kind.h).
template bool UotsService::Execute<RetrievalKind>(
    const UotsQuery&, AlgorithmKind, const CancelToken*,
    std::function<void(ExecutionResult)>, std::string, const ExecuteOptions&);
template bool UotsService::Execute<TripKind>(
    const TripQuery&, std::monostate, const CancelToken*,
    std::function<void(TripExecutionResult)>, std::string,
    const ExecuteOptions&);
template std::shared_ptr<const CachedResult> UotsService::Lookup<RetrievalKind>(
    const UotsQuery&, AlgorithmKind, std::string*);
template std::shared_ptr<const CachedResult> UotsService::Lookup<TripKind>(
    const TripQuery&, std::monostate, std::string*);
template size_t UotsService::Pooled<RetrievalKind>(const AlgorithmKind*) const;
template size_t UotsService::Pooled<TripKind>(const std::monostate*) const;

}  // namespace uots
