#include "server/protocol.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>

namespace uots {

namespace {

/// Header is a 4-byte big-endian unsigned payload length.
void PutHeader(uint32_t n, char out[kFrameHeaderBytes]) {
  out[0] = static_cast<char>((n >> 24) & 0xFF);
  out[1] = static_cast<char>((n >> 16) & 0xFF);
  out[2] = static_cast<char>((n >> 8) & 0xFF);
  out[3] = static_cast<char>(n & 0xFF);
}

uint32_t GetHeader(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return (uint32_t{u[0]} << 24) | (uint32_t{u[1]} << 16) |
         (uint32_t{u[2]} << 8) | uint32_t{u[3]};
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// Reads an integral field; fails on non-numbers and non-integers.
Status ReadInt(const JsonValue& v, const char* what, int64_t* out) {
  if (!v.is_number()) {
    return Status::InvalidArgument(std::string(what) + " must be a number");
  }
  const double d = v.number_value();
  if (std::floor(d) != d || std::abs(d) > 9.007199254740992e15) {
    return Status::InvalidArgument(std::string(what) + " must be an integer");
  }
  *out = static_cast<int64_t>(d);
  return Status::OK();
}

}  // namespace

void AppendFrame(std::string_view payload, std::string* out) {
  char header[kFrameHeaderBytes];
  PutHeader(static_cast<uint32_t>(payload.size()), header);
  out->append(header, kFrameHeaderBytes);
  out->append(payload.data(), payload.size());
}

std::string EncodeFrame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(payload, &out);
  return out;
}

void FrameDecoder::Append(const char* data, size_t n) {
  Compact();
  buf_.append(data, n);
}

void FrameDecoder::Compact() {
  // Reclaim consumed prefix once it dominates the buffer; amortized O(1).
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
}

FrameDecoder::Next FrameDecoder::Poll(std::string* payload,
                                      size_t* oversized_bytes) {
  // Finish discarding an oversized payload before looking for a header.
  if (skip_remaining_ > 0) {
    const size_t have = buf_.size() - consumed_;
    const size_t drop = std::min(skip_remaining_, have);
    consumed_ += drop;
    skip_remaining_ -= drop;
    if (skip_remaining_ > 0) return Next::kNeedMore;
  }
  if (buf_.size() - consumed_ < kFrameHeaderBytes) return Next::kNeedMore;
  const size_t len = GetHeader(buf_.data() + consumed_);
  if (len > max_frame_bytes_) {
    consumed_ += kFrameHeaderBytes;
    const size_t have = buf_.size() - consumed_;
    const size_t drop = std::min<size_t>(len, have);
    consumed_ += drop;
    skip_remaining_ = len - drop;
    if (oversized_bytes != nullptr) *oversized_bytes = len;
    return Next::kOversized;
  }
  if (buf_.size() - consumed_ < kFrameHeaderBytes + len) return Next::kNeedMore;
  payload->assign(buf_, consumed_ + kFrameHeaderBytes, len);
  consumed_ += kFrameHeaderBytes + len;
  return Next::kFrame;
}

const char* ToString(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kParseError:
      return "parse_error";
    case ResponseStatus::kInvalidArgument:
      return "invalid_argument";
    case ResponseStatus::kOverloaded:
      return "overloaded";
    case ResponseStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ResponseStatus::kShuttingDown:
      return "shutting_down";
    case ResponseStatus::kInternal:
      return "internal";
  }
  return "internal";
}

ResponseStatus ParseResponseStatus(std::string_view name) {
  for (ResponseStatus s :
       {ResponseStatus::kOk, ResponseStatus::kParseError,
        ResponseStatus::kInvalidArgument, ResponseStatus::kOverloaded,
        ResponseStatus::kDeadlineExceeded, ResponseStatus::kShuttingDown,
        ResponseStatus::kInternal}) {
    if (name == ToString(s)) return s;
  }
  return ResponseStatus::kInternal;
}

bool IsRetryable(ResponseStatus s) {
  return s == ResponseStatus::kOverloaded || s == ResponseStatus::kShuttingDown;
}

ResponseStatus FromStatus(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk:
      return ResponseStatus::kOk;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return ResponseStatus::kInvalidArgument;
    case StatusCode::kDeadlineExceeded:
      return ResponseStatus::kDeadlineExceeded;
    case StatusCode::kUnavailable:
      return ResponseStatus::kOverloaded;
    default:
      return ResponseStatus::kInternal;
  }
}

Result<AlgorithmKind> ParseAlgorithmKind(std::string_view name) {
  for (AlgorithmKind k :
       {AlgorithmKind::kBruteForce, AlgorithmKind::kTextFirst,
        AlgorithmKind::kUots, AlgorithmKind::kUotsNoHeuristic,
        AlgorithmKind::kUotsSequential, AlgorithmKind::kEuclidean}) {
    if (EqualsIgnoreCase(name, ToString(k))) return k;
  }
  return Status::NotFound("unknown algorithm: " + std::string(name));
}

namespace {

/// Reads "id" and "request_id", which every request kind carries.
Status DecodeIds(const JsonValue& o, int64_t* id, std::string* request_id) {
  if (!o.is_object()) return Status::InvalidArgument("request must be an object");
  if (const JsonValue* v = o.Find("id")) {
    UOTS_RETURN_NOT_OK(ReadInt(*v, "id", id));
  }
  if (const JsonValue* rid = o.Find("request_id")) {
    if (!rid->is_string()) {
      return Status::InvalidArgument("request_id must be a string");
    }
    if (rid->string_value().size() > kMaxRequestIdBytes) {
      return Status::InvalidArgument(
          "request_id too long (max " + std::to_string(kMaxRequestIdBytes) +
          " bytes)");
    }
    *request_id = rid->string_value();
  }
  return Status::OK();
}

/// Appends the elements of id array `arr` to `out`; `what` names one
/// element in errors ("location", "keyword").
Status ReadIds(const JsonValue& arr, const char* what,
               std::vector<uint32_t>* out) {
  out->reserve(out->size() + arr.array_items().size());
  for (const JsonValue& v : arr.array_items()) {
    int64_t id;
    UOTS_RETURN_NOT_OK(ReadInt(v, what, &id));
    if (id < 0 || id > UINT32_MAX) {
      return Status::InvalidArgument(std::string(what) + " out of range");
    }
    out->push_back(static_cast<uint32_t>(id));
  }
  return Status::OK();
}

/// Encodes ids as a JSON array of integers.
template <class Ids>
JsonValue IdArray(const Ids& ids) {
  JsonValue a = JsonValue::Array();
  for (const auto id : ids) a.Append(JsonValue::Int(static_cast<int64_t>(id)));
  return a;
}

/// Reads an optional term-id array (`what` names it in errors); absent
/// means the empty set.
Status DecodeTerms(const JsonValue* kws, const char* what, size_t max_terms,
                   KeywordSet* out) {
  std::vector<TermId> terms;
  if (kws != nullptr) {
    if (!kws->is_array()) {
      return Status::InvalidArgument(std::string(what) + " must be an array");
    }
    if (kws->array_items().size() > max_terms) {
      return Status::InvalidArgument("too many keywords (max " +
                                     std::to_string(max_terms) + ")");
    }
    UOTS_RETURN_NOT_OK(ReadIds(*kws, "keyword", &terms));
  }
  *out = KeywordSet(std::move(terms));
  return Status::OK();
}

/// Decodes the fields every query kind shares: ids, locations (at most
/// `max_locations`), keywords, lambda, k, deadline and cache mode.
template <class Query>
Status DecodeCommon(const JsonValue& o, size_t max_locations,
                    RequestCommon* req, Query* q) {
  UOTS_RETURN_NOT_OK(DecodeIds(o, &req->id, &req->request_id));
  const JsonValue* locs = o.Find("locations");
  if (locs == nullptr || !locs->is_array()) {
    return Status::InvalidArgument("locations must be an array");
  }
  if (locs->array_items().empty()) {
    return Status::InvalidArgument("locations must not be empty");
  }
  if (locs->array_items().size() > max_locations) {
    return Status::InvalidArgument("too many locations (max " +
                                   std::to_string(max_locations) + ")");
  }
  UOTS_RETURN_NOT_OK(ReadIds(*locs, "location", &q->locations));
  UOTS_RETURN_NOT_OK(DecodeTerms(o.Find("keywords"), "keywords", SIZE_MAX,
                                 &q->keywords));
  if (const JsonValue* lambda = o.Find("lambda")) {
    if (!lambda->is_number()) {
      return Status::InvalidArgument("lambda must be a number");
    }
    q->lambda = lambda->number_value();
  }
  if (const JsonValue* k = o.Find("k")) {
    int64_t kk;
    UOTS_RETURN_NOT_OK(ReadInt(*k, "k", &kk));
    if (kk < 0 || kk > INT32_MAX) return Status::InvalidArgument("k out of range");
    q->k = static_cast<int>(kk);
  }
  if (const JsonValue* dl = o.Find("deadline_ms")) {
    if (!dl->is_number() || dl->number_value() < 0.0) {
      return Status::InvalidArgument("deadline_ms must be a number >= 0");
    }
    req->deadline_ms = dl->number_value();
  }
  if (const JsonValue* cache = o.Find("cache")) {
    if (!cache->is_string()) {
      return Status::InvalidArgument("cache must be a string");
    }
    const std::string_view mode = cache->string_value();
    if (mode == "bypass") {
      req->cache = CacheMode::kBypass;
    } else if (mode != "default") {
      return Status::InvalidArgument("cache must be \"default\" or \"bypass\"");
    }
  }
  return Status::OK();
}

/// Encodes the fields DecodeCommon reads; `type` is omitted when null.
template <class Query>
JsonValue EncodeCommon(const RequestCommon& req, const char* type,
                       const Query& q) {
  JsonValue o = JsonValue::Object();
  o.Set("id", JsonValue::Int(req.id));
  if (type != nullptr) o.Set("type", JsonValue::Str(type));
  if (!req.request_id.empty()) {
    o.Set("request_id", JsonValue::Str(req.request_id));
  }
  o.Set("locations", IdArray(q.locations));
  o.Set("keywords", IdArray(q.keywords.terms()));
  o.Set("lambda", JsonValue::Number(q.lambda));
  o.Set("k", JsonValue::Int(q.k));
  if (req.deadline_ms > 0.0) {
    o.Set("deadline_ms", JsonValue::Number(req.deadline_ms));
  }
  if (req.cache == CacheMode::kBypass) {
    o.Set("cache", JsonValue::Str("bypass"));
  }
  return o;
}

/// Parses `json` and hands the document to an object-level decoder.
template <class T>
Result<T> ParseText(std::string_view json, Result<T> (*decode)(const JsonValue&)) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  return decode(*parsed);
}

/// Encodes the envelope; a non-ok status also gets "error" and "retryable"
/// (and nothing else: the caller returns the envelope as the response).
JsonValue EncodeEnvelope(const ResponseEnvelope& resp) {
  JsonValue o = JsonValue::Object();
  o.Set("id", JsonValue::Int(resp.id));
  if (!resp.request_id.empty()) {
    o.Set("request_id", JsonValue::Str(resp.request_id));
  }
  o.Set("status", JsonValue::Str(ToString(resp.status)));
  if (!resp.ok()) {
    if (!resp.error.empty()) o.Set("error", JsonValue::Str(resp.error));
    o.Set("retryable", JsonValue::Bool(resp.retryable()));
  }
  return o;
}

/// Decodes the envelope of any response kind.
Status DecodeEnvelope(const JsonValue& o, ResponseEnvelope* resp) {
  if (!o.is_object()) {
    return Status::InvalidArgument("response must be an object");
  }
  if (const JsonValue* id = o.Find("id")) {
    UOTS_RETURN_NOT_OK(ReadInt(*id, "id", &resp->id));
  }
  if (const JsonValue* rid = o.Find("request_id")) {
    resp->request_id = rid->StringOr("");
  }
  const JsonValue* status = o.Find("status");
  if (status == nullptr || !status->is_string()) {
    return Status::InvalidArgument("response missing status");
  }
  resp->status = ParseResponseStatus(status->string_value());
  if (const JsonValue* err = o.Find("error")) {
    resp->error = err->StringOr("");
  }
  return Status::OK();
}

/// The shared response encoder: the envelope, then on success the kind's
/// answer list `body` under `body_key`, the cached flag, the engine stats
/// and the server block.
std::string EncodeResponse(const ResponseCommon& resp, const char* body_key,
                           JsonValue body) {
  JsonValue o = EncodeEnvelope(resp);
  if (!resp.ok()) return o.Serialize();
  o.Set(body_key, std::move(body));
  if (resp.cached) o.Set("cached", JsonValue::Bool(true));
  std::string out;
  out.reserve(256);
  // Serialize up to (and excluding) the closing brace, then splice the
  // already-JSON stats blob and the server block in.
  std::string head = o.Serialize();
  head.pop_back();  // '}'
  out += head;
  if (resp.has_stats) {
    out += ",\"stats\":";
    out += resp.stats.ToJson();
  }
  out += ",\"server\":{\"queue_wait_ms\":";
  JsonAppendDouble(resp.queue_wait_ms, &out);
  out += ",\"execute_ms\":";
  JsonAppendDouble(resp.execute_ms, &out);
  out += "}}";
  return out;
}

/// Reads a numeric member, `fallback` when absent.
double NumberField(const JsonValue& o, const char* key, double fallback = 0) {
  const JsonValue* v = o.Find(key);
  return v != nullptr ? v->NumberOr(fallback) : fallback;
}

/// Reads an integral member through int64 (so -1 fallbacks survive the
/// cast to unsigned id types).
int64_t IntField(const JsonValue& o, const char* key, int64_t fallback = 0) {
  return static_cast<int64_t>(
      NumberField(o, key, static_cast<double>(fallback)));
}

/// The integer counters of QueryStats::ToJson, in its order.
constexpr std::pair<const char*, int64_t QueryStats::*> kStatsFields[] = {
    {"visited_trajectories", &QueryStats::visited_trajectories},
    {"trajectory_hits", &QueryStats::trajectory_hits},
    {"settled_vertices", &QueryStats::settled_vertices},
    {"heap_pops", &QueryStats::heap_pops},
    {"heap_pushes", &QueryStats::heap_pushes},
    {"heap_decreases", &QueryStats::heap_decreases},
    {"heap_stale_pops", &QueryStats::heap_stale_pops},
    {"candidates", &QueryStats::candidates},
    {"posting_entries", &QueryStats::posting_entries},
    {"schedule_steps", &QueryStats::schedule_steps},
    {"bound_rebuilds", &QueryStats::bound_rebuilds},
    {"oracle_lookups", &QueryStats::oracle_lookups},
    {"oracle_pruned_candidates", &QueryStats::oracle_pruned_candidates},
};

/// The shared response decoder: everything EncodeResponse writes except
/// the answer list, which the caller reads from the returned document.
Result<JsonValue> DecodeResponse(std::string_view json, ResponseCommon* resp) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& o = *parsed;
  UOTS_RETURN_NOT_OK(DecodeEnvelope(o, resp));
  if (const JsonValue* cached = o.Find("cached")) {
    resp->cached = cached->BoolOr(false);
  }
  if (const JsonValue* stats = o.Find("stats"); stats && stats->is_object()) {
    resp->has_stats = true;
    for (const auto& [key, field] : kStatsFields) {
      resp->stats.*field = IntField(*stats, key);
    }
    resp->stats.elapsed_ms = NumberField(*stats, "elapsed_ms");
  }
  if (const JsonValue* server = o.Find("server"); server && server->is_object()) {
    resp->queue_wait_ms = NumberField(*server, "queue_wait_ms");
    resp->execute_ms = NumberField(*server, "execute_ms");
  }
  return parsed;
}

/// Reads an optional array member; null when absent.
Result<const JsonValue*> ArrayField(const JsonValue& o, const char* key) {
  const JsonValue* v = o.Find(key);
  if (v != nullptr && !v->is_array()) {
    return Status::InvalidArgument(std::string(key) + " must be an array");
  }
  return v;
}

}  // namespace

std::string EncodeQueryRequest(const QueryRequest& req) {
  JsonValue o = EncodeCommon(req, nullptr, req.query);
  if (req.has_algorithm) {
    o.Set("algorithm", JsonValue::Str(ToString(req.algorithm)));
  }
  return o.Serialize();
}

Result<QueryRequest> ParseQueryRequest(std::string_view json) {
  return ParseText<QueryRequest>(json, &ParseQueryRequest);
}

Result<QueryRequest> ParseQueryRequest(const JsonValue& o) {
  QueryRequest req;
  UOTS_RETURN_NOT_OK(DecodeCommon(o, kMaxQueryLocations, &req, &req.query));
  if (const JsonValue* algo = o.Find("algorithm")) {
    if (!algo->is_string()) {
      return Status::InvalidArgument("algorithm must be a string");
    }
    Result<AlgorithmKind> kind = ParseAlgorithmKind(algo->string_value());
    if (!kind.ok()) return kind.status();
    req.algorithm = *kind;
    req.has_algorithm = true;
  }
  return req;
}

RequestType RequestTypeOf(const JsonValue& o) {
  const JsonValue* type = o.Find("type");
  if (type == nullptr) return RequestType::kQuery;
  if (!type->is_string()) return RequestType::kUnknown;
  const std::string_view name = type->string_value();
  if (name == "query") return RequestType::kQuery;
  if (name == "ingest") return RequestType::kIngest;
  if (name == "trip") return RequestType::kTrip;
  return RequestType::kUnknown;
}

std::string EncodeIngestRequest(const IngestRequest& req) {
  JsonValue o = JsonValue::Object();
  o.Set("id", JsonValue::Int(req.id));
  o.Set("type", JsonValue::Str("ingest"));
  if (!req.request_id.empty()) {
    o.Set("request_id", JsonValue::Str(req.request_id));
  }
  JsonValue trips = JsonValue::Array();
  for (const Trajectory& t : req.trajectories) {
    JsonValue trip = JsonValue::Object();
    JsonValue samples = JsonValue::Array();
    for (const Sample& s : t.samples) {
      JsonValue pair = JsonValue::Array();
      pair.Append(JsonValue::Int(static_cast<int64_t>(s.vertex)));
      pair.Append(JsonValue::Int(s.time_s));
      samples.Append(std::move(pair));
    }
    trip.Set("samples", std::move(samples));
    trip.Set("keywords", IdArray(t.keywords.terms()));
    trips.Append(std::move(trip));
  }
  o.Set("trajectories", std::move(trips));
  return o.Serialize();
}

Result<IngestRequest> ParseIngestRequest(const JsonValue& o) {
  IngestRequest req;
  UOTS_RETURN_NOT_OK(DecodeIds(o, &req.id, &req.request_id));
  const JsonValue* trips = o.Find("trajectories");
  if (trips == nullptr || !trips->is_array()) {
    return Status::InvalidArgument("trajectories must be an array");
  }
  if (trips->array_items().empty()) {
    return Status::InvalidArgument("trajectories must not be empty");
  }
  if (trips->array_items().size() > kMaxIngestBatchTrajectories) {
    return Status::InvalidArgument(
        "too many trajectories in one batch (max " +
        std::to_string(kMaxIngestBatchTrajectories) + ")");
  }
  req.trajectories.reserve(trips->array_items().size());
  for (const JsonValue& trip : trips->array_items()) {
    if (!trip.is_object()) {
      return Status::InvalidArgument("trajectory must be an object");
    }
    Trajectory t;
    const JsonValue* samples = trip.Find("samples");
    if (samples == nullptr || !samples->is_array()) {
      return Status::InvalidArgument("trajectory samples must be an array");
    }
    if (samples->array_items().size() > kMaxIngestSamplesPerTrajectory) {
      return Status::InvalidArgument(
          "too many samples (max " +
          std::to_string(kMaxIngestSamplesPerTrajectory) + ")");
    }
    t.samples.reserve(samples->array_items().size());
    for (const JsonValue& pair : samples->array_items()) {
      if (!pair.is_array() || pair.array_items().size() != 2) {
        return Status::InvalidArgument(
            "sample must be a [vertex, time_s] pair");
      }
      int64_t vertex, time_s;
      UOTS_RETURN_NOT_OK(ReadInt(pair.array_items()[0], "vertex", &vertex));
      UOTS_RETURN_NOT_OK(ReadInt(pair.array_items()[1], "time_s", &time_s));
      if (vertex < 0 || vertex > UINT32_MAX) {
        return Status::InvalidArgument("sample vertex out of range");
      }
      if (time_s < 0 || time_s >= kSecondsPerDay) {
        return Status::InvalidArgument(
            "sample time_s must be in [0, 86400)");
      }
      t.samples.push_back(Sample{static_cast<VertexId>(vertex),
                                 static_cast<int32_t>(time_s)});
    }
    UOTS_RETURN_NOT_OK(DecodeTerms(trip.Find("keywords"),
                                   "trajectory keywords",
                                   kMaxIngestKeywordsPerTrajectory,
                                   &t.keywords));
    req.trajectories.push_back(std::move(t));
  }
  return req;
}

Result<IngestRequest> ParseIngestRequest(std::string_view json) {
  return ParseText<IngestRequest>(json, &ParseIngestRequest);
}

std::string EncodeIngestResponse(const IngestResponse& resp) {
  JsonValue o = EncodeEnvelope(resp);
  if (!resp.ok()) return o.Serialize();
  o.Set("accepted", JsonValue::Int(resp.accepted));
  o.Set("first_traj", JsonValue::Int(resp.first_traj));
  o.Set("generation", JsonValue::Int(resp.generation));
  o.Set("delta_trajectories", JsonValue::Int(resp.delta_trajectories));
  return o.Serialize();
}

Result<IngestResponse> ParseIngestResponse(std::string_view json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  IngestResponse resp;
  UOTS_RETURN_NOT_OK(DecodeEnvelope(*parsed, &resp));
  resp.accepted = IntField(*parsed, "accepted");
  resp.first_traj = IntField(*parsed, "first_traj", -1);
  resp.generation = IntField(*parsed, "generation");
  resp.delta_trajectories = IntField(*parsed, "delta_trajectories");
  return resp;
}

std::string EncodeQueryResponse(const QueryResponse& resp) {
  JsonValue items = JsonValue::Array();
  for (const ScoredTrajectory& st : resp.results) {
    JsonValue item = JsonValue::Object();
    item.Set("traj", JsonValue::Int(static_cast<int64_t>(st.id)));
    item.Set("score", JsonValue::Number(st.score));
    item.Set("spatial", JsonValue::Number(st.spatial_sim));
    item.Set("textual", JsonValue::Number(st.textual_sim));
    items.Append(std::move(item));
  }
  return EncodeResponse(resp, "results", std::move(items));
}

Result<QueryResponse> ParseQueryResponse(std::string_view json) {
  QueryResponse resp;
  Result<JsonValue> doc = DecodeResponse(json, &resp);
  if (!doc.ok()) return doc.status();
  Result<const JsonValue*> results = ArrayField(*doc, "results");
  if (!results.ok()) return results.status();
  if (*results == nullptr) return resp;
  for (const JsonValue& item : (*results)->array_items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("result item must be an object");
    }
    ScoredTrajectory st;
    int64_t traj = -1;
    if (const JsonValue* t = item.Find("traj")) {
      UOTS_RETURN_NOT_OK(ReadInt(*t, "traj", &traj));
    }
    st.id = static_cast<TrajId>(traj);
    st.score = NumberField(item, "score");
    st.spatial_sim = NumberField(item, "spatial");
    st.textual_sim = NumberField(item, "textual");
    resp.results.push_back(st);
  }
  return resp;
}

std::string EncodeTripRequest(const TripRequest& req) {
  JsonValue o = EncodeCommon(req, "trip", req.query);
  if (req.query.ordered) o.Set("ordered", JsonValue::Bool(true));
  if (req.query.use_categories) o.Set("categories", JsonValue::Bool(true));
  if (req.query.gap_budget_m > 0.0) {
    o.Set("gap_budget_m", JsonValue::Number(req.query.gap_budget_m));
  }
  o.Set("segments_per_location",
        JsonValue::Int(req.query.segments_per_location));
  o.Set("window", JsonValue::Int(req.query.window));
  return o.Serialize();
}

Result<TripRequest> ParseTripRequest(const JsonValue& o) {
  TripRequest req;
  UOTS_RETURN_NOT_OK(DecodeCommon(o, kMaxTripLocations, &req, &req.query));
  if (const JsonValue* ordered = o.Find("ordered")) {
    if (!ordered->is_bool()) {
      return Status::InvalidArgument("ordered must be a boolean");
    }
    req.query.ordered = ordered->bool_value();
  }
  if (const JsonValue* cats = o.Find("categories")) {
    if (!cats->is_bool()) {
      return Status::InvalidArgument("categories must be a boolean");
    }
    req.query.use_categories = cats->bool_value();
  }
  if (const JsonValue* gap = o.Find("gap_budget_m")) {
    if (!gap->is_number() || gap->number_value() < 0.0) {
      return Status::InvalidArgument("gap_budget_m must be a number >= 0");
    }
    req.query.gap_budget_m = gap->number_value();
  }
  if (const JsonValue* spl = o.Find("segments_per_location")) {
    int64_t v;
    UOTS_RETURN_NOT_OK(ReadInt(*spl, "segments_per_location", &v));
    if (v < 1 || v > 64) {
      return Status::InvalidArgument("segments_per_location out of range");
    }
    req.query.segments_per_location = static_cast<int>(v);
  }
  if (const JsonValue* window = o.Find("window")) {
    int64_t v;
    UOTS_RETURN_NOT_OK(ReadInt(*window, "window", &v));
    if (v < 0 || v > 1024) {
      return Status::InvalidArgument("window out of range");
    }
    req.query.window = static_cast<int>(v);
  }
  return req;
}

Result<TripRequest> ParseTripRequest(std::string_view json) {
  return ParseText<TripRequest>(json, &ParseTripRequest);
}

std::string EncodeTripResponse(const TripResponse& resp) {
  JsonValue trips = JsonValue::Array();
  for (const AssembledTrip& trip : resp.trips) {
    JsonValue t = JsonValue::Object();
    t.Set("score", JsonValue::Number(trip.score));
    t.Set("spatial", JsonValue::Number(trip.spatial_sim));
    t.Set("textual", JsonValue::Number(trip.textual_sim));
    t.Set("connector_m", JsonValue::Number(trip.connector_total_m));
    JsonValue segments = JsonValue::Array();
    for (const TripSegment& s : trip.segments) {
      JsonValue seg = JsonValue::Object();
      seg.Set("traj", JsonValue::Int(static_cast<int64_t>(s.traj)));
      seg.Set("begin", JsonValue::Int(static_cast<int64_t>(s.begin)));
      seg.Set("end", JsonValue::Int(static_cast<int64_t>(s.end)));
      seg.Set("entry", JsonValue::Int(static_cast<int64_t>(s.entry)));
      seg.Set("exit", JsonValue::Int(static_cast<int64_t>(s.exit)));
      seg.Set("loc_distance", JsonValue::Number(s.loc_distance));
      seg.Set("connector_m", JsonValue::Number(s.connector_m));
      segments.Append(std::move(seg));
    }
    t.Set("segments", std::move(segments));
    trips.Append(std::move(t));
  }
  return EncodeResponse(resp, "trips", std::move(trips));
}

Result<TripResponse> ParseTripResponse(std::string_view json) {
  TripResponse resp;
  Result<JsonValue> doc = DecodeResponse(json, &resp);
  if (!doc.ok()) return doc.status();
  Result<const JsonValue*> trips = ArrayField(*doc, "trips");
  if (!trips.ok()) return trips.status();
  if (*trips == nullptr) return resp;
  for (const JsonValue& t : (*trips)->array_items()) {
    if (!t.is_object()) {
      return Status::InvalidArgument("trip must be an object");
    }
    AssembledTrip trip;
    trip.score = NumberField(t, "score");
    trip.spatial_sim = NumberField(t, "spatial");
    trip.textual_sim = NumberField(t, "textual");
    trip.connector_total_m = NumberField(t, "connector_m");
    Result<const JsonValue*> segments = ArrayField(t, "segments");
    if (!segments.ok()) return segments.status();
    if (*segments != nullptr) {
      for (const JsonValue& sv : (*segments)->array_items()) {
        if (!sv.is_object()) {
          return Status::InvalidArgument("segment must be an object");
        }
        TripSegment s;
        s.traj = static_cast<TrajId>(IntField(sv, "traj", -1));
        s.begin = static_cast<uint32_t>(IntField(sv, "begin"));
        s.end = static_cast<uint32_t>(IntField(sv, "end"));
        s.entry = static_cast<VertexId>(IntField(sv, "entry", -1));
        s.exit = static_cast<VertexId>(IntField(sv, "exit", -1));
        s.loc_distance = NumberField(sv, "loc_distance");
        s.connector_m = NumberField(sv, "connector_m");
        trip.segments.push_back(s);
      }
    }
    resp.trips.push_back(std::move(trip));
  }
  return resp;
}

}  // namespace uots
