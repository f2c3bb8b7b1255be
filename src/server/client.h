// Blocking client for the UOTS wire protocol.
//
// One connection, synchronous request/response. This is the reference
// implementation of the protocol from the client side — the load generator
// (apps/uots_client) and the loopback integration tests both drive it.
// Pipelining is supported by splitting Call into Send + Receive: queue any
// number of Sends, then Receive the responses. Responses correlate by id;
// their order is the server's completion order, not request order.

#ifndef UOTS_SERVER_CLIENT_H_
#define UOTS_SERVER_CLIENT_H_

#include <cstdint>
#include <string>

#include "server/protocol.h"
#include "util/status.h"

namespace uots {

/// \brief Synchronous TCP client speaking the length-prefixed JSON protocol.
class BlockingClient {
 public:
  BlockingClient() = default;
  ~BlockingClient();

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  /// Connects (blocking) to host:port. `host` is a dotted-quad address.
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends one request frame (blocking until fully written).
  Status Send(const QueryRequest& req);
  Status Send(const IngestRequest& req);
  Status Send(const TripRequest& req);

  /// Receives the next response frame (blocking), decoded as a query,
  /// ingest or trip response. Responses arrive in completion order; match
  /// them to requests by id.
  Result<QueryResponse> Receive();
  Result<IngestResponse> ReceiveIngest();
  Result<TripResponse> ReceiveTrip();

  /// Send + the matching Receive (one request in flight, so the next frame
  /// is its answer).
  Result<QueryResponse> Call(const QueryRequest& req);
  Result<IngestResponse> Call(const IngestRequest& req);
  Result<TripResponse> Call(const TripRequest& req);

 private:
  Status WriteAll(const char* data, size_t n);
  Status SendPayload(const std::string& payload);
  /// The one frame-receive loop behind every Receive*.
  Result<std::string> ReceivePayload();
  template <class Response>
  Result<Response> ReceiveAs(Result<Response> (*parse)(std::string_view));
  template <class Request, class Response>
  Result<Response> RoundTrip(const Request& req,
                             Result<Response> (*parse)(std::string_view));

  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace uots

#endif  // UOTS_SERVER_CLIENT_H_
