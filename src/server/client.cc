#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace uots {

BlockingClient::~BlockingClient() { Close(); }

void BlockingClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status BlockingClient::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Status::IOError("socket: " + std::string(std::strerror(errno)));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status st =
        Status::IOError("connect: " + std::string(std::strerror(errno)));
    Close();
    return st;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

Status BlockingClient::WriteAll(const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    return Status::IOError("send: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Status BlockingClient::SendPayload(const std::string& payload) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  const std::string frame = EncodeFrame(payload);
  return WriteAll(frame.data(), frame.size());
}

Result<std::string> BlockingClient::ReceivePayload() {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  for (;;) {
    std::string payload;
    size_t oversized = 0;
    const FrameDecoder::Next next = decoder_.Poll(&payload, &oversized);
    if (next == FrameDecoder::Next::kFrame) return payload;
    if (next == FrameDecoder::Next::kOversized) {
      return Status::IOError("server sent an oversized frame (" +
                             std::to_string(oversized) + " bytes)");
    }
    char buf[16384];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IOError("connection closed by server");
    if (errno == EINTR) continue;
    return Status::IOError("recv: " + std::string(std::strerror(errno)));
  }
}

template <class Response>
Result<Response> BlockingClient::ReceiveAs(
    Result<Response> (*parse)(std::string_view)) {
  Result<std::string> payload = ReceivePayload();
  if (!payload.ok()) return payload.status();
  return parse(*payload);
}

template <class Request, class Response>
Result<Response> BlockingClient::RoundTrip(
    const Request& req, Result<Response> (*parse)(std::string_view)) {
  UOTS_RETURN_NOT_OK(Send(req));
  return ReceiveAs(parse);
}

Status BlockingClient::Send(const QueryRequest& req) {
  return SendPayload(EncodeQueryRequest(req));
}
Status BlockingClient::Send(const IngestRequest& req) {
  return SendPayload(EncodeIngestRequest(req));
}
Status BlockingClient::Send(const TripRequest& req) {
  return SendPayload(EncodeTripRequest(req));
}

Result<QueryResponse> BlockingClient::Receive() {
  return ReceiveAs(&ParseQueryResponse);
}
Result<IngestResponse> BlockingClient::ReceiveIngest() {
  return ReceiveAs(&ParseIngestResponse);
}
Result<TripResponse> BlockingClient::ReceiveTrip() {
  return ReceiveAs(&ParseTripResponse);
}

Result<QueryResponse> BlockingClient::Call(const QueryRequest& req) {
  return RoundTrip(req, &ParseQueryResponse);
}
Result<IngestResponse> BlockingClient::Call(const IngestRequest& req) {
  return RoundTrip(req, &ParseIngestResponse);
}
Result<TripResponse> BlockingClient::Call(const TripRequest& req) {
  return RoundTrip(req, &ParseTripResponse);
}

}  // namespace uots
