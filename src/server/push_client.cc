#include "server/push_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <utility>

#include "common/serial.h"
#include "telemetry/trace.h"

namespace ltc {
namespace server {

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Polls `fd` for `events` until the absolute deadline. True when the
/// event fired; false on expiry or poll failure.
bool PollUntil(int fd, short events, uint64_t deadline_usec) {
  while (true) {
    const uint64_t now = NowMicros();
    if (now >= deadline_usec) return false;
    const uint64_t remaining_ms = (deadline_usec - now) / 1'000;
    pollfd pfd{fd, events, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(remaining_ms > 0 ? remaining_ms : 1));
    if (ready > 0) return (pfd.revents & (events | POLLHUP | POLLERR)) != 0;
    if (ready < 0 && errno != EINTR) return false;
  }
}

}  // namespace

bool TcpPushTransport::Connect(const std::string& host, uint16_t port,
                               uint64_t deadline_usec) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  if (!SetNonBlocking(fd_)) {
    Close();
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return false;
  }
  const uint64_t deadline = NowMicros() + deadline_usec;
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      Close();
      return false;
    }
    if (!PollUntil(fd_, POLLOUT, deadline)) {
      Close();
      return false;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      Close();
      return false;
    }
  }
  return true;
}

bool TcpPushTransport::Send(std::string_view bytes, uint64_t deadline_usec) {
  if (fd_ < 0) return false;
  const uint64_t deadline = NowMicros() + deadline_usec;
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!PollUntil(fd_, POLLOUT, deadline)) return false;
      continue;
    }
    return false;
  }
  return true;
}

bool TcpPushTransport::Recv(std::string* out, size_t max_bytes,
                            uint64_t deadline_usec) {
  if (fd_ < 0 || max_bytes == 0) return false;
  const uint64_t deadline = NowMicros() + deadline_usec;
  char buf[4096];
  while (true) {
    const size_t want = max_bytes < sizeof(buf) ? max_bytes : sizeof(buf);
    const ssize_t n = ::recv(fd_, buf, want, 0);
    if (n > 0) {
      out->append(buf, static_cast<size_t>(n));
      return true;
    }
    if (n == 0) return false;  // peer EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!PollUntil(fd_, POLLIN, deadline)) return false;
      continue;
    }
    return false;
  }
}

void TcpPushTransport::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

SketchPusher::SketchPusher(const SketchPusherConfig& config,
                           PushTransport* transport, Clock* clock)
    : config_(config),
      transport_(transport),
      clock_(clock != nullptr ? clock : &SystemClock()) {}

void SketchPusher::Collect(telemetry::MetricsRegistry& registry) const {
  registry
      .CounterOf("ltc_push_attempts_total",
                 "Push delivery attempts (first tries and retries both "
                 "count).")
      .SetFromSample(attempts_);
  registry
      .CounterOf("ltc_push_retries_total",
                 "Push re-attempts after a transport failure.")
      .SetFromSample(retries_);
  registry
      .CounterOf("ltc_push_rejected_total",
                 "Pushes terminally rejected by the aggregator (typed error).")
      .SetFromSample(rejected_);
  registry
      .CounterOf("ltc_push_delivered_total", "Pushes acknowledged with kOk.")
      .SetFromSample(delivered_);
}

SketchPusher::Result SketchPusher::Push(const Ltc& table, uint64_t epoch_seq,
                                        uint64_t records) {
  PushHeader header;
  header.node_id = config_.node_id;
  header.epoch_seq = epoch_seq;
  header.sketch_kind = kSketchKindLtc;
  header.records = records;
  BeginPushFrame(header, table.SerializedBytes(), &frame_);
  BinaryWriter writer(std::move(frame_));
  table.Serialize(writer);
  frame_ = writer.Release();

  // The delivery span covers the whole retry schedule; each attempt is
  // a child, so a retry storm is visible as a fan of attempt spans.
  telemetry::Span deliver_span("push.deliver");
  deliver_span.AddAttr("node", config_.node_id);
  deliver_span.AddAttr("epoch", epoch_seq);
  std::optional<TraceContextExt> ext;
  if (config_.propagate_trace && deliver_span.recording()) {
    const telemetry::TraceContext ctx = deliver_span.context();
    ext = TraceContextExt{ctx.trace_id, ctx.span_id};
  }
  FinishPushFrame(ext, &frame_);

  Result result;
  const bool delivered = RetryWithBackoff(
      config_.retry, *clock_,
      [&] {
        attempts_++;
        telemetry::Span attempt_span("push.attempt");
        attempt_span.AddAttr("attempt", attempts_);
        if (Attempt(frame_, &result)) return true;
        // Whatever broke, the stream state is unknowable: reconnect.
        transport_->Close();
        return false;
      },
      &retries_);

  if (!delivered) {
    // Every attempt failed at the transport level; result.error holds
    // the last failure. Terminal flags were already folded in by
    // Attempt (a typed rejection returns true to stop the retry loop).
    return result;
  }
  if (result.terminal) {
    rejected_++;
    return result;
  }
  delivered_++;
  return result;
}

bool SketchPusher::Attempt(const std::string& frame, Result* result) {
  if (!transport_->connected() &&
      !transport_->Connect(config_.host, config_.port,
                           config_.io_deadline_usec)) {
    result->error = "connect failed or timed out";
    return false;
  }
  if (!transport_->Send(frame, config_.io_deadline_usec)) {
    result->error = "send failed or timed out";
    return false;
  }

  // The ack is an ordinary (small) response frame; read until the
  // parser pops it or the deadline runs out.
  FrameParser parser;
  std::string chunk;
  while (true) {
    std::optional<std::string> payload = parser.Next();
    if (payload.has_value()) {
      std::optional<DecodedResponse> decoded =
          DecodeResponse(Opcode::kPushSketch, *payload);
      if (!decoded.has_value()) {
        result->error = "undecodable push ack";
        return false;
      }
      result->status = decoded->status;
      if (decoded->status == Status::kOk) {
        result->delivered = true;
        result->applied = decoded->push_applied;
        result->terminal = false;
        result->error.clear();
        return true;
      }
      // A typed rejection is authoritative: retrying the same bytes
      // cannot change the answer. Report it and stop the loop.
      result->delivered = false;
      result->applied = false;
      result->terminal = true;
      result->error = decoded->error_detail.empty()
                          ? StatusName(decoded->status)
                          : decoded->error_detail;
      return true;
    }
    if (parser.oversized()) {
      result->error = "oversized push ack frame";
      return false;
    }
    chunk.clear();
    if (!transport_->Recv(&chunk, 4096, config_.io_deadline_usec)) {
      result->error = "ack recv failed or timed out";
      return false;
    }
    parser.Feed(chunk);
  }
}

}  // namespace server
}  // namespace ltc
