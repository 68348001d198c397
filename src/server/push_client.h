// The pushing half of the aggregation tier (docs/SERVING.md
// "Aggregation tier"): an ingest node ships its flush-barrier sketch
// image to an aggregator over LTCQ's PUSH_SKETCH, surviving a lossy
// network by design.
//
// Failure model — at-least-once delivery:
//
//   * Every socket step (connect, send, recv of the ack) runs under a
//     deadline; a hung aggregator costs one deadline, never forever.
//   * Any transport failure tears the connection down and retries the
//     WHOLE push — reconnect included — on the injectable
//     BackoffPolicy/Clock seam (common/backoff.h), so the retry
//     schedule is exactly testable with a FakeClock.
//   * Because a failure after send may still have delivered the frame,
//     a retry can duplicate a push. That is fine on purpose: pushes are
//     cumulative and epoch-tagged, and the aggregator acks duplicates
//     idempotently (kOk, applied=0). Delivered-with-lost-ack is the
//     classic case, covered by the drop_ack transport fault.
//   * Typed server rejections (stale epoch, shape mismatch, bad sketch,
//     not an aggregator) are TERMINAL — retrying cannot fix a shape —
//     and stop the backoff loop immediately.
//
// The socket work hides behind PushTransport so the chaos tests compose
// a FaultyTransport (src/testing/faulty_transport.h) over the real one;
// production uses TcpPushTransport.

#ifndef LTC_SERVER_PUSH_CLIENT_H_
#define LTC_SERVER_PUSH_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/backoff.h"
#include "common/clock.h"
#include "core/ltc.h"
#include "server/protocol.h"
#include "telemetry/metrics.h"

namespace ltc {
namespace server {

/// Blocking, deadline-bounded byte transport — the seam the fault
/// injector wraps. One connection at a time; Connect after Close
/// reconnects.
class PushTransport {
 public:
  virtual ~PushTransport() = default;

  /// False on refusal, unreachability, or deadline expiry.
  virtual bool Connect(const std::string& host, uint16_t port,
                       uint64_t deadline_usec) = 0;

  /// Sends all of `bytes` or fails. False also covers a broken pipe.
  virtual bool Send(std::string_view bytes, uint64_t deadline_usec) = 0;

  /// Appends up to `max_bytes` received bytes to `out`. False on error,
  /// peer EOF, or deadline expiry with nothing read.
  virtual bool Recv(std::string* out, size_t max_bytes,
                    uint64_t deadline_usec) = 0;

  virtual void Close() = 0;
  virtual bool connected() const = 0;
};

/// POSIX TCP implementation: nonblocking socket + poll(2) deadlines,
/// mirroring the server's dependency-free stance.
class TcpPushTransport final : public PushTransport {
 public:
  TcpPushTransport() = default;
  ~TcpPushTransport() override { Close(); }

  TcpPushTransport(const TcpPushTransport&) = delete;
  TcpPushTransport& operator=(const TcpPushTransport&) = delete;

  bool Connect(const std::string& host, uint16_t port,
               uint64_t deadline_usec) override;
  bool Send(std::string_view bytes, uint64_t deadline_usec) override;
  bool Recv(std::string* out, size_t max_bytes,
            uint64_t deadline_usec) override;
  void Close() override;
  bool connected() const override { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

struct SketchPusherConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Stable identity of this node at the aggregator. Two pushers MUST
  /// NOT share a node_id (the second would keep superseding the first).
  uint64_t node_id = 1;

  /// Per-step deadline (connect, send, ack recv each get one).
  uint64_t io_deadline_usec = 5'000'000;

  /// Retry schedule for transport failures. The default retries hard —
  /// an aggregation push is worth waiting out a restart for.
  BackoffPolicy retry{/*max_attempts=*/8, /*initial_delay_usec=*/20'000,
                      /*multiplier=*/2.0, /*max_delay_usec=*/1'000'000,
                      /*jitter=*/0.25, /*seed=*/1};

  /// Append the v3 trace-context extension to push frames, parenting
  /// the aggregator's merge span under this node's delivery span. Only
  /// effective while a FlightRecorder is installed AND the server
  /// speaks v3 — leave off against pre-v3 aggregators (they answer
  /// extended frames with kErrMalformed).
  bool propagate_trace = false;
};

/// One node's push loop: serialize a finalized flush-barrier clone,
/// deliver it with retries, interpret the ack. Single-threaded.
class SketchPusher {
 public:
  struct Result {
    bool delivered = false;   // an ack with status kOk arrived
    bool applied = false;     // false on a duplicate ack
    bool terminal = false;    // rejected with a typed error: do not retry
    Status status = Status::kOk;  // kOk, or the rejection status
    std::string error;        // last transport/protocol failure detail
  };

  /// The transport must outlive the pusher. `clock` defaults to
  /// SystemClock; tests inject FakeClock so retry schedules cost no
  /// wall time.
  SketchPusher(const SketchPusherConfig& config, PushTransport* transport,
               Clock* clock = nullptr);

  SketchPusher(const SketchPusher&) = delete;
  SketchPusher& operator=(const SketchPusher&) = delete;

  /// Publishes the ltc_push_* families (docs/TELEMETRY.md) from the
  /// pusher's own counters. Call it from the pushing thread.
  void Collect(telemetry::MetricsRegistry& registry) const;

  /// Pushes `table` (finalized — Finalize the clone first) as epoch
  /// `epoch_seq`, blocking through the retry schedule. `records` is the
  /// stream position at the table's barrier. The table is serialized
  /// straight into the frame, which every attempt re-sends.
  Result Push(const Ltc& table, uint64_t epoch_seq, uint64_t records);

  uint64_t attempts() const { return attempts_; }
  uint64_t retries() const { return retries_; }
  uint64_t rejected() const { return rejected_; }
  uint64_t delivered() const { return delivered_; }

 private:
  /// One wire round trip. Returns true on a decoded ack (fills
  /// `result`); false = transport/protocol failure worth retrying.
  bool Attempt(const std::string& frame, Result* result);

  SketchPusherConfig config_;
  PushTransport* transport_;
  Clock* clock_;
  std::string frame_;  // the push being delivered; capacity kept

  uint64_t attempts_ = 0;
  uint64_t retries_ = 0;
  uint64_t rejected_ = 0;
  uint64_t delivered_ = 0;
};

}  // namespace server
}  // namespace ltc

#endif  // LTC_SERVER_PUSH_CLIENT_H_
