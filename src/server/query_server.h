// A dependency-free TCP front end for live LTC queries
// (docs/SERVING.md). Mirrors src/telemetry's zero-dep stance: POSIX
// sockets + poll(2), nothing else.
//
// Architecture: one event-loop thread owns every connection — accept,
// nonblocking reads, frame parsing, dispatch, buffered writes — and
// answers every query from the current ReadSnapshotHub image. The
// ingest path is never touched: readers pin immutable flush-barrier
// snapshots (core/read_snapshot.h), so a flood of point queries cannot
// stall the writer, and a stalled client cannot tear a read.
//
// Lifecycle: Start() binds, listens and spawns the loop; Stop() drains
// gracefully — stop accepting, answer everything already in flight,
// flush every response buffer, then close with FIN (never RST) — and
// joins. ltc_cli --serve calls Stop() on SIGINT/SIGTERM before it
// checkpoints, so "interrupted" clients still get their answers
// (proven end to end by tools/server_e2e.sh).

#ifndef LTC_SERVER_QUERY_SERVER_H_
#define LTC_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/read_snapshot.h"
#include "server/dispatcher.h"
#include "server/key_codec.h"
#include "server/protocol.h"
#include "telemetry/metrics.h"

namespace ltc {
namespace server {

struct QueryServerConfig {
  /// TCP port; 0 = ephemeral (read the real one from port() after
  /// Start — the e2e scripts and unit tests use this).
  uint16_t port = 0;

  /// Bind address. Loopback by default: exposing a sketch service
  /// beyond the host is a deliberate ops decision ("0.0.0.0").
  std::string bind_address = "127.0.0.1";

  int backlog = 64;

  /// Connections beyond this are accepted and immediately closed
  /// (counted in ltc_server_connections_rejected_total).
  size_t max_connections = 256;

  /// Frame-size ceiling, both directions.
  size_t max_frame_bytes = kMaxFrameBytes;

  /// Ceiling for PUSH_SKETCH request frames (see FrameParser). Leave at
  /// max_frame_bytes for a query-only server; aggregator mode raises it
  /// to kMaxPushFrameBytes so serialized sketches fit.
  size_t max_push_frame_bytes = kMaxFrameBytes;

  /// Stop(): how long the drain may spend flushing response buffers to
  /// slow readers before force-closing them.
  uint64_t drain_grace_usec = 3'000'000;

  /// Connections with no traffic in either direction for this long are
  /// closed (counted in ltc_server_connections_idle_closed_total), so a
  /// slow-loris peer cannot hold a max_connections slot forever. 0
  /// disables eviction.
  uint64_t idle_timeout_usec = 300'000'000;
};

class QueryServer {
 public:
  /// The hub and codec must outlive the server. `num_shards` is
  /// advertised by STATS (0 = single table).
  QueryServer(const ReadSnapshotHub& hub, const KeyCodec& codec,
              uint32_t num_shards, const QueryServerConfig& config = {});

  /// Stops and joins (graceful drain), if still running.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Publishes the ltc_server_* families (docs/TELEMETRY.md) from the
  /// server's own counters and the dispatcher's. Any thread, while the
  /// loop runs or after Stop: every value it reads is a relaxed atomic
  /// (or an atomic histogram) that only the loop thread writes.
  void Collect(telemetry::MetricsRegistry& registry) const;

  /// Turns this server into the aggregation tier's front end: the event
  /// loop dispatches PUSH_SKETCH into `aggregator`. Call before Start
  /// (the aggregator is then driven exclusively by the loop thread,
  /// which also makes it the hub's single publisher). Must outlive the
  /// server.
  void AttachAggregator(AggregatorCore* aggregator) {
    dispatcher_.AttachAggregator(aggregator);
  }

  /// Binds, listens and spawns the event loop. False (with `error`)
  /// when the socket setup fails; the server is then inert and Start
  /// may be retried with a different config. Not restartable after
  /// Stop().
  bool Start(std::string* error);

  /// The port actually bound (resolves port 0). 0 before Start.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Graceful drain and join; idempotent. After Stop the listener is
  /// closed, every in-flight response has been flushed (or the drain
  /// grace expired) and all connections got a clean FIN.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Operational counters (any thread).
  uint64_t TotalRequests() const { return dispatcher_.stats().requests; }
  uint64_t TotalErrors() const { return dispatcher_.stats().errors; }
  uint64_t ConnectionsOpened() const {
    return conns_opened_.load(std::memory_order_relaxed);
  }
  uint64_t ConnectionsRejected() const {
    return conns_rejected_.load(std::memory_order_relaxed);
  }
  uint64_t ConnectionsIdleClosed() const {
    return conns_idle_closed_.load(std::memory_order_relaxed);
  }
  uint64_t BytesRead() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  uint64_t BytesWritten() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    int fd = -1;
    FrameParser parser;
    std::string out;       // unsent response bytes
    size_t out_off = 0;
    bool peer_eof = false;        // read side closed by the peer
    bool close_after_flush = false;  // poisoned stream: flush, then close
    uint64_t last_activity_usec = 0;  // idle-eviction clock

    Conn(size_t max_frame_bytes, size_t max_push_frame_bytes)
        : parser(max_frame_bytes, max_push_frame_bytes) {}
  };

  void Loop();
  void HandleListener();
  /// Reads, parses and dispatches; queues responses. False = close now.
  bool HandleReadable(Conn& conn);
  /// Flushes the out buffer. False = fatal write error, close now.
  bool FlushWrites(Conn& conn);
  void CloseConn(Conn& conn);
  void RecordRequest(uint64_t micros);

  const ReadSnapshotHub& hub_;
  QueryServerConfig config_;
  QueryDispatcher dispatcher_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: Stop() wakes poll()
  std::atomic<uint16_t> port_{0};
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  bool started_ = false;  // Start/Stop called from the owning thread

  std::vector<std::unique_ptr<Conn>> conns_;

  // Loop-thread-written, read by Collect and the accessors from any
  // thread. Request and error counts live in the dispatcher.
  std::atomic<uint64_t> conns_opened_{0};
  std::atomic<uint64_t> conns_rejected_{0};
  std::atomic<uint64_t> conns_idle_closed_{0};
  std::atomic<uint64_t> conns_open_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> snapshot_seq_{0};  // hub seq at the last request
  telemetry::Histogram request_duration_usec_;
};

}  // namespace server
}  // namespace ltc

#endif  // LTC_SERVER_QUERY_SERVER_H_
