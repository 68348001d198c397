#include "server/query_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

namespace ltc {
namespace server {

namespace {

/// Backpressure: while a connection has this many unflushed response
/// bytes, the loop stops reading from it (a pipelining client that
/// never drains its socket cannot balloon server memory).
constexpr size_t kMaxBufferedOut = 1 << 20;

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

}  // namespace

QueryServer::QueryServer(const ReadSnapshotHub& hub, const KeyCodec& codec,
                         uint32_t num_shards, const QueryServerConfig& config)
    : hub_(hub), config_(config), dispatcher_(hub, codec, num_shards) {}

QueryServer::~QueryServer() { Stop(); }

void QueryServer::Collect(telemetry::MetricsRegistry& registry) const {
  static constexpr Opcode kOps[] = {
      Opcode::kPing,                 Opcode::kTopK,
      Opcode::kEstimateSignificance, Opcode::kEstimateFrequency,
      Opcode::kEstimatePersistency,  Opcode::kStats,
      Opcode::kPushSketch,           Opcode::kDumpTrace,
  };
  static constexpr Status kErrs[] = {
      Status::kErrUnknownOpcode,  Status::kErrMalformed,
      Status::kErrBadKey,         Status::kErrOversized,
      Status::kErrNoSnapshot,     Status::kErrBadRequest,
      Status::kErrShapeMismatch,  Status::kErrStaleEpoch,
      Status::kErrBadSketch,      Status::kErrNotAggregator,
  };
  const DispatchStats stats = dispatcher_.stats();
  for (Opcode op : kOps) {
    registry
        .CounterOf("ltc_server_requests_total", "Requests handled, by opcode.",
                   {{"op", OpcodeName(op)}})
        .SetFromSample(stats.by_opcode[static_cast<size_t>(op)]);
  }
  for (Status st : kErrs) {
    registry
        .CounterOf("ltc_server_errors_total", "Error responses sent, by kind.",
                   {{"kind", StatusName(st)}})
        .SetFromSample(stats.by_status[static_cast<size_t>(st)]);
  }
  registry
      .HistogramOf("ltc_server_request_duration_usec",
                   "Wall time from frame decode to response enqueue, "
                   "microseconds.")
      .SetFromSample(request_duration_usec_);
  const auto load = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  registry
      .CounterOf("ltc_server_connections_opened_total",
                 "Client connections accepted.")
      .SetFromSample(load(conns_opened_));
  registry
      .CounterOf("ltc_server_connections_rejected_total",
                 "Connections refused because max_connections was reached.")
      .SetFromSample(load(conns_rejected_));
  registry
      .CounterOf("ltc_server_connections_idle_closed_total",
                 "Connections evicted after idle_timeout_usec without "
                 "traffic.")
      .SetFromSample(load(conns_idle_closed_));
  registry
      .GaugeOf("ltc_server_connections_open",
               "Client connections currently open.")
      .Set(static_cast<double>(load(conns_open_)));
  registry
      .GaugeOf("ltc_server_snapshot_seq",
               "Publish sequence of the snapshot answering queries.")
      .Set(static_cast<double>(load(snapshot_seq_)));
  registry
      .CounterOf("ltc_server_bytes_read_total",
                 "Request bytes read from clients.")
      .SetFromSample(load(bytes_read_));
  registry
      .CounterOf("ltc_server_bytes_written_total",
                 "Response bytes written to clients.")
      .SetFromSample(load(bytes_written_));
}

bool QueryServer::Start(std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + std::strerror(errno);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    for (int& fd : wake_pipe_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    errno = EINVAL;
    return fail("inet_pton");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, config_.backlog) != 0) return fail("listen");
  if (!SetNonBlocking(listen_fd_)) return fail("fcntl");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) return fail("pipe2");

  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  started_ = true;
  loop_ = std::thread(&QueryServer::Loop, this);
  return true;
}

void QueryServer::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  const char byte = 'x';
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  if (loop_.joinable()) loop_.join();
  started_ = false;
  running_.store(false, std::memory_order_release);
}

void QueryServer::CloseConn(Conn& conn) {
  if (conn.fd < 0) return;
  ::close(conn.fd);
  conn.fd = -1;
  conns_open_.fetch_sub(1, std::memory_order_relaxed);
}

bool QueryServer::FlushWrites(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      conn.last_activity_usec = NowMicros();
      bytes_written_.fetch_add(static_cast<uint64_t>(n),
                               std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;  // EPIPE / ECONNRESET / ...: the peer is gone
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  } else if (conn.out_off > (1 << 16)) {
    conn.out.erase(0, conn.out_off);
    conn.out_off = 0;
  }
  return true;
}

void QueryServer::RecordRequest(uint64_t micros) {
  request_duration_usec_.Record(micros);
  snapshot_seq_.store(hub_.PublishedSeq(), std::memory_order_relaxed);
}

bool QueryServer::HandleReadable(Conn& conn) {
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_read_.fetch_add(static_cast<uint64_t>(n),
                            std::memory_order_relaxed);
      conn.last_activity_usec = NowMicros();
      conn.parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      // Be fair: one whole frame per turn, then the other connections
      // get theirs. The parser caps a frame's length, so the turn is
      // bounded, and a pushed sketch is read whole rather than in
      // slices that other connections' queries overtake.
      if (conn.parser.HasFrame()) break;
      continue;
    }
    if (n == 0) {
      conn.peer_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }

  while (true) {
    // In place: the payload is dispatched before the next Feed.
    const std::optional<std::string_view> payload = conn.parser.NextView();
    if (!payload.has_value()) break;
    const uint64_t t0 = NowMicros();
    const std::string response = dispatcher_.Handle(*payload);
    RecordRequest(NowMicros() - t0);
    conn.out += EncodeFrame(response);
  }
  if (conn.parser.oversized() && !conn.close_after_flush) {
    // The length prefix itself is untrusted, so the stream cannot be
    // resynchronized: answer with a typed error, then hang up cleanly.
    const std::string response = dispatcher_.RejectOversized();
    RecordRequest(0);
    conn.out += EncodeFrame(response);
    conn.close_after_flush = true;
  }
  return true;
}

void QueryServer::HandleListener() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or transient accept errors: retry on next poll
    }
    size_t open = 0;
    for (const auto& conn : conns_) {
      if (conn->fd >= 0) ++open;
    }
    if (open >= config_.max_connections) {
      ::close(fd);
      conns_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto conn = std::make_unique<Conn>(config_.max_frame_bytes,
                                       config_.max_push_frame_bytes);
    conn->fd = fd;
    conn->last_activity_usec = NowMicros();
    conns_.push_back(std::move(conn));
    conns_opened_.fetch_add(1, std::memory_order_relaxed);
    conns_open_.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryServer::Loop() {
  bool draining = false;
  uint64_t drain_deadline = 0;
  int quiet_rounds = 0;

  while (true) {
    if (!draining && stop_.load(std::memory_order_acquire)) {
      // Graceful drain: stop accepting, keep answering what is already
      // connected, flush every response, then FIN.
      draining = true;
      drain_deadline = NowMicros() + config_.drain_grace_usec;
      ::close(listen_fd_);
      listen_fd_ = -1;
    }

    std::vector<pollfd> fds;
    fds.reserve(conns_.size() + 2);
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    const size_t conns_base = fds.size() + (listen_fd_ >= 0 ? 1 : 0);
    if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& conn : conns_) {
      short events = 0;
      const size_t pending = conn->out.size() - conn->out_off;
      if (!conn->peer_eof && !conn->close_after_flush &&
          pending < kMaxBufferedOut) {
        events |= POLLIN;
      }
      if (pending > 0) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }

    // Idle eviction needs time to pass even when no socket stirs, so it
    // polls with a finite timeout.
    int timeout_ms = -1;
    if (draining) {
      timeout_ms = 20;
    } else if (config_.idle_timeout_usec > 0) {
      timeout_ms = 250;
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;  // unrecoverable poll failure

    if (fds[0].revents & POLLIN) {
      char sink[64];
      while (::read(wake_pipe_[0], sink, sizeof(sink)) > 0) {
      }
    }
    if (listen_fd_ >= 0 && (fds[conns_base - 1].revents & POLLIN)) {
      HandleListener();
    }

    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = *conns_[i];
      if (conn.fd < 0 || i + conns_base >= fds.size()) continue;
      const short revents = fds[i + conns_base].revents;
      bool ok = true;
      if (revents & (POLLIN | POLLHUP)) ok = HandleReadable(conn);
      if (ok && (conn.out_off < conn.out.size())) ok = FlushWrites(conn);
      if (!ok || (revents & (POLLERR | POLLNVAL))) {
        CloseConn(conn);
        continue;
      }
      const bool flushed = conn.out_off >= conn.out.size();
      if (flushed && (conn.peer_eof || conn.close_after_flush)) {
        ::shutdown(conn.fd, SHUT_WR);
        CloseConn(conn);
      }
    }
    // Evict slow-loris peers: a connection that moved no bytes in
    // either direction for the whole idle budget gives up its slot.
    // Not during drain — drain has its own (shorter) deadline.
    if (!draining && config_.idle_timeout_usec > 0) {
      const uint64_t now = NowMicros();
      for (const auto& conn : conns_) {
        if (conn->fd < 0) continue;
        if (now - conn->last_activity_usec < config_.idle_timeout_usec) {
          continue;
        }
        conns_idle_closed_.fetch_add(1, std::memory_order_relaxed);
        ::shutdown(conn->fd, SHUT_WR);
        CloseConn(*conn);
      }
    }
    std::erase_if(conns_, [](const std::unique_ptr<Conn>& c) {
      return c->fd < 0;
    });

    if (draining) {
      bool all_flushed = true;
      for (const auto& conn : conns_) {
        if (conn->out_off < conn->out.size() ||
            conn->parser.buffered_bytes() >= 4) {
          all_flushed = false;
          break;
        }
      }
      // One extra quiet poll round after everything is flushed catches
      // requests whose bytes were in flight when the drain began.
      if (all_flushed) {
        if (++quiet_rounds >= 2) break;
      } else {
        quiet_rounds = 0;
      }
      if (NowMicros() >= drain_deadline) break;
    }
  }

  // FIN every surviving connection; never RST mid-response.
  for (const auto& conn : conns_) {
    if (conn->fd < 0) continue;
    ::shutdown(conn->fd, SHUT_WR);
    CloseConn(*conn);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

}  // namespace server
}  // namespace ltc
