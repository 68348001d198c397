// Request dispatch: one protocol payload in, one response payload out.
//
// The dispatcher is the server's brain, separated from the socket event
// loop so the protocol unit tests and the malformed-bytes fuzz loop
// (tests/server_test.cc) can drive it directly: for EVERY input byte
// string it returns a well-formed response payload — kOk with the
// answer, or a typed error — and never throws or crashes.
//
// Every query is answered from one pinned ReadSnapshotHub image, so a
// single response is always internally consistent, and consecutive
// responses only ever move forward in snapshot sequence.

#ifndef LTC_SERVER_DISPATCHER_H_
#define LTC_SERVER_DISPATCHER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/read_snapshot.h"
#include "server/key_codec.h"
#include "server/protocol.h"

namespace ltc {
namespace server {

class AggregatorCore;

/// A copy of the dispatch counters (QueryDispatcher::stats()): the one
/// source of the server's request totals and of the ltc_server_*
/// per-opcode and per-status families.
struct DispatchStats {
  uint64_t requests = 0;  // total payloads handled
  uint64_t errors = 0;    // payloads answered with a non-kOk status
  uint64_t by_opcode[9] = {};   // index = opcode byte, errors included
  uint64_t by_status[11] = {};  // index = Status value
};

class QueryDispatcher {
 public:
  /// `num_shards` is advertised by STATS (0 = single table). The hub
  /// and codec must outlive the dispatcher.
  QueryDispatcher(const ReadSnapshotHub& hub, const KeyCodec& codec,
                  uint32_t num_shards)
      : hub_(hub), codec_(codec), num_shards_(num_shards) {}

  /// Enables PUSH_SKETCH handling and the STATS node rows. Without an
  /// aggregator attached, pushes are answered kErrNotAggregator. The
  /// aggregator must outlive the dispatcher and is driven from the same
  /// (single) thread that calls Handle.
  void AttachAggregator(AggregatorCore* aggregator) {
    aggregator_ = aggregator;
  }

  /// Handles one request payload (the bytes inside a frame, NOT
  /// including the length prefix) and returns the response payload.
  /// Total: never throws, never returns an undecodable response.
  std::string Handle(std::string_view payload);

  /// Answers a frame whose length prefix exceeded the cap (the payload
  /// was never read) with kErrOversized, counted like any request.
  std::string RejectOversized();

  /// The counters so far. Any thread: they are relaxed atomics, written
  /// only by the thread that calls Handle.
  DispatchStats stats() const;

 private:
  std::string HandleTopK(std::string_view body);
  std::string HandleEstimate(Opcode opcode, std::string_view body);
  std::string HandleStats();
  std::string HandlePush(std::string_view body);
  std::string HandleDumpTrace(std::string_view body);
  std::string Error(Status status, std::string_view detail);

  const ReadSnapshotHub& hub_;
  const KeyCodec& codec_;
  uint32_t num_shards_;
  AggregatorCore* aggregator_ = nullptr;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> by_opcode_[9] = {};
  std::atomic<uint64_t> by_status_[11] = {};
};

}  // namespace server
}  // namespace ltc

#endif  // LTC_SERVER_DISPATCHER_H_
