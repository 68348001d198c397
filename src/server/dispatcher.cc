#include "server/dispatcher.h"

#include <iterator>
#include <utility>
#include <vector>

#include "server/aggregator.h"
#include "telemetry/trace.h"

namespace ltc {
namespace server {

namespace {

bool ReadU16(std::string_view data, size_t& pos, uint16_t* out) {
  if (data.size() - pos < 2) return false;
  *out = static_cast<uint16_t>(static_cast<uint8_t>(data[pos])) |
         (static_cast<uint16_t>(static_cast<uint8_t>(data[pos + 1])) << 8);
  pos += 2;
  return true;
}

void Bump(std::atomic<uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::string QueryDispatcher::Error(Status status, std::string_view detail) {
  Bump(errors_);
  Bump(by_status_[static_cast<size_t>(status)]);
  return EncodeErrorResponse(status, detail);
}

std::string QueryDispatcher::RejectOversized() {
  Bump(requests_);
  return Error(Status::kErrOversized, "frame length above protocol maximum");
}

DispatchStats QueryDispatcher::stats() const {
  DispatchStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < std::size(by_opcode_); ++i) {
    stats.by_opcode[i] = by_opcode_[i].load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < std::size(by_status_); ++i) {
    stats.by_status[i] = by_status_[i].load(std::memory_order_relaxed);
  }
  return stats;
}

std::string QueryDispatcher::Handle(std::string_view payload) {
  Bump(requests_);
  if (payload.empty()) {
    return Error(Status::kErrMalformed, "empty request payload");
  }
  const uint8_t opcode_byte = static_cast<uint8_t>(payload[0]);
  if (opcode_byte < std::size(by_opcode_)) Bump(by_opcode_[opcode_byte]);
  std::string_view body = payload.substr(1);
  // v3 trace-context extension: strip it before the opcode handlers so
  // their length checks see exactly the v2 body, and parent this
  // request's span under the caller's remote span when present.
  std::optional<TraceContextExt> ext;
  if (!SplitTraceExt(static_cast<Opcode>(opcode_byte), body, &body, &ext)) {
    return Error(Status::kErrMalformed, "bad trace-context extension");
  }
  telemetry::TraceContext remote;
  if (ext.has_value()) remote = {ext->trace_id, ext->span_id};
  telemetry::Span span("server.request", remote);
  span.AddAttr("opcode", opcode_byte);
  switch (static_cast<Opcode>(opcode_byte)) {
    case Opcode::kPing: {
      if (!body.empty()) {
        return Error(Status::kErrMalformed, "PING takes no body");
      }
      Bump(by_status_[static_cast<size_t>(Status::kOk)]);
      // PING answers even before the first snapshot (seq 0): it probes
      // liveness, not data.
      const ReadSnapshotHub::Ref snapshot = hub_.Acquire();
      return EncodePingResponse(snapshot ? snapshot->seq : 0,
                                snapshot ? snapshot->records : 0);
    }
    case Opcode::kTopK:
      return HandleTopK(body);
    case Opcode::kEstimateSignificance:
    case Opcode::kEstimateFrequency:
    case Opcode::kEstimatePersistency:
      return HandleEstimate(static_cast<Opcode>(opcode_byte), body);
    case Opcode::kStats: {
      if (!body.empty()) {
        return Error(Status::kErrMalformed, "STATS takes no body");
      }
      return HandleStats();
    }
    case Opcode::kPushSketch:
      return HandlePush(body);
    case Opcode::kDumpTrace:
      return HandleDumpTrace(body);
  }
  return Error(Status::kErrUnknownOpcode,
               "opcode " + std::to_string(opcode_byte));
}

std::string QueryDispatcher::HandleTopK(std::string_view body) {
  if (body.size() != 4) {
    return Error(Status::kErrMalformed, "TOPK body must be exactly u32 k");
  }
  uint32_t k = 0;
  for (int i = 3; i >= 0; --i) {
    k = (k << 8) | static_cast<uint8_t>(body[static_cast<size_t>(i)]);
  }
  if (k == 0) return Error(Status::kErrBadRequest, "k must be >= 1");
  if (k > kMaxTopK) {
    return Error(Status::kErrBadRequest,
                 "k above the protocol maximum " + std::to_string(kMaxTopK));
  }
  const ReadSnapshotHub::Ref snapshot = hub_.Acquire();
  if (!snapshot) {
    return Error(Status::kErrNoSnapshot, "no snapshot published yet");
  }
  std::vector<TopKEntry> entries;
  for (const SignificanceReport& report : snapshot->table->TopK(k)) {
    TopKEntry entry;
    entry.key = codec_.NameOf(report.item);
    entry.frequency = report.frequency;
    entry.persistency = report.persistency;
    entry.significance = report.significance;
    entries.push_back(std::move(entry));
  }
  Bump(by_status_[static_cast<size_t>(Status::kOk)]);
  return EncodeTopKResponse(entries);
}

std::string QueryDispatcher::HandleEstimate(Opcode opcode,
                                            std::string_view body) {
  size_t pos = 0;
  uint16_t key_len = 0;
  if (!ReadU16(body, pos, &key_len)) {
    return Error(Status::kErrMalformed, "estimate body truncated");
  }
  if (body.size() - pos != key_len) {
    return Error(Status::kErrMalformed,
                 body.size() - pos < key_len ? "key bytes truncated"
                                             : "trailing bytes after key");
  }
  if (key_len == 0) {
    return Error(Status::kErrBadKey, "zero-length key");
  }
  if (key_len > kMaxKeyBytes) {
    return Error(Status::kErrBadKey, "key above the protocol maximum");
  }
  const std::string_view key = body.substr(pos, key_len);
  const std::optional<ItemId> item = codec_.Resolve(key);
  if (!item) {
    return Error(Status::kErrBadKey, "unresolvable key");
  }
  const ReadSnapshotHub::Ref snapshot = hub_.Acquire();
  if (!snapshot) {
    return Error(Status::kErrNoSnapshot, "no snapshot published yet");
  }
  Bump(by_status_[static_cast<size_t>(Status::kOk)]);
  switch (opcode) {
    case Opcode::kEstimateSignificance:
      return EncodeDoubleResponse(snapshot->table->QuerySignificance(*item));
    case Opcode::kEstimateFrequency:
      return EncodeU64Response(snapshot->table->EstimateFrequency(*item));
    default:
      return EncodeU64Response(snapshot->table->EstimatePersistency(*item));
  }
}

std::string QueryDispatcher::HandleStats() {
  const ReadSnapshotHub::Ref snapshot = hub_.Acquire();
  StatsResult stats;
  stats.num_shards = num_shards_;
  if (snapshot) {
    stats.snapshot_seq = snapshot->seq;
    stats.records = snapshot->records;
    stats.memory_bytes = snapshot->table->MemoryBytes();
  }
  if (aggregator_ != nullptr) stats.nodes = aggregator_->NodeRows();
  Bump(by_status_[static_cast<size_t>(Status::kOk)]);
  return EncodeStatsResponse(stats);
}

std::string QueryDispatcher::HandlePush(std::string_view body) {
  if (aggregator_ == nullptr) {
    return Error(Status::kErrNotAggregator,
                 "this server does not accept sketch pushes");
  }
  // The sketch payload stays where the frame parser put it.
  std::optional<PushView> push = DecodePushRequestBody(body);
  if (!push.has_value()) {
    return Error(Status::kErrMalformed,
                 "PUSH_SKETCH body truncated or inconsistent");
  }
  const PushOutcome outcome = aggregator_->ApplyPush(*push);
  if (outcome.status != Status::kOk) {
    return Error(outcome.status, outcome.detail);
  }
  Bump(by_status_[static_cast<size_t>(Status::kOk)]);
  return EncodePushResponse(outcome.epoch_seq, outcome.applied);
}

std::string QueryDispatcher::HandleDumpTrace(std::string_view body) {
  if (!body.empty()) {
    return Error(Status::kErrMalformed, "DUMP_TRACE takes no body");
  }
  telemetry::FlightRecorder* recorder = telemetry::FlightRecorder::active();
  if (recorder == nullptr) {
    return Error(Status::kErrBadRequest,
                 "tracing is not enabled on this server");
  }
  Bump(by_status_[static_cast<size_t>(Status::kOk)]);
  // Status byte + u32 length + headroom must stay under the frame cap.
  return EncodeTraceDumpResponse(recorder->DumpChromeJson(kMaxFrameBytes - 64));
}

}  // namespace server
}  // namespace ltc
