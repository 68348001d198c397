#include "server/protocol.h"

#include <cstring>

namespace ltc {
namespace server {

const char* StatusName(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kErrUnknownOpcode:
      return "unknown_opcode";
    case Status::kErrMalformed:
      return "malformed";
    case Status::kErrBadKey:
      return "bad_key";
    case Status::kErrOversized:
      return "oversized";
    case Status::kErrNoSnapshot:
      return "no_snapshot";
    case Status::kErrBadRequest:
      return "bad_request";
    case Status::kErrShapeMismatch:
      return "shape_mismatch";
    case Status::kErrStaleEpoch:
      return "stale_epoch";
    case Status::kErrBadSketch:
      return "bad_sketch";
    case Status::kErrNotAggregator:
      return "not_aggregator";
  }
  return "unknown_status";
}

const char* OpcodeName(Opcode opcode) {
  switch (opcode) {
    case Opcode::kPing:
      return "ping";
    case Opcode::kTopK:
      return "topk";
    case Opcode::kEstimateSignificance:
      return "estimate_significance";
    case Opcode::kEstimateFrequency:
      return "estimate_frequency";
    case Opcode::kEstimatePersistency:
      return "estimate_persistency";
    case Opcode::kStats:
      return "stats";
    case Opcode::kPushSketch:
      return "push_sketch";
    case Opcode::kDumpTrace:
      return "dump_trace";
  }
  return "unknown_opcode";
}

std::string EncodeFrame(std::string_view payload) {
  std::string frame;
  frame.reserve(4 + payload.size());
  const uint32_t length = static_cast<uint32_t>(payload.size());
  char prefix[4];
  std::memcpy(prefix, &length, 4);  // little-endian on every target we build
  frame.append(prefix, 4);
  frame.append(payload);
  return frame;
}

FrameParser::Head FrameParser::JudgeHead(uint32_t* length) const {
  if (oversized_) return Head::kOversized;
  const size_t buffered = buffer_.size() - head_;
  if (buffered < 4) return Head::kIncomplete;
  std::memcpy(length, buffer_.data() + head_, 4);
  if (*length > max_frame_bytes_) {
    // Above the query cap: only a PUSH_SKETCH frame may be this large,
    // and only when the parser was configured with a push cap. The
    // opcode is payload byte 0 — wait for it before judging.
    if (*length > max_push_frame_bytes_) return Head::kOversized;
    if (buffered < 5) return Head::kIncomplete;
    if (static_cast<uint8_t>(buffer_[head_ + 4]) !=
        static_cast<uint8_t>(Opcode::kPushSketch)) {
      return Head::kOversized;
    }
  }
  return buffered < 4 + static_cast<size_t>(*length) ? Head::kIncomplete
                                                     : Head::kComplete;
}

void FrameParser::Feed(std::string_view bytes) {
  // Drop the frames already handed over. After a whole frame, the usual
  // case, nothing is left and the buffer keeps its capacity.
  buffer_.erase(0, head_);
  head_ = 0;
  buffer_.append(bytes);
  uint32_t length = 0;
  if (buffer_.size() > 4 && JudgeHead(&length) == Head::kIncomplete) {
    // The head passed the caps (its opcode byte is in): room for the
    // whole frame, once.
    buffer_.reserve(4 + static_cast<size_t>(length));
  }
}

bool FrameParser::HasFrame() const {
  uint32_t length = 0;
  return JudgeHead(&length) != Head::kIncomplete;
}

std::optional<std::string_view> FrameParser::NextView() {
  uint32_t length = 0;
  switch (JudgeHead(&length)) {
    case Head::kIncomplete:
      return std::nullopt;
    case Head::kOversized:
      oversized_ = true;
      return std::nullopt;
    case Head::kComplete:
      break;
  }
  const std::string_view payload(buffer_.data() + head_ + 4, length);
  head_ += 4 + static_cast<size_t>(length);
  return payload;
}

std::optional<std::string> FrameParser::Next() {
  const std::optional<std::string_view> payload = NextView();
  if (!payload.has_value()) return std::nullopt;
  return std::string(*payload);
}

namespace {

// Keys and names use an explicit two-byte little-endian length so
// frames stay compact; wider fields are fixed-width little-endian,
// matching common/serial.h's convention.
void PutU16(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

// Every Get* guard must tolerate pos > data.size(): SplitTraceExt seeks
// straight to a fixed-layout field, so an unsigned size-minus-pos check
// alone would wrap and read past the end on truncated bodies.
bool GetU16(std::string_view data, size_t& pos, uint16_t* out) {
  if (pos > data.size() || data.size() - pos < 2) return false;
  *out = static_cast<uint16_t>(static_cast<uint8_t>(data[pos])) |
         (static_cast<uint16_t>(static_cast<uint8_t>(data[pos + 1])) << 8);
  pos += 2;
  return true;
}

void PutU32Raw(std::string& out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void PutU64Raw(std::string& out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void PutDoubleRaw(std::string& out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

bool GetU32Raw(std::string_view data, size_t& pos, uint32_t* out) {
  if (pos > data.size() || data.size() - pos < 4) return false;
  std::memcpy(out, data.data() + pos, 4);
  pos += 4;
  return true;
}

bool GetU64Raw(std::string_view data, size_t& pos, uint64_t* out) {
  if (pos > data.size() || data.size() - pos < 8) return false;
  std::memcpy(out, data.data() + pos, 8);
  pos += 8;
  return true;
}

bool GetDoubleRaw(std::string_view data, size_t& pos, double* out) {
  if (pos > data.size() || data.size() - pos < 8) return false;
  std::memcpy(out, data.data() + pos, 8);
  pos += 8;
  return true;
}

}  // namespace

std::string EncodePingRequest() {
  return std::string(1, static_cast<char>(Opcode::kPing));
}

std::string EncodeTopKRequest(uint32_t k) {
  std::string payload(1, static_cast<char>(Opcode::kTopK));
  PutU32Raw(payload, k);
  return payload;
}

std::string EncodeEstimateRequest(Opcode opcode, std::string_view key) {
  std::string payload(1, static_cast<char>(opcode));
  PutU16(payload, static_cast<uint16_t>(key.size()));
  payload.append(key);
  return payload;
}

std::string EncodeStatsRequest() {
  return std::string(1, static_cast<char>(Opcode::kStats));
}

std::string EncodeDumpTraceRequest() {
  return std::string(1, static_cast<char>(Opcode::kDumpTrace));
}

void AppendTraceExt(std::string* request_payload,
                    const TraceContextExt& ext) {
  PutU16(*request_payload, kTraceExtMagic);
  PutU64Raw(*request_payload, ext.trace_id);
  PutU64Raw(*request_payload, ext.span_id);
}

bool SplitTraceExt(Opcode opcode, std::string_view body,
                   std::string_view* base_body,
                   std::optional<TraceContextExt>* ext) {
  *base_body = body;
  ext->reset();
  // The base body's length from its own explicit length fields; nullopt
  // when the body is too short to even carry them (the handler's own
  // truncation error is better than anything decidable here).
  std::optional<size_t> base;
  switch (opcode) {
    case Opcode::kPing:
    case Opcode::kStats:
    case Opcode::kDumpTrace:
      base = 0;
      break;
    case Opcode::kTopK:
      base = 4;
      break;
    case Opcode::kEstimateSignificance:
    case Opcode::kEstimateFrequency:
    case Opcode::kEstimatePersistency: {
      size_t pos = 0;
      uint16_t key_len = 0;
      if (GetU16(body, pos, &key_len)) base = 2 + static_cast<size_t>(key_len);
      break;
    }
    case Opcode::kPushSketch: {
      // u64 node_id, u64 epoch_seq, u8 kind, u64 records, u32 payload_len.
      size_t pos = 8 + 8 + 1 + 8;
      uint32_t payload_len = 0;
      if (GetU32Raw(body, pos, &payload_len)) {
        base = pos + static_cast<size_t>(payload_len);
      }
      break;
    }
  }
  if (!base.has_value() || body.size() <= *base) return true;
  if (body.size() != *base + kTraceExtBytes) return true;
  size_t pos = *base;
  uint16_t magic = 0;
  if (!GetU16(body, pos, &magic)) return true;
  if (magic != kTraceExtMagic) return false;
  TraceContextExt decoded;
  if (!GetU64Raw(body, pos, &decoded.trace_id)) return false;
  if (!GetU64Raw(body, pos, &decoded.span_id)) return false;
  *ext = decoded;
  *base_body = body.substr(0, *base);
  return true;
}

namespace {

void PutPushRequestHead(std::string& out, const PushHeader& header,
                        uint32_t payload_len) {
  out.push_back(static_cast<char>(Opcode::kPushSketch));
  PutU64Raw(out, header.node_id);
  PutU64Raw(out, header.epoch_seq);
  out.push_back(static_cast<char>(header.sketch_kind));
  PutU64Raw(out, header.records);
  PutU32Raw(out, payload_len);
}

}  // namespace

std::string EncodePushRequest(const PushRequest& push) {
  std::string payload;
  payload.reserve(kPushRequestHeadBytes + push.payload.size());
  PutPushRequestHead(payload, push,
                     static_cast<uint32_t>(push.payload.size()));
  payload.append(push.payload);
  return payload;
}

void BeginPushFrame(const PushHeader& header, size_t payload_bytes,
                    std::string* frame) {
  frame->clear();
  frame->reserve(4 + kPushRequestHeadBytes + payload_bytes + kTraceExtBytes);
  frame->append(4, '\0');  // frame length, filled in by FinishPushFrame
  PutPushRequestHead(*frame, header, /*payload_len=*/0);
}

void FinishPushFrame(const std::optional<TraceContextExt>& ext,
                     std::string* frame) {
  const size_t head = 4 + kPushRequestHeadBytes;
  const auto payload_len = static_cast<uint32_t>(frame->size() - head);
  std::memcpy(frame->data() + head - 4, &payload_len, 4);
  if (ext.has_value()) AppendTraceExt(frame, *ext);
  const auto frame_len = static_cast<uint32_t>(frame->size() - 4);
  std::memcpy(frame->data(), &frame_len, 4);
}

std::optional<PushView> DecodePushRequestBody(std::string_view body) {
  PushView push;
  size_t pos = 0;
  if (!GetU64Raw(body, pos, &push.node_id)) return std::nullopt;
  if (!GetU64Raw(body, pos, &push.epoch_seq)) return std::nullopt;
  if (body.size() - pos < 1) return std::nullopt;
  push.sketch_kind = static_cast<uint8_t>(body[pos]);
  pos += 1;
  if (!GetU64Raw(body, pos, &push.records)) return std::nullopt;
  uint32_t payload_len = 0;
  if (!GetU32Raw(body, pos, &payload_len)) return std::nullopt;
  // The explicit length must match the remaining bytes exactly: a
  // mismatch means a truncated or padded frame, not a sketch to trust.
  if (body.size() - pos != payload_len) return std::nullopt;
  push.payload = body.substr(pos, payload_len);
  return push;
}

std::string EncodeErrorResponse(Status status, std::string_view detail) {
  std::string payload(1, static_cast<char>(status));
  PutU16(payload, static_cast<uint16_t>(
                      detail.size() > 0xffff ? 0xffff : detail.size()));
  payload.append(detail.substr(0, 0xffff));
  return payload;
}

std::string EncodePingResponse(uint64_t snapshot_seq, uint64_t records) {
  std::string payload(1, static_cast<char>(Status::kOk));
  payload.push_back(static_cast<char>(kProtocolVersion));
  PutU64Raw(payload, snapshot_seq);
  PutU64Raw(payload, records);
  return payload;
}

std::string EncodeTopKResponse(const std::vector<TopKEntry>& entries) {
  std::string payload(1, static_cast<char>(Status::kOk));
  PutU32Raw(payload, static_cast<uint32_t>(entries.size()));
  for (const TopKEntry& entry : entries) {
    PutU16(payload, static_cast<uint16_t>(entry.key.size()));
    payload.append(entry.key);
    PutU64Raw(payload, entry.frequency);
    PutU64Raw(payload, entry.persistency);
    PutDoubleRaw(payload, entry.significance);
  }
  return payload;
}

std::string EncodeDoubleResponse(double value) {
  std::string payload(1, static_cast<char>(Status::kOk));
  PutDoubleRaw(payload, value);
  return payload;
}

std::string EncodeU64Response(uint64_t value) {
  std::string payload(1, static_cast<char>(Status::kOk));
  PutU64Raw(payload, value);
  return payload;
}

std::string EncodeStatsResponse(const StatsResult& stats) {
  std::string payload(1, static_cast<char>(Status::kOk));
  payload.push_back(static_cast<char>(stats.protocol_version));
  PutU64Raw(payload, stats.snapshot_seq);
  PutU64Raw(payload, stats.records);
  PutU64Raw(payload, stats.memory_bytes);
  PutU32Raw(payload, stats.num_shards);
  PutU32Raw(payload, static_cast<uint32_t>(stats.nodes.size()));
  for (const StatsNodeRow& row : stats.nodes) {
    PutU64Raw(payload, row.node_id);
    PutU64Raw(payload, row.last_epoch);
    PutU64Raw(payload, row.age_sec);
    payload.push_back(static_cast<char>(row.stale));
  }
  return payload;
}

std::string EncodePushResponse(uint64_t epoch_seq, bool applied) {
  std::string payload(1, static_cast<char>(Status::kOk));
  PutU64Raw(payload, epoch_seq);
  payload.push_back(static_cast<char>(applied ? 1 : 0));
  return payload;
}

std::string EncodeTraceDumpResponse(std::string_view json) {
  std::string payload(1, static_cast<char>(Status::kOk));
  PutU32Raw(payload, static_cast<uint32_t>(json.size()));
  payload.append(json);
  return payload;
}

std::optional<DecodedResponse> DecodeResponse(Opcode request_opcode,
                                              std::string_view payload) {
  if (payload.empty()) return std::nullopt;
  DecodedResponse response;
  response.status = static_cast<Status>(static_cast<uint8_t>(payload[0]));
  size_t pos = 1;
  if (response.status != Status::kOk) {
    switch (response.status) {
      case Status::kErrUnknownOpcode:
      case Status::kErrMalformed:
      case Status::kErrBadKey:
      case Status::kErrOversized:
      case Status::kErrNoSnapshot:
      case Status::kErrBadRequest:
      case Status::kErrShapeMismatch:
      case Status::kErrStaleEpoch:
      case Status::kErrBadSketch:
      case Status::kErrNotAggregator:
        break;
      default:
        return std::nullopt;  // not a status byte this protocol speaks
    }
    uint16_t detail_len = 0;
    if (!GetU16(payload, pos, &detail_len)) return std::nullopt;
    if (payload.size() - pos != detail_len) return std::nullopt;
    response.error_detail = std::string(payload.substr(pos, detail_len));
    return response;
  }
  switch (request_opcode) {
    case Opcode::kPing: {
      if (payload.size() - pos != 1 + 8 + 8) return std::nullopt;
      pos += 1;  // protocol version
      if (!GetU64Raw(payload, pos, &response.snapshot_seq)) return std::nullopt;
      if (!GetU64Raw(payload, pos, &response.records)) return std::nullopt;
      return response;
    }
    case Opcode::kTopK: {
      uint32_t n = 0;
      if (!GetU32Raw(payload, pos, &n)) return std::nullopt;
      if (n > kMaxTopK) return std::nullopt;
      response.topk.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        TopKEntry entry;
        uint16_t key_len = 0;
        if (!GetU16(payload, pos, &key_len)) return std::nullopt;
        if (payload.size() - pos < key_len) return std::nullopt;
        entry.key = std::string(payload.substr(pos, key_len));
        pos += key_len;
        if (!GetU64Raw(payload, pos, &entry.frequency)) return std::nullopt;
        if (!GetU64Raw(payload, pos, &entry.persistency)) return std::nullopt;
        if (!GetDoubleRaw(payload, pos, &entry.significance)) {
          return std::nullopt;
        }
        response.topk.push_back(std::move(entry));
      }
      if (pos != payload.size()) return std::nullopt;
      return response;
    }
    case Opcode::kEstimateSignificance: {
      if (payload.size() - pos != 8) return std::nullopt;
      if (!GetDoubleRaw(payload, pos, &response.value_double)) {
        return std::nullopt;
      }
      return response;
    }
    case Opcode::kEstimateFrequency:
    case Opcode::kEstimatePersistency: {
      if (payload.size() - pos != 8) return std::nullopt;
      if (!GetU64Raw(payload, pos, &response.value_u64)) return std::nullopt;
      return response;
    }
    case Opcode::kStats: {
      if (payload.size() - pos < 1 + 8 + 8 + 8 + 4) return std::nullopt;
      response.stats.protocol_version = static_cast<uint8_t>(payload[pos]);
      pos += 1;
      if (!GetU64Raw(payload, pos, &response.stats.snapshot_seq)) {
        return std::nullopt;
      }
      if (!GetU64Raw(payload, pos, &response.stats.records)) {
        return std::nullopt;
      }
      if (!GetU64Raw(payload, pos, &response.stats.memory_bytes)) {
        return std::nullopt;
      }
      if (!GetU32Raw(payload, pos, &response.stats.num_shards)) {
        return std::nullopt;
      }
      // v1 responses end here; v2 appends the aggregation node rows.
      if (pos == payload.size()) return response;
      uint32_t num_nodes = 0;
      if (!GetU32Raw(payload, pos, &num_nodes)) return std::nullopt;
      if (payload.size() - pos !=
          static_cast<size_t>(num_nodes) * (8 + 8 + 8 + 1)) {
        return std::nullopt;
      }
      response.stats.nodes.reserve(num_nodes);
      for (uint32_t i = 0; i < num_nodes; ++i) {
        StatsNodeRow row;
        if (!GetU64Raw(payload, pos, &row.node_id)) return std::nullopt;
        if (!GetU64Raw(payload, pos, &row.last_epoch)) return std::nullopt;
        if (!GetU64Raw(payload, pos, &row.age_sec)) return std::nullopt;
        row.stale = static_cast<uint8_t>(payload[pos]);
        pos += 1;
        response.stats.nodes.push_back(row);
      }
      return response;
    }
    case Opcode::kPushSketch: {
      if (payload.size() - pos != 8 + 1) return std::nullopt;
      if (!GetU64Raw(payload, pos, &response.push_epoch)) return std::nullopt;
      response.push_applied = payload[pos] != 0;
      return response;
    }
    case Opcode::kDumpTrace: {
      uint32_t json_len = 0;
      if (!GetU32Raw(payload, pos, &json_len)) return std::nullopt;
      if (payload.size() - pos != json_len) return std::nullopt;
      response.trace_json = std::string(payload.substr(pos, json_len));
      return response;
    }
  }
  return std::nullopt;
}

}  // namespace server
}  // namespace ltc
