// The LTCQ wire protocol — a small length-prefixed binary protocol for
// querying a live LTC service (docs/SERVING.md has the normative spec).
//
// Framing: every message, in both directions, is
//
//   u32 length (little-endian, payload bytes that follow)
//   payload[length]
//
// A request payload is `u8 opcode` + opcode-specific body; a response
// payload is `u8 status` + (on kOk) the opcode-specific result, or (on
// any error) a length-prefixed human-readable detail string. Multiple
// requests may be pipelined on one connection; responses come back in
// request order.
//
// Item keys travel as length-prefixed byte strings (u16 length), never
// as raw integers: the same TOPK/ESTIMATE_* requests work against a
// numeric trace (keys are decimal text) and an interned token trace
// (keys are the original tokens). A zero-length key is a protocol
// error, answered with kErrBadKey.
//
// Everything here is pure encode/decode over std::string buffers — no
// sockets, no allocation surprises — so the golden-frame and fuzz tests
// (tests/server_test.cc) exercise exactly the bytes the server speaks.

#ifndef LTC_SERVER_PROTOCOL_H_
#define LTC_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ltc {
namespace server {

/// Request opcodes (first payload byte of a request).
enum class Opcode : uint8_t {
  kPing = 0x01,                  // body: empty
  kTopK = 0x02,                  // body: u32 k (k >= 1)
  kEstimateSignificance = 0x03,  // body: u16 key_len, key bytes
  kEstimateFrequency = 0x04,     // body: u16 key_len, key bytes
  kEstimatePersistency = 0x05,   // body: u16 key_len, key bytes
  kStats = 0x06,                 // body: empty
  kPushSketch = 0x07,            // body: u64 node_id, u64 epoch_seq,
                                 //       u8 sketch kind, u64 records,
                                 //       u32 payload_len, payload bytes
                                 // (aggregation tier, docs/SERVING.md)
  kDumpTrace = 0x08,             // body: empty; answers the server's
                                 // flight-recorder dump as Chrome
                                 // trace-event JSON (v3)
};

/// Response status (first payload byte of a response). Every error is
/// typed; the server never answers malformed input with silence or a
/// dropped connection (oversized frames excepted — see kErrOversized).
enum class Status : uint8_t {
  kOk = 0x00,
  kErrUnknownOpcode = 0x01,  // opcode byte not in Opcode
  kErrMalformed = 0x02,      // body truncated, trailing bytes, or empty payload
  kErrBadKey = 0x03,         // zero-length key, or key not resolvable
  kErrOversized = 0x04,      // frame length above kMaxFrameBytes; the
                             // connection closes after this response
                             // (the stream can no longer be trusted)
  kErrNoSnapshot = 0x05,     // no snapshot published yet
  kErrBadRequest = 0x06,     // semantically invalid (e.g. k == 0)
  // Aggregation-tier statuses (PUSH_SKETCH, docs/SERVING.md):
  kErrShapeMismatch = 0x07,  // pushed sketch's geometry/weights cannot
                             // merge with the aggregate (ERR_SHAPE_MISMATCH)
  kErrStaleEpoch = 0x08,     // epoch_seq older than the node's last
                             // applied epoch — superseded, do not retry
  kErrBadSketch = 0x09,      // push payload does not deserialize (or an
                             // unsupported sketch kind)
  kErrNotAggregator = 0x0a,  // PUSH_SKETCH at a server without an
                             // aggregator attached
};

/// "ok", "unknown_opcode", ... — stable names used by error-frame
/// details, the ltc_server_errors_total{kind=...} metric and ltc_query.
const char* StatusName(Status status);

/// "ping", "topk", ... — stable names used by the
/// ltc_server_requests_total{op=...} metric and the ltc_query verbs.
const char* OpcodeName(Opcode opcode);

/// Hard ceiling on payload size, both directions. Requests are tiny;
/// responses are bounded by clamping TOPK's k (see kMaxTopK).
constexpr size_t kMaxFrameBytes = 1 << 16;

/// Ceiling for PUSH_SKETCH request frames ONLY (a serialized sketch is
/// as large as its memory budget, far above 64K). An aggregator-mode
/// server raises its parser to this cap for push frames; query frames
/// keep kMaxFrameBytes, so a query-only server is unchanged.
constexpr size_t kMaxPushFrameBytes = 1 << 24;

/// Largest k a TOPK request may ask for (keeps every response under
/// kMaxFrameBytes even with maximal key names).
constexpr uint32_t kMaxTopK = 1024;

/// Largest key length the protocol accepts.
constexpr size_t kMaxKeyBytes = 4096;

/// Protocol version, reported by PING and STATS. v2 adds PUSH_SKETCH,
/// its typed statuses, and the per-node aggregation rows in STATS
/// (absent on v1 responses; the decoder accepts both). v3 adds the
/// optional trace-context request extension and DUMP_TRACE; a request
/// without the extension is byte-identical to its v2 encoding, so v2
/// clients interoperate unchanged.
constexpr uint8_t kProtocolVersion = 3;

/// PUSH_SKETCH sketch kinds. Only single-table sketches are mergeable
/// across nodes today (shards split the memory budget, so a sharded
/// sketch has per-shard geometry no aggregate table can merge with);
/// other kind bytes are answered with kErrBadSketch.
constexpr uint8_t kSketchKindLtc = 0;

// --- Framing ---------------------------------------------------------

/// Wraps a payload in the u32 length prefix.
std::string EncodeFrame(std::string_view payload);

/// Incremental frame splitter for a byte stream. Feed bytes, then pop
/// complete payloads. An oversized declared length poisons the parser
/// (the remaining stream cannot be resynchronized).
///
/// `max_push_frame_bytes` (when above `max_frame_bytes`) raises the cap
/// for frames whose first payload byte is the PUSH_SKETCH opcode ONLY —
/// the aggregator accepts multi-megabyte sketch pushes while query
/// frames stay bounded at 64K. Deciding needs that first byte, so a
/// large declared length parks the parser until it arrives.
///
/// Once a frame's head has passed those caps, the buffer reserves the
/// whole frame, so a large push grows its buffer once rather than by
/// doubling, and NextView hands a payload over in place.
class FrameParser {
 public:
  explicit FrameParser(size_t max_frame_bytes = kMaxFrameBytes,
                       size_t max_push_frame_bytes = 0)
      : max_frame_bytes_(max_frame_bytes),
        max_push_frame_bytes_(max_push_frame_bytes > max_frame_bytes
                                  ? max_push_frame_bytes
                                  : max_frame_bytes) {}

  /// Appends stream bytes. Invalidates views NextView returned.
  void Feed(std::string_view bytes);

  /// Extracts the next complete payload, or nullopt when more bytes are
  /// needed (or the parser is poisoned). The view points into the
  /// parser's buffer and stays valid until the next Feed.
  std::optional<std::string_view> NextView();

  /// NextView, copied out: for callers that keep the payload.
  std::optional<std::string> Next();

  /// True once a declared frame length exceeded the maximum.
  bool oversized() const { return oversized_; }

  /// True when Next() would not wait for more bytes: a whole frame is
  /// buffered, or the head frame's length already breaks the caps.
  bool HasFrame() const;

  size_t buffered_bytes() const { return buffer_.size() - head_; }

 private:
  enum class Head { kIncomplete, kComplete, kOversized };
  /// Judges the buffered head frame; sets *length once it is known.
  Head JudgeHead(uint32_t* length) const;

  std::string buffer_;
  size_t head_ = 0;  // offset of the head frame; bytes before it are spent
  size_t max_frame_bytes_;
  size_t max_push_frame_bytes_;
  bool oversized_ = false;
};

// --- Trace-context extension (v3) ------------------------------------
//
// Any request MAY carry a trailing trace-context extension:
//
//   u16 magic = kTraceExtMagic, u64 trace_id, u64 span_id
//
// appended after the opcode's base body. It parents the server-side
// span under the caller's span, stitching one trace across processes
// (docs/TELEMETRY.md#tracing--flight-recorder). Detection is exact, not
// heuristic: every opcode's base-body length is derivable from its own
// explicit length fields (the same discipline as the push-opcode
// frame-cap gate — decide from the bytes the protocol already pins), so
// a key or sketch payload that happens to end in the magic can never be
// mis-split. Clients only append it when tracing is active, keeping
// default frames byte-identical to v2 for old servers.

constexpr uint16_t kTraceExtMagic = 0x5443;  // "TC" little-endian
constexpr size_t kTraceExtBytes = 2 + 8 + 8;

struct TraceContextExt {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

/// Appends the extension to a complete request payload (opcode + body).
void AppendTraceExt(std::string* request_payload, const TraceContextExt& ext);

/// Splits a request BODY (the bytes after the opcode) into its base
/// body and the optional extension. Returns false only for a tail that
/// occupies exactly the extension's place with the wrong magic
/// (answered kErrMalformed); any other length mismatch passes through
/// untouched for the opcode handler's own typed error.
bool SplitTraceExt(Opcode opcode, std::string_view body,
                   std::string_view* base_body,
                   std::optional<TraceContextExt>* ext);

// --- Requests --------------------------------------------------------

std::string EncodePingRequest();
std::string EncodeTopKRequest(uint32_t k);
std::string EncodeEstimateRequest(Opcode opcode, std::string_view key);
std::string EncodeStatsRequest();
std::string EncodeDumpTraceRequest();

/// The delivery metadata of a PUSH_SKETCH, which the aggregator dedups
/// on, ahead of the sketch payload.
struct PushHeader {
  uint64_t node_id = 0;    // stable identity of the pushing node
  uint64_t epoch_seq = 0;  // 1-based, strictly increasing per node
  uint8_t sketch_kind = kSketchKindLtc;
  uint64_t records = 0;    // stream records applied at the push barrier
};

/// One PUSH_SKETCH request: a node's flush-barrier sketch image plus
/// its delivery metadata.
struct PushRequest : PushHeader {
  std::string payload;     // serialized sketch (Ltc::Serialize bytes)
};

/// A PUSH_SKETCH whose payload is read where it lies — in a received
/// frame, or in a PushRequest — so the sketch is never copied on its
/// way to the aggregator. Valid only while those bytes are.
struct PushView : PushHeader {
  PushView() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): a view of the request.
  PushView(const PushRequest& push) : PushHeader(push), payload(push.payload) {}

  std::string_view payload;
};

/// Bytes of a PUSH_SKETCH request ahead of its sketch payload: opcode,
/// node_id, epoch_seq, sketch kind, records, payload_len.
constexpr size_t kPushRequestHeadBytes = 1 + 8 + 8 + 1 + 8 + 4;

std::string EncodePushRequest(const PushRequest& push);

/// One-copy push frames, the same bytes as EncodeFrame of
/// EncodePushRequest (plus AppendTraceExt when `ext` is given):
/// BeginPushFrame replaces `*frame` with the frame prefix and request
/// head, reserving room for `payload_bytes` more; the caller appends
/// the sketch payload; FinishPushFrame appends the extension and fills
/// in the two lengths.
void BeginPushFrame(const PushHeader& header, size_t payload_bytes,
                    std::string* frame);
void FinishPushFrame(const std::optional<TraceContextExt>& ext,
                     std::string* frame);

/// Decodes a PUSH_SKETCH request BODY (the bytes after the opcode); the
/// payload points into `body`. nullopt = truncated, trailing bytes, or
/// an inconsistent payload length (answered with kErrMalformed by the
/// dispatcher).
std::optional<PushView> DecodePushRequestBody(std::string_view body);

// --- Responses -------------------------------------------------------

/// One TOPK row. The key is the item's external name (original token or
/// decimal ID), so clients never see internal ItemIds.
struct TopKEntry {
  std::string key;
  uint64_t frequency = 0;
  uint64_t persistency = 0;
  double significance = 0.0;
};

/// One aggregation-tier node row in STATS: delivery/staleness state of
/// a node that has pushed at least once (docs/SERVING.md).
struct StatsNodeRow {
  uint64_t node_id = 0;
  uint64_t last_epoch = 0;    // newest applied epoch_seq
  uint64_t age_sec = 0;       // seconds since the last applied push
  uint8_t stale = 0;          // 1 once age exceeds the staleness budget
};

/// Service-level counters answered by STATS. `nodes` is empty unless
/// the server aggregates pushed sketches.
struct StatsResult {
  uint64_t snapshot_seq = 0;    // publish sequence of the served image
  uint64_t records = 0;         // stream records applied at its barrier
  uint64_t memory_bytes = 0;    // model memory of the sketch
  uint32_t num_shards = 0;      // 0 = single (unsharded) table
  uint8_t protocol_version = kProtocolVersion;
  std::vector<StatsNodeRow> nodes;  // aggregation tier only
};

std::string EncodeErrorResponse(Status status, std::string_view detail);
std::string EncodePingResponse(uint64_t snapshot_seq, uint64_t records);
std::string EncodeTopKResponse(const std::vector<TopKEntry>& entries);
std::string EncodeDoubleResponse(double value);   // ESTIMATE_SIGNIFICANCE
std::string EncodeU64Response(uint64_t value);    // ESTIMATE_{FREQ,PERS}
std::string EncodeStatsResponse(const StatsResult& stats);
/// PUSH_SKETCH ack: the epoch the ack covers, and whether this delivery
/// mutated the aggregate (applied=0 = a duplicate of an already-applied
/// epoch — still kOk, because retried delivery must be idempotent).
std::string EncodePushResponse(uint64_t epoch_seq, bool applied);
/// DUMP_TRACE: u32 json_len + Chrome trace-event JSON bytes (already
/// truncated by the dispatcher to fit kMaxFrameBytes).
std::string EncodeTraceDumpResponse(std::string_view json);

/// A decoded response, as the client library sees it. Exactly the
/// fields implied by `status` + the request's opcode are meaningful.
struct DecodedResponse {
  Status status = Status::kOk;
  std::string error_detail;          // any error status
  uint64_t snapshot_seq = 0;         // PING
  uint64_t records = 0;              // PING
  std::vector<TopKEntry> topk;       // TOPK
  double value_double = 0.0;         // ESTIMATE_SIGNIFICANCE
  uint64_t value_u64 = 0;            // ESTIMATE_{FREQUENCY,PERSISTENCY}
  StatsResult stats;                 // STATS
  uint64_t push_epoch = 0;           // PUSH_SKETCH
  bool push_applied = false;         // PUSH_SKETCH (false = duplicate)
  std::string trace_json;            // DUMP_TRACE
};

/// Decodes a response payload against the opcode of the request it
/// answers. nullopt = the payload itself is malformed (server bug or
/// corrupted stream; the fuzz tests assert this never happens for
/// server-produced payloads).
std::optional<DecodedResponse> DecodeResponse(Opcode request_opcode,
                                              std::string_view payload);

}  // namespace server
}  // namespace ltc

#endif  // LTC_SERVER_PROTOCOL_H_
