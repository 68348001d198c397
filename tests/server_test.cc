// Query-serving battery (docs/SERVING.md): golden frames for the LTCQ
// wire protocol, every dispatcher error path, socket-level round trips
// against a live QueryServer, and a seeded shrinking fuzz loop that
// hammers the dispatcher with malformed bytes.
//
// The protocol's central claim is TOTALITY: for EVERY byte string a
// client can put inside a frame, the server answers a decodable
// response — kOk with the answer or a typed error — and never crashes,
// hangs, or drops the connection silently (oversized frames excepted,
// which get a typed error and then a clean close).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/serial.h"
#include "core/ltc.h"
#include "core/read_snapshot.h"
#include "server/aggregator.h"
#include "server/dispatcher.h"
#include "server/key_codec.h"
#include "server/protocol.h"
#include "server/query_server.h"
#include "stream/interner.h"

namespace ltc {
namespace server {
namespace {

LtcConfig SmallConfig() {
  LtcConfig config;
  config.memory_bytes = 16 * 1024;
  config.period_mode = PeriodMode::kCountBased;
  config.items_per_period = 100;
  return config;
}

/// A hub holding one published snapshot of a small table: items 1..20,
/// item i inserted i times.
struct Fixture {
  Fixture() {
    Ltc table(SmallConfig());
    for (ItemId item = 1; item <= 20; ++item) {
      for (ItemId n = 0; n < item; ++n) table.Insert(item);
    }
    records = 20 * 21 / 2;
    hub.Publish(std::make_unique<Ltc>(table), records);
  }

  ReadSnapshotHub hub;
  NumericKeyCodec codec;
  uint64_t records = 0;
};

std::string HexDump(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kHex[c >> 4];
    out += kHex[c & 0xf];
  }
  return out;
}

// --- Framing ---------------------------------------------------------

TEST(FrameParser, SplitsPipelinedFramesAcrossArbitraryFeeds) {
  const std::string wire = EncodeFrame("abc") + EncodeFrame("") +
                           EncodeFrame(std::string(1000, 'x'));
  // Feed one byte at a time: framing must not depend on read sizes.
  FrameParser parser;
  std::vector<std::string> payloads;
  for (char c : wire) {
    parser.Feed(std::string_view(&c, 1));
    while (auto payload = parser.Next()) payloads.push_back(*payload);
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "abc");
  EXPECT_EQ(payloads[1], "");
  EXPECT_EQ(payloads[2], std::string(1000, 'x'));
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(FrameParser, OversizedDeclaredLengthPoisonsTheStream) {
  FrameParser parser(64);
  std::string frame = EncodeFrame(std::string(65, 'x'));
  parser.Feed(frame);
  EXPECT_FALSE(parser.Next().has_value());
  EXPECT_TRUE(parser.oversized());
  // Poisoned for good: even a valid follow-up frame is not parsed (the
  // stream position can no longer be trusted).
  parser.Feed(EncodeFrame("ok"));
  EXPECT_FALSE(parser.Next().has_value());
}

TEST(Protocol, GoldenRequestFrames) {
  // Framed PING: length 1, opcode 0x01.
  EXPECT_EQ(HexDump(EncodeFrame(EncodePingRequest())), "0100000001");
  // Framed STATS: length 1, opcode 0x06.
  EXPECT_EQ(HexDump(EncodeFrame(EncodeStatsRequest())), "0100000006");
  // Framed TOPK k=5: length 5, opcode 0x02, u32 LE 5.
  EXPECT_EQ(HexDump(EncodeFrame(EncodeTopKRequest(5))), "050000000205000000");
  // Framed ESTIMATE_FREQUENCY "ab": length 5, opcode 0x04, u16 LE 2, "ab".
  EXPECT_EQ(HexDump(EncodeFrame(
                EncodeEstimateRequest(Opcode::kEstimateFrequency, "ab"))),
            "0500000004" "0200" "6162");
}

TEST(Protocol, ResponsesRoundTrip) {
  const auto ping =
      DecodeResponse(Opcode::kPing, EncodePingResponse(7, 1234));
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(ping->status, Status::kOk);
  EXPECT_EQ(ping->snapshot_seq, 7u);
  EXPECT_EQ(ping->records, 1234u);

  std::vector<TopKEntry> entries(2);
  entries[0] = {"alpha", 10, 3, 13.5};
  entries[1] = {"beta", 4, 2, 6.0};
  const auto topk = DecodeResponse(Opcode::kTopK, EncodeTopKResponse(entries));
  ASSERT_TRUE(topk.has_value());
  ASSERT_EQ(topk->topk.size(), 2u);
  EXPECT_EQ(topk->topk[0].key, "alpha");
  EXPECT_EQ(topk->topk[0].frequency, 10u);
  EXPECT_EQ(topk->topk[1].persistency, 2u);
  EXPECT_DOUBLE_EQ(topk->topk[1].significance, 6.0);

  const auto sig = DecodeResponse(Opcode::kEstimateSignificance,
                                  EncodeDoubleResponse(2.75));
  ASSERT_TRUE(sig.has_value());
  EXPECT_DOUBLE_EQ(sig->value_double, 2.75);

  const auto freq =
      DecodeResponse(Opcode::kEstimateFrequency, EncodeU64Response(99));
  ASSERT_TRUE(freq.has_value());
  EXPECT_EQ(freq->value_u64, 99u);

  StatsResult stats;
  stats.snapshot_seq = 3;
  stats.records = 500;
  stats.memory_bytes = 65536;
  stats.num_shards = 4;
  const auto decoded =
      DecodeResponse(Opcode::kStats, EncodeStatsResponse(stats));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->stats.snapshot_seq, 3u);
  EXPECT_EQ(decoded->stats.records, 500u);
  EXPECT_EQ(decoded->stats.memory_bytes, 65536u);
  EXPECT_EQ(decoded->stats.num_shards, 4u);
  EXPECT_EQ(decoded->stats.protocol_version, kProtocolVersion);

  const auto error = DecodeResponse(
      Opcode::kPing, EncodeErrorResponse(Status::kErrBadKey, "nope"));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->status, Status::kErrBadKey);
  EXPECT_EQ(error->error_detail, "nope");
}

TEST(Protocol, DecodeRejectsTamperedResponses) {
  // Truncated PING body.
  std::string ping = EncodePingResponse(1, 2);
  EXPECT_FALSE(DecodeResponse(Opcode::kPing, ping.substr(0, ping.size() - 1))
                   .has_value());
  // Trailing garbage.
  EXPECT_FALSE(DecodeResponse(Opcode::kPing, ping + "x").has_value());
  // Empty payload.
  EXPECT_FALSE(DecodeResponse(Opcode::kPing, "").has_value());
  // Unknown status byte.
  EXPECT_FALSE(DecodeResponse(Opcode::kPing, "\x7f").has_value());
  // TOPK claiming more entries than the bytes hold.
  std::string topk = EncodeTopKResponse({{"k", 1, 1, 1.0}});
  topk[1] = 50;  // entry count (first byte of the u32 after the status)
  EXPECT_FALSE(DecodeResponse(Opcode::kTopK, topk).has_value());
}

// --- Key codecs ------------------------------------------------------

TEST(KeyCodec, NumericParsesExactDecimalOnly) {
  NumericKeyCodec codec;
  EXPECT_EQ(codec.Resolve("0"), ItemId{0});
  EXPECT_EQ(codec.Resolve("42"), ItemId{42});
  EXPECT_EQ(codec.Resolve("18446744073709551615"), ~ItemId{0});
  EXPECT_FALSE(codec.Resolve("").has_value());
  EXPECT_FALSE(codec.Resolve("-1").has_value());
  EXPECT_FALSE(codec.Resolve("4 2").has_value());
  EXPECT_FALSE(codec.Resolve("0x10").has_value());
  EXPECT_FALSE(codec.Resolve("18446744073709551616").has_value());  // 2^64
  EXPECT_EQ(codec.NameOf(42), "42");
}

TEST(KeyCodec, InternerResolvesKnownTokensAndZerosUnknown) {
  StringInterner interner;
  const ItemId apple = interner.Intern("apple");
  const ItemId pear = interner.Intern("pear");
  InternerKeyCodec codec(interner);
  EXPECT_EQ(codec.Resolve("apple"), apple);
  EXPECT_EQ(codec.Resolve("pear"), pear);
  // Unknown but well-formed: resolves to the untracked id 0 (answered
  // with zero estimates), NOT an error.
  EXPECT_EQ(codec.Resolve("zebra"), ItemId{0});
  EXPECT_FALSE(codec.Resolve("").has_value());
  EXPECT_EQ(codec.NameOf(apple), "apple");
  EXPECT_EQ(codec.NameOf(0), "0");  // out of range: numeric fallback
}

// --- Dispatcher: answers ---------------------------------------------

TEST(Dispatcher, AnswersMatchThePinnedSnapshot) {
  Fixture fx;
  QueryDispatcher dispatcher(fx.hub, fx.codec, 0);

  const auto ping =
      DecodeResponse(Opcode::kPing, dispatcher.Handle(EncodePingRequest()));
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(ping->status, Status::kOk);
  EXPECT_EQ(ping->snapshot_seq, 1u);
  EXPECT_EQ(ping->records, fx.records);

  const ReadSnapshotHub::Ref pinned = fx.hub.Acquire();
  ASSERT_TRUE(pinned);
  for (ItemId item = 1; item <= 20; ++item) {
    const std::string key = std::to_string(item);
    const auto freq = DecodeResponse(
        Opcode::kEstimateFrequency,
        dispatcher.Handle(EncodeEstimateRequest(Opcode::kEstimateFrequency,
                                                key)));
    ASSERT_TRUE(freq.has_value()) << key;
    EXPECT_EQ(freq->status, Status::kOk);
    EXPECT_EQ(freq->value_u64, pinned->table->EstimateFrequency(item)) << key;

    const auto sig = DecodeResponse(
        Opcode::kEstimateSignificance,
        dispatcher.Handle(
            EncodeEstimateRequest(Opcode::kEstimateSignificance, key)));
    ASSERT_TRUE(sig.has_value()) << key;
    EXPECT_EQ(sig->value_double, pinned->table->QuerySignificance(item));

    const auto pers = DecodeResponse(
        Opcode::kEstimatePersistency,
        dispatcher.Handle(
            EncodeEstimateRequest(Opcode::kEstimatePersistency, key)));
    ASSERT_TRUE(pers.has_value()) << key;
    EXPECT_EQ(pers->value_u64, pinned->table->EstimatePersistency(item));
  }

  const auto topk =
      DecodeResponse(Opcode::kTopK, dispatcher.Handle(EncodeTopKRequest(5)));
  ASSERT_TRUE(topk.has_value());
  EXPECT_EQ(topk->status, Status::kOk);
  const auto oracle = pinned->table->TopK(5);
  ASSERT_EQ(topk->topk.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(topk->topk[i].key, std::to_string(oracle[i].item)) << i;
    EXPECT_EQ(topk->topk[i].frequency, oracle[i].frequency) << i;
    EXPECT_EQ(topk->topk[i].persistency, oracle[i].persistency) << i;
    EXPECT_EQ(topk->topk[i].significance, oracle[i].significance) << i;
  }

  const auto stats =
      DecodeResponse(Opcode::kStats, dispatcher.Handle(EncodeStatsRequest()));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->stats.snapshot_seq, 1u);
  EXPECT_EQ(stats->stats.records, fx.records);
  EXPECT_EQ(stats->stats.memory_bytes, pinned->table->MemoryBytes());
  EXPECT_EQ(stats->stats.num_shards, 0u);
}

TEST(Dispatcher, UntrackedKeyAnswersZeros) {
  Fixture fx;
  QueryDispatcher dispatcher(fx.hub, fx.codec, 0);
  const auto freq = DecodeResponse(
      Opcode::kEstimateFrequency,
      dispatcher.Handle(
          EncodeEstimateRequest(Opcode::kEstimateFrequency, "999999")));
  ASSERT_TRUE(freq.has_value());
  EXPECT_EQ(freq->status, Status::kOk);
  EXPECT_EQ(freq->value_u64, 0u);
}

// --- Dispatcher: every error path ------------------------------------

/// Expects `payload` to be answered with exactly `status`, and the
/// response to be decodable as an error frame.
void ExpectError(QueryDispatcher& dispatcher, std::string_view payload,
                 Status status) {
  const std::string response = dispatcher.Handle(payload);
  const auto decoded = DecodeResponse(Opcode::kPing, response);
  ASSERT_TRUE(decoded.has_value()) << HexDump(payload);
  EXPECT_EQ(decoded->status, status)
      << HexDump(payload) << " detail: " << decoded->error_detail;
  EXPECT_FALSE(decoded->error_detail.empty()) << HexDump(payload);
}

TEST(Dispatcher, TypedErrorForEveryMalformedShape) {
  Fixture fx;
  QueryDispatcher dispatcher(fx.hub, fx.codec, 0);

  // Empty payload and unknown opcodes.
  ExpectError(dispatcher, "", Status::kErrMalformed);
  ExpectError(dispatcher, std::string_view("\x00", 1),
              Status::kErrUnknownOpcode);
  ExpectError(dispatcher, "\x09", Status::kErrUnknownOpcode);
  ExpectError(dispatcher, "\xff", Status::kErrUnknownOpcode);

  // 0x07 (PUSH_SKETCH, v2) is assigned, but this dispatcher has no
  // aggregator attached — the refusal is typed, not unknown-opcode.
  ExpectError(dispatcher, "\x07", Status::kErrNotAggregator);

  // 0x08 (DUMP_TRACE, v3) is assigned, but no flight recorder is
  // installed here — again typed, not unknown-opcode.
  ExpectError(dispatcher, "\x08", Status::kErrBadRequest);
  ExpectError(dispatcher, "\x08junk", Status::kErrMalformed);

  // Bodies on body-less opcodes.
  ExpectError(dispatcher, "\x01junk", Status::kErrMalformed);
  ExpectError(dispatcher, "\x06junk", Status::kErrMalformed);

  // TOPK body size and range.
  ExpectError(dispatcher, "\x02", Status::kErrMalformed);       // no k
  ExpectError(dispatcher, std::string("\x02\x05\x00\x00", 4),
              Status::kErrMalformed);                           // short u32
  ExpectError(dispatcher, std::string("\x02\x05\x00\x00\x00\x00", 6),
              Status::kErrMalformed);                           // trailing
  ExpectError(dispatcher, std::string("\x02\x00\x00\x00\x00", 5),
              Status::kErrBadRequest);                          // k == 0
  ExpectError(dispatcher, EncodeTopKRequest(kMaxTopK + 1),
              Status::kErrBadRequest);                          // k too big

  // Estimate bodies: truncated length, truncated key, trailing bytes,
  // zero-length key, unresolvable key.
  ExpectError(dispatcher, "\x03", Status::kErrMalformed);
  ExpectError(dispatcher, std::string("\x03\x05", 2), Status::kErrMalformed);
  ExpectError(dispatcher, std::string("\x03\x05\x00" "ab", 5),
              Status::kErrMalformed);  // claims 5 key bytes, has 2
  ExpectError(dispatcher, std::string("\x03\x01\x00" "abc", 6),
              Status::kErrMalformed);  // claims 1 key byte, has 3
  ExpectError(dispatcher, std::string("\x04\x00\x00", 3), Status::kErrBadKey);
  ExpectError(dispatcher, EncodeEstimateRequest(Opcode::kEstimateFrequency,
                                                "not-a-number"),
              Status::kErrBadKey);
}

TEST(Dispatcher, NoSnapshotYetIsATypedError) {
  ReadSnapshotHub empty_hub;
  NumericKeyCodec codec;
  QueryDispatcher dispatcher(empty_hub, codec, 0);
  ExpectError(dispatcher, EncodeTopKRequest(3), Status::kErrNoSnapshot);
  ExpectError(dispatcher,
              EncodeEstimateRequest(Opcode::kEstimateSignificance, "1"),
              Status::kErrNoSnapshot);
  // PING and STATS still answer: they probe liveness, not data.
  const auto ping =
      DecodeResponse(Opcode::kPing, dispatcher.Handle(EncodePingRequest()));
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(ping->status, Status::kOk);
  EXPECT_EQ(ping->snapshot_seq, 0u);
  const auto stats =
      DecodeResponse(Opcode::kStats, dispatcher.Handle(EncodeStatsRequest()));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->stats.snapshot_seq, 0u);
}

// --- Malformed-bytes fuzz loop ---------------------------------------

/// True when the dispatcher's answer to `payload` is well formed: it
/// must decode as ok against the request's opcode, or as a typed error.
bool AnswerIsWellFormed(QueryDispatcher& dispatcher,
                        const std::string& payload) {
  const std::string response = dispatcher.Handle(payload);
  if (response.empty()) return false;
  const uint8_t status = static_cast<uint8_t>(response[0]);
  if (status != 0) {
    // Typed error: decodes as an error frame regardless of opcode.
    return DecodeResponse(Opcode::kPing, response).has_value();
  }
  // kOk: the payload must have carried a valid opcode, and the response
  // must decode against exactly that opcode.
  if (payload.empty()) return false;
  const uint8_t op = static_cast<uint8_t>(payload[0]);
  if (op < 1 || op > 6) return false;
  return DecodeResponse(static_cast<Opcode>(op), response).has_value();
}

/// Greedy byte-removal shrink: returns the smallest still-failing
/// payload, so a fuzz failure prints a minimal repro.
std::string Shrink(QueryDispatcher& dispatcher, std::string failing) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (size_t i = 0; i < failing.size(); ++i) {
      std::string candidate = failing;
      candidate.erase(i, 1);
      if (!AnswerIsWellFormed(dispatcher, candidate)) {
        failing = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return failing;
}

TEST(DispatcherFuzz, EveryByteStringGetsAWellFormedAnswer) {
  Fixture fx;
  QueryDispatcher dispatcher(fx.hub, fx.codec, 0);
  std::mt19937 rng(20260809);  // seeded: failures reproduce exactly

  std::vector<std::string> seeds = {
      EncodePingRequest(),
      EncodeTopKRequest(5),
      EncodeEstimateRequest(Opcode::kEstimateSignificance, "7"),
      EncodeEstimateRequest(Opcode::kEstimateFrequency, "12"),
      EncodeEstimateRequest(Opcode::kEstimatePersistency, "3"),
      EncodeStatsRequest(),
  };

  for (int iter = 0; iter < 20000; ++iter) {
    std::string payload;
    if (iter % 2 == 0) {
      // Mutated valid request: flip/insert/delete a few bytes.
      payload = seeds[rng() % seeds.size()];
      const int edits = 1 + static_cast<int>(rng() % 4);
      for (int e = 0; e < edits && !payload.empty(); ++e) {
        switch (rng() % 3) {
          case 0:
            payload[rng() % payload.size()] =
                static_cast<char>(rng() & 0xff);
            break;
          case 1:
            payload.insert(payload.begin() + (rng() % (payload.size() + 1)),
                           static_cast<char>(rng() & 0xff));
            break;
          default:
            payload.erase(payload.begin() + (rng() % payload.size()));
            break;
        }
      }
    } else {
      // Pure noise of random length (biased short, occasionally long).
      const size_t len = (iter % 20 == 1) ? 1 + rng() % 8192 : rng() % 32;
      payload.resize(len);
      for (char& c : payload) c = static_cast<char>(rng() & 0xff);
    }

    if (!AnswerIsWellFormed(dispatcher, payload)) {
      const std::string minimal = Shrink(dispatcher, payload);
      FAIL() << "iteration " << iter
             << ": ill-formed answer; minimal repro (hex): "
             << HexDump(minimal);
    }
  }
  // The fuzz traffic really exercised the dispatcher.
  EXPECT_EQ(dispatcher.stats().requests, 20000u);
}

// --- Socket-level round trips against a live QueryServer -------------

class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool SendRaw(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocking-reads one response payload; nullopt on EOF/error.
  std::optional<std::string> RecvPayload() {
    while (true) {
      if (auto payload = parser_.Next()) return payload;
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      parser_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

  /// Reads until EOF; true when the peer closed cleanly.
  bool RecvEof() {
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameParser parser_;
};

class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Ltc table(SmallConfig());
    for (ItemId item = 1; item <= 10; ++item) {
      for (ItemId n = 0; n < item; ++n) table.Insert(item);
    }
    hub_.Publish(std::make_unique<Ltc>(table), 55);
    server_.emplace(hub_, codec_, 0, QueryServerConfig{});
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    ASSERT_GT(server_->port(), 0);
  }

  ReadSnapshotHub hub_;
  NumericKeyCodec codec_;
  std::optional<QueryServer> server_;
};

TEST_F(QueryServerTest, ServesPipelinedRequestsInOrder) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw(
      EncodeFrame(EncodePingRequest()) + EncodeFrame(EncodeTopKRequest(3)) +
      EncodeFrame(EncodeEstimateRequest(Opcode::kEstimateFrequency, "10"))));

  const auto ping_payload = client.RecvPayload();
  ASSERT_TRUE(ping_payload.has_value());
  const auto ping = DecodeResponse(Opcode::kPing, *ping_payload);
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(ping->status, Status::kOk);
  EXPECT_EQ(ping->snapshot_seq, 1u);
  EXPECT_EQ(ping->records, 55u);

  const auto topk_payload = client.RecvPayload();
  ASSERT_TRUE(topk_payload.has_value());
  const auto topk = DecodeResponse(Opcode::kTopK, *topk_payload);
  ASSERT_TRUE(topk.has_value());
  EXPECT_EQ(topk->status, Status::kOk);
  EXPECT_EQ(topk->topk.size(), 3u);

  const auto freq_payload = client.RecvPayload();
  ASSERT_TRUE(freq_payload.has_value());
  const auto freq = DecodeResponse(Opcode::kEstimateFrequency, *freq_payload);
  ASSERT_TRUE(freq.has_value());
  EXPECT_EQ(freq->status, Status::kOk);
  EXPECT_EQ(freq->value_u64, 10u);
}

TEST_F(QueryServerTest, MalformedFrameGetsTypedErrorAndConnectionSurvives) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // Garbage payload inside a well-formed frame.
  ASSERT_TRUE(client.SendRaw(EncodeFrame("\xee junk")));
  const auto error_payload = client.RecvPayload();
  ASSERT_TRUE(error_payload.has_value());
  const auto error = DecodeResponse(Opcode::kPing, *error_payload);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->status, Status::kErrUnknownOpcode);
  // The connection keeps working afterwards.
  ASSERT_TRUE(client.SendRaw(EncodeFrame(EncodePingRequest())));
  const auto pong_payload = client.RecvPayload();
  ASSERT_TRUE(pong_payload.has_value());
  EXPECT_EQ(DecodeResponse(Opcode::kPing, *pong_payload)->status, Status::kOk);
}

TEST_F(QueryServerTest, OversizedFrameGetsTypedErrorThenCleanClose) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // Declared length beyond kMaxFrameBytes: poisoned stream.
  uint32_t huge = static_cast<uint32_t>(kMaxFrameBytes) + 1;
  char prefix[4];
  std::memcpy(prefix, &huge, 4);
  ASSERT_TRUE(client.SendRaw(std::string(prefix, 4)));
  const auto error_payload = client.RecvPayload();
  ASSERT_TRUE(error_payload.has_value());
  const auto error = DecodeResponse(Opcode::kPing, *error_payload);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->status, Status::kErrOversized);
  EXPECT_TRUE(client.RecvEof());  // FIN, not RST
}

TEST_F(QueryServerTest, StopDrainsGracefully) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw(EncodeFrame(EncodePingRequest())));
  const auto pong = client.RecvPayload();
  ASSERT_TRUE(pong.has_value());
  server_->Stop();
  EXPECT_FALSE(server_->running());
  // The held connection was FIN'd, not reset.
  EXPECT_TRUE(client.RecvEof());
  EXPECT_EQ(server_->TotalRequests(), 1u);
}

TEST(QueryServerIdle, IdleConnectionsAreEvictedAndCounted) {
  ReadSnapshotHub hub;
  NumericKeyCodec codec;
  hub.Publish(std::make_unique<Ltc>(SmallConfig()), 0);
  QueryServerConfig config;
  config.idle_timeout_usec = 150'000;  // tiny, so the test stays fast
  QueryServer server(hub, codec, 0, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient idle_client(server.port());
  ASSERT_TRUE(idle_client.connected());
  // Activity arms the idle clock; then the client goes silent.
  ASSERT_TRUE(idle_client.SendRaw(EncodeFrame(EncodePingRequest())));
  ASSERT_TRUE(idle_client.RecvPayload().has_value());

  // The server FINs the idle connection on its own.
  EXPECT_TRUE(idle_client.RecvEof());
  EXPECT_EQ(server.ConnectionsIdleClosed(), 1u);

  // An active server is otherwise unaffected: a fresh connection works.
  TestClient fresh(server.port());
  ASSERT_TRUE(fresh.connected());
  ASSERT_TRUE(fresh.SendRaw(EncodeFrame(EncodePingRequest())));
  EXPECT_TRUE(fresh.RecvPayload().has_value());
  server.Stop();
}

// Fairness under a pushed sketch: the loop reads one whole frame per
// connection per turn. A push frame trickling in over many small writes
// must not stall a query client that keeps pipelining small frames, and
// both must be answered, the queries in order.
TEST(QueryServerAggregator, TricklingPushAndPipelinedQueriesAreBothAnswered) {
  LtcConfig config = SmallConfig();
  config.memory_bytes = 64 * 1024;  // a push frame above kMaxFrameBytes
  // Served before and after the push alike: item i has frequency i.
  Ltc image(config);
  for (ItemId item = 1; item <= 10; ++item) {
    for (ItemId n = 0; n < item; ++n) image.Insert(item);
  }
  image.Finalize();
  ReadSnapshotHub hub;
  hub.Publish(std::make_unique<Ltc>(image), 55);
  NumericKeyCodec codec;
  AggregatorCore aggregator(config, &hub);
  QueryServerConfig server_config;
  server_config.max_push_frame_bytes = kMaxPushFrameBytes;
  QueryServer server(hub, codec, 0, server_config);
  server.AttachAggregator(&aggregator);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  PushRequest push;
  push.node_id = 1;
  push.epoch_seq = 1;
  push.records = 55;
  BinaryWriter writer;
  image.Serialize(writer);
  push.payload = writer.data();
  const std::string frame = EncodeFrame(EncodePushRequest(push));
  ASSERT_GT(frame.size(), kMaxFrameBytes);

  TestClient pusher(server.port());
  TestClient querier(server.port());
  ASSERT_TRUE(pusher.connected());
  ASSERT_TRUE(querier.connected());
  std::atomic<bool> pushed{false};
  std::thread trickle([&] {
    constexpr size_t kPiece = 701;
    for (size_t off = 0; off < frame.size(); off += kPiece) {
      if (!pusher.SendRaw(std::string_view(frame).substr(off, kPiece))) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    pushed.store(true);
  });

  std::string round;
  for (ItemId key = 1; key <= 10; ++key) {
    round += EncodeFrame(EncodeEstimateRequest(Opcode::kEstimateFrequency,
                                               std::to_string(key)));
  }
  round += EncodeFrame(EncodeTopKRequest(3));
  int rounds = 0;
  while (!pushed.load() || rounds < 3) {
    ASSERT_TRUE(querier.SendRaw(round));
    for (ItemId key = 1; key <= 10; ++key) {
      const auto payload = querier.RecvPayload();
      ASSERT_TRUE(payload.has_value());
      const auto freq = DecodeResponse(Opcode::kEstimateFrequency, *payload);
      ASSERT_TRUE(freq.has_value());
      ASSERT_EQ(freq->status, Status::kOk);
      ASSERT_EQ(freq->value_u64, key) << "round " << rounds;  // in order
    }
    const auto payload = querier.RecvPayload();
    ASSERT_TRUE(payload.has_value());
    const auto topk = DecodeResponse(Opcode::kTopK, *payload);
    ASSERT_TRUE(topk.has_value());
    ASSERT_EQ(topk->topk.size(), 3u);
    EXPECT_EQ(topk->topk[0].key, "10");
    ++rounds;
  }
  trickle.join();

  const auto ack_payload = pusher.RecvPayload();
  ASSERT_TRUE(ack_payload.has_value());
  const auto ack = DecodeResponse(Opcode::kPushSketch, *ack_payload);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, Status::kOk);
  EXPECT_TRUE(ack->push_applied);
  EXPECT_EQ(ack->push_epoch, 1u);
  server.Stop();
  EXPECT_EQ(aggregator.merges_total(), 1u);
  EXPECT_EQ(hub.PublishedSeq(), 2u);
  EXPECT_EQ(server.TotalErrors(), 0u);
}

TEST_F(QueryServerTest, CountersTrackTraffic) {
  {
    TestClient client(server_->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendRaw(EncodeFrame(EncodePingRequest()) +
                               EncodeFrame("\xff")));
    ASSERT_TRUE(client.RecvPayload().has_value());
    ASSERT_TRUE(client.RecvPayload().has_value());
  }
  server_->Stop();
  EXPECT_EQ(server_->TotalRequests(), 2u);
  EXPECT_EQ(server_->TotalErrors(), 1u);
  EXPECT_EQ(server_->ConnectionsOpened(), 1u);
}

}  // namespace
}  // namespace server
}  // namespace ltc
