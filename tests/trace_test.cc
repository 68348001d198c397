// Tracing battery (docs/TELEMETRY.md "Tracing & flight recorder"):
// flight-recorder units on a FakeClock (ring wrap, auto-parenting,
// remote-parent override, exemplars, budgeted dumps), golden frames
// for the v3 trace-context extension, the exact per-opcode split
// rules, and the dispatcher-level compatibility contract — an
// ext-bearing request answers byte-identically to its plain twin, a
// plain request is byte-identical to what a pre-v3 client sent, and
// every tampered ext-bearing payload still gets a decodable typed
// response (the same totality claim server_test.cc pins for base
// payloads).

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/ltc.h"
#include "core/read_snapshot.h"
#include "server/dispatcher.h"
#include "server/key_codec.h"
#include "server/protocol.h"
#include "server/push_client.h"
#include "snapshot/fs.h"
#include "store/sketch_store.h"
#include "telemetry/trace.h"

namespace ltc {
namespace server {
namespace {

namespace tel = ::ltc::telemetry;

std::string HexDump(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kHex[c >> 4];
    out += kHex[c & 0xf];
  }
  return out;
}

/// A hub holding one published snapshot of a small table, so the
/// dispatcher has data to answer with.
struct Fixture {
  Fixture() {
    LtcConfig config;
    config.memory_bytes = 16 * 1024;
    config.period_mode = PeriodMode::kCountBased;
    config.items_per_period = 100;
    Ltc table(config);
    for (ItemId item = 1; item <= 20; ++item) {
      for (ItemId n = 0; n < item; ++n) table.Insert(item);
    }
    hub.Publish(std::make_unique<Ltc>(table), 20 * 21 / 2);
  }

  ReadSnapshotHub hub;
  NumericKeyCodec codec;
};

#ifdef LTC_TRACING

/// Installs a recorder for one test scope and always uninstalls it, so
/// a failing assertion can't leak an active recorder into later tests.
struct Installed {
  explicit Installed(tel::FlightRecorder* recorder) {
    tel::FlightRecorder::Install(recorder);
  }
  ~Installed() { tel::FlightRecorder::Install(nullptr); }
};

// --- Flight recorder units (all on a FakeClock) ----------------------

TEST(TraceRecorder, SpanCommitsOneEventWithClockTimestamps) {
  FakeClock clock;
  clock.Advance(1000);
  tel::FlightRecorder recorder(&clock, 8);
  Installed active(&recorder);
  {
    tel::Span span("unit.scope");
    span.AddAttr("k", 42);
    clock.Advance(7);
  }
  const std::string json = recorder.DumpChromeJson();
  EXPECT_NE(json.find("\"name\":\"unit.scope\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":1000,\"dur\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"k\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"truncated\":false"), std::string::npos) << json;
}

TEST(TraceRecorder, NestedSpansAutoParentOnTheSameThread) {
  FakeClock clock;
  tel::FlightRecorder recorder(&clock, 8);
  Installed active(&recorder);
  tel::Span outer("unit.outer");
  ASSERT_TRUE(outer.recording());
  EXPECT_EQ(tel::CurrentTraceContext().span_id, outer.context().span_id);
  {
    tel::Span inner("unit.inner");
    // Same trace, parented under the innermost live span.
    EXPECT_EQ(inner.context().trace_id, outer.context().trace_id);
    EXPECT_NE(inner.context().span_id, outer.context().span_id);
    EXPECT_EQ(tel::CurrentTraceContext().span_id, inner.context().span_id);
  }
  // Inner's destruction restores the outer as current.
  EXPECT_EQ(tel::CurrentTraceContext().span_id, outer.context().span_id);
}

TEST(TraceRecorder, RemoteParentOverridesTheThreadLocalChain) {
  FakeClock clock;
  tel::FlightRecorder recorder(&clock, 8);
  Installed active(&recorder);
  tel::Span local("unit.local");
  const tel::TraceContext remote{0x1111222233334444ULL,
                                 0x5555666677778888ULL};
  tel::Span span("unit.remote_child", remote);
  // The remote context wins over the live local span.
  EXPECT_EQ(span.context().trace_id, remote.trace_id);
  EXPECT_NE(span.context().trace_id, local.context().trace_id);
}

TEST(TraceRecorder, RingWrapKeepsTheNewestSpans) {
  FakeClock clock;
  tel::FlightRecorder recorder(&clock, 4);
  Installed active(&recorder);
  for (uint64_t i = 0; i < 10; ++i) {
    tel::Span span("unit.wrap");
    span.AddAttr("i", i);
    clock.Advance(1);
  }
  const std::string json = recorder.DumpChromeJson();
  // Only the last ring-size spans survive; the earliest are gone.
  EXPECT_NE(json.find("\"i\":9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"i\":6"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"i\":5"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"i\":0"), std::string::npos) << json;
}

TEST(TraceRecorder, WorstSpansPicksTheLongestPerName) {
  FakeClock clock;
  tel::FlightRecorder recorder(&clock, 16);
  Installed active(&recorder);
  for (uint64_t usec : {5, 50, 20}) {
    tel::Span span("unit.varied");
    clock.Advance(usec);
  }
  {
    tel::Span span("unit.other");
    clock.Advance(7);
  }
  const auto exemplars = recorder.WorstSpans();
  ASSERT_EQ(exemplars.size(), 2u);
  uint64_t varied = 0, other = 0;
  for (const auto& e : exemplars) {
    if (e.name == "unit.varied") varied = e.duration_usec;
    if (e.name == "unit.other") other = e.duration_usec;
    EXPECT_NE(e.trace_id, 0u);
  }
  EXPECT_EQ(varied, 50u);
  EXPECT_EQ(other, 7u);
}

TEST(TraceRecorder, BudgetedDumpKeepsNewestAndFlagsTruncation) {
  FakeClock clock;
  tel::FlightRecorder recorder(&clock, 64);
  Installed active(&recorder);
  for (uint64_t i = 0; i < 64; ++i) {
    tel::Span span("unit.budget");
    span.AddAttr("i", i);
    clock.Advance(1);
  }
  const std::string full = recorder.DumpChromeJson();
  const std::string capped = recorder.DumpChromeJson(800);
  EXPECT_LE(capped.size(), 800u);
  EXPECT_LT(capped.size(), full.size());
  EXPECT_NE(capped.find("\"truncated\":true"), std::string::npos) << capped;
  // The newest event survives the cut; the oldest does not.
  EXPECT_NE(capped.find("\"i\":63"), std::string::npos) << capped;
  EXPECT_EQ(capped.find("\"i\":0,"), std::string::npos) << capped;
}

TEST(TraceRecorder, NoActiveRecorderMeansFreeSpans) {
  ASSERT_EQ(tel::FlightRecorder::active(), nullptr);
  tel::Span span("unit.idle");
  EXPECT_FALSE(span.recording());
  EXPECT_FALSE(span.context().valid());
  EXPECT_FALSE(tel::CurrentTraceContext().valid());
}

TEST(TraceRecorder, DestructionUninstallsItself) {
  {
    FakeClock clock;
    tel::FlightRecorder recorder(&clock, 8);
    tel::FlightRecorder::Install(&recorder);
    EXPECT_EQ(tel::FlightRecorder::active(), &recorder);
  }
  EXPECT_EQ(tel::FlightRecorder::active(), nullptr);
}

#endif  // LTC_TRACING

// --- v3 trace-context extension: wire format -------------------------
// These run in BOTH build flavors: the protocol layer has no LTC_TRACING
// dependency, so an LTC_TRACING=OFF server still splits (and ignores)
// extensions from traced clients.

TEST(TraceExt, GoldenFrames) {
  // Framed DUMP_TRACE: length 1, opcode 0x08.
  EXPECT_EQ(HexDump(EncodeFrame(EncodeDumpTraceRequest())), "0100000008");

  // Framed PING + ext: length 19, opcode, magic "TC" (0x5443 LE),
  // trace_id, span_id — all little-endian.
  std::string payload = EncodePingRequest();
  AppendTraceExt(&payload, {0x1122334455667788ULL, 0x99aabbccddeeff00ULL});
  EXPECT_EQ(HexDump(EncodeFrame(payload)),
            "13000000"
            "01"
            "4354"
            "8877665544332211"
            "00ffeeddccbbaa99");
}

TEST(TraceExt, DefaultFramesStayByteIdenticalToV2) {
  // A client that does not opt into tracing emits exactly the v2
  // bytes — the compatibility story for pre-v3 servers. (These pins
  // duplicate server_test's golden frames on purpose: this is the
  // contract that makes the ext safe to ship.)
  EXPECT_EQ(HexDump(EncodeFrame(EncodePingRequest())), "0100000001");
  EXPECT_EQ(HexDump(EncodeFrame(EncodeTopKRequest(5))), "050000000205000000");
  EXPECT_EQ(HexDump(EncodeFrame(
                EncodeEstimateRequest(Opcode::kEstimateFrequency, "ab"))),
            "0500000004" "0200" "6162");
  // And the pusher's opt-in defaults to OFF.
  EXPECT_FALSE(SketchPusherConfig{}.propagate_trace);
}

/// Runs SplitTraceExt over `payload` (a full request: opcode + body)
/// and returns (ok, had_ext, base_len).
struct SplitResult {
  bool ok = false;
  bool had_ext = false;
  size_t base_len = 0;
  TraceContextExt ext;
};
SplitResult Split(std::string_view payload) {
  SplitResult r;
  const auto opcode = static_cast<Opcode>(payload[0]);
  std::string_view body = payload.substr(1);
  std::string_view base = body;
  std::optional<TraceContextExt> ext;
  r.ok = SplitTraceExt(opcode, body, &base, &ext);
  r.had_ext = ext.has_value();
  if (ext.has_value()) r.ext = *ext;
  r.base_len = base.size();
  return r;
}

TEST(TraceExt, SplitIsExactPerOpcode) {
  const TraceContextExt ctx{0xdeadbeefcafef00dULL, 0x0123456789abcdefULL};
  std::vector<std::string> bases;
  bases.push_back(EncodePingRequest());
  bases.push_back(EncodeStatsRequest());
  bases.push_back(EncodeDumpTraceRequest());
  bases.push_back(EncodeTopKRequest(7));
  bases.push_back(EncodeEstimateRequest(Opcode::kEstimateFrequency, "key"));
  PushRequest push;
  push.node_id = 1;
  push.epoch_seq = 2;
  push.records = 10;
  push.payload = "sketchbytes";
  bases.push_back(EncodePushRequest(push));

  for (const std::string& base : bases) {
    // Without the ext: passes through, nothing split.
    SplitResult plain = Split(base);
    EXPECT_TRUE(plain.ok) << HexDump(base);
    EXPECT_FALSE(plain.had_ext) << HexDump(base);
    EXPECT_EQ(plain.base_len, base.size() - 1) << HexDump(base);

    // With the ext: split exactly, ids intact.
    std::string extended = base;
    AppendTraceExt(&extended, ctx);
    SplitResult split = Split(extended);
    EXPECT_TRUE(split.ok) << HexDump(extended);
    ASSERT_TRUE(split.had_ext) << HexDump(extended);
    EXPECT_EQ(split.base_len, base.size() - 1);
    EXPECT_EQ(split.ext.trace_id, ctx.trace_id);
    EXPECT_EQ(split.ext.span_id, ctx.span_id);

    // Exactly the ext's place but the wrong magic: the one rejected
    // shape (kErrMalformed at the dispatcher).
    std::string tampered = extended;
    tampered[base.size()] ^= 0xff;  // first magic byte
    EXPECT_FALSE(Split(tampered).ok) << HexDump(tampered);

    // A truncated ext is NOT the ext's place — it passes through for
    // the opcode handler's own typed length error.
    std::string truncated = extended.substr(0, extended.size() - 1);
    SplitResult passed = Split(truncated);
    EXPECT_TRUE(passed.ok) << HexDump(truncated);
    EXPECT_FALSE(passed.had_ext) << HexDump(truncated);
    EXPECT_EQ(passed.base_len, truncated.size() - 1);
  }
}

TEST(TraceExt, KeyBytesThatLookLikeTheMagicAreNeverMisSplit) {
  // A key whose tail is a byte-perfect fake extension: the explicit
  // key_len already covers those bytes, so no ext is detected — exact
  // split, not heuristic.
  std::string fake_ext;
  AppendTraceExt(&fake_ext, {0x1111111111111111ULL, 0x2222222222222222ULL});
  const std::string key = "k" + fake_ext;
  const std::string payload =
      EncodeEstimateRequest(Opcode::kEstimateFrequency, key);
  SplitResult r = Split(payload);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.had_ext);
  EXPECT_EQ(r.base_len, payload.size() - 1);

  // The same key WITH a real extension appended: only the trailing
  // copy is split off; the in-key copy stays part of the base body.
  std::string extended = payload;
  AppendTraceExt(&extended, {0x3333333333333333ULL, 0x4444444444444444ULL});
  SplitResult split = Split(extended);
  EXPECT_TRUE(split.ok);
  ASSERT_TRUE(split.had_ext);
  EXPECT_EQ(split.ext.trace_id, 0x3333333333333333ULL);
  EXPECT_EQ(split.base_len, payload.size() - 1);
}

// --- Dispatcher-level compatibility ----------------------------------

TEST(TraceExt, ExtendedRequestsAnswerByteIdenticallyToPlainOnes) {
  Fixture fx;
  QueryDispatcher dispatcher(fx.hub, fx.codec, 0);
  const TraceContextExt ctx{0xaaaabbbbccccddddULL, 0x1111222233334444ULL};
  const std::vector<std::string> payloads = {
      EncodePingRequest(),
      EncodeStatsRequest(),
      EncodeTopKRequest(5),
      EncodeEstimateRequest(Opcode::kEstimateFrequency, "7"),
      EncodeEstimateRequest(Opcode::kEstimateSignificance, "3"),
  };
  for (const std::string& plain : payloads) {
    std::string extended = plain;
    AppendTraceExt(&extended, ctx);
    EXPECT_EQ(dispatcher.Handle(plain), dispatcher.Handle(extended))
        << HexDump(plain);
  }
}

TEST(TraceExt, WrongMagicInTheExtSlotIsTypedMalformed) {
  Fixture fx;
  QueryDispatcher dispatcher(fx.hub, fx.codec, 0);
  std::string payload = EncodePingRequest();
  AppendTraceExt(&payload, {1, 2});
  payload[1] ^= 0xff;  // corrupt the magic, keep the length
  const auto decoded =
      DecodeResponse(Opcode::kPing, dispatcher.Handle(payload));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, Status::kErrMalformed);
}

TEST(TraceExt, TamperedExtendedPayloadsAlwaysGetDecodableResponses) {
  // The totality sweep, ext edition: every truncation and every
  // single-byte flip of an ext-bearing request still yields a
  // decodable response — never a crash, never silence.
  Fixture fx;
  QueryDispatcher dispatcher(fx.hub, fx.codec, 0);
  std::vector<std::string> seeds;
  for (std::string payload :
       {EncodePingRequest(), EncodeTopKRequest(3),
        EncodeEstimateRequest(Opcode::kEstimateFrequency, "12"),
        EncodeStatsRequest(), EncodeDumpTraceRequest()}) {
    AppendTraceExt(&payload, {0x5454545454545454ULL, 0x4343434343434343ULL});
    seeds.push_back(payload);
  }
  // Same well-formedness rule as server_test's fuzz loop: a non-OK
  // status decodes as an error frame regardless of opcode; an OK
  // response must decode against the (necessarily valid) request
  // opcode — a truncation can land on a shorter VALID request.
  const auto well_formed = [&](const std::string& payload) {
    const std::string response = dispatcher.Handle(payload);
    if (response.empty()) return false;
    if (static_cast<uint8_t>(response[0]) != 0) {
      return DecodeResponse(Opcode::kPing, response).has_value();
    }
    if (payload.empty()) return false;
    const uint8_t op = static_cast<uint8_t>(payload[0]);
    if (op < 1 || op > 8) return false;
    return DecodeResponse(static_cast<Opcode>(op), response).has_value();
  };
  for (const std::string& seed : seeds) {
    for (size_t cut = 0; cut <= seed.size(); ++cut) {
      EXPECT_TRUE(well_formed(seed.substr(0, cut)))
          << "cut=" << cut << " " << HexDump(seed);
    }
    for (size_t at = 0; at < seed.size(); ++at) {
      std::string flipped = seed;
      flipped[at] ^= 0x41;
      EXPECT_TRUE(well_formed(flipped)) << "at=" << at << " " << HexDump(seed);
    }
  }
}

// --- DUMP_TRACE ------------------------------------------------------

TEST(DumpTrace, ResponseRoundTrips) {
  const std::string json = "{\"traceEvents\":[]}";
  const auto decoded =
      DecodeResponse(Opcode::kDumpTrace, EncodeTraceDumpResponse(json));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, Status::kOk);
  EXPECT_EQ(decoded->trace_json, json);

  // A truncated response payload is undecodable (server-bug sentinel,
  // same contract as every other response decoder).
  const std::string full = EncodeTraceDumpResponse(json);
  EXPECT_FALSE(
      DecodeResponse(Opcode::kDumpTrace, full.substr(0, full.size() - 3))
          .has_value());
}

TEST(DumpTrace, NoRecorderIsATypedRefusal) {
  Fixture fx;
  QueryDispatcher dispatcher(fx.hub, fx.codec, 0);
  ASSERT_EQ(tel::FlightRecorder::active(), nullptr);
  const auto decoded = DecodeResponse(Opcode::kDumpTrace,
                                      dispatcher.Handle(EncodeDumpTraceRequest()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, Status::kErrBadRequest);
}

#ifdef LTC_TRACING

TEST(DumpTrace, WithARecorderAnswersBoundedJson) {
  Fixture fx;
  QueryDispatcher dispatcher(fx.hub, fx.codec, 0);
  FakeClock clock;
  tel::FlightRecorder recorder(&clock, 32);
  Installed active(&recorder);
  // Generate some server-side spans first.
  dispatcher.Handle(EncodePingRequest());
  dispatcher.Handle(EncodeTopKRequest(3));
  const auto decoded = DecodeResponse(Opcode::kDumpTrace,
                                      dispatcher.Handle(EncodeDumpTraceRequest()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, Status::kOk);
  EXPECT_NE(decoded->trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(decoded->trace_json.find("server.request"), std::string::npos);
  // The dump must fit the standard frame cap with room for the header.
  EXPECT_LE(decoded->trace_json.size(), kMaxFrameBytes - 64);
}

TEST(DumpTrace, RemoteContextParentsTheServerSpan) {
  Fixture fx;
  QueryDispatcher dispatcher(fx.hub, fx.codec, 0);
  FakeClock clock;
  tel::FlightRecorder recorder(&clock, 32);
  Installed active(&recorder);
  std::string payload = EncodePingRequest();
  const TraceContextExt ctx{0xfeedfacefeedfaceULL, 0xabadcafeabadcafeULL};
  AppendTraceExt(&payload, ctx);
  dispatcher.Handle(payload);
  const std::string json = recorder.DumpChromeJson();
  // The server.request span joined the caller's trace and parent.
  EXPECT_NE(json.find("\"trace_id\":\"0xfeedfacefeedface\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"parent_id\":\"0xabadcafeabadcafe\""),
            std::string::npos)
      << json;
}

// --- Store spans ------------------------------------------------------

struct DumpedEvent {
  std::string name;
  std::string span_id;
  std::string parent_id;
};

/// Every event of a Chrome-JSON dump, in dump order.
std::vector<DumpedEvent> EventsOf(const std::string& json) {
  auto field = [&](const std::string& key, size_t from, size_t* end) {
    const std::string open = "\"" + key + "\":\"";
    const size_t start = json.find(open, from) + open.size();
    *end = json.find('"', start);
    return json.substr(start, *end - start);
  };
  std::vector<DumpedEvent> events;
  size_t pos = 0;
  while ((pos = json.find("{\"name\":\"", pos)) != std::string::npos) {
    DumpedEvent event;
    event.name = field("name", pos, &pos);
    event.span_id = field("span_id", pos, &pos);
    event.parent_id = field("parent_id", pos, &pos);
    events.push_back(std::move(event));
  }
  return events;
}

// One SketchStore::Put is a store.put span whose children are the WAL
// append and the WAL sync; one CheckpointDirty is a store.checkpoint
// span. Both parent under the caller's live span.
TEST(StoreSpans, PutAndCheckpointNameTheirStepsUnderTheCaller) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "store_spans";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string error;
  auto store = store::SketchStore::Open(SystemFs(), dir.string(), {}, &error);
  ASSERT_NE(store, nullptr) << error;
  LtcConfig config;
  config.memory_bytes = 4 * 1024;
  Ltc table(config);
  for (ItemId item = 1; item <= 50; ++item) table.Insert(item);

  auto id_of = [](const tel::Span& span) {
    char id[32];
    std::snprintf(id, sizeof(id), "0x%016llx",
                  static_cast<unsigned long long>(span.context().span_id));
    return std::string(id);
  };
  FakeClock clock;
  tel::FlightRecorder recorder(&clock, 64);
  std::string caller_put;
  std::string caller_checkpoint;
  {
    Installed active(&recorder);
    {
      tel::Span caller("unit.put");
      caller_put = id_of(caller);
      ASSERT_TRUE(store->Put(7, table, &error)) << error;
    }
    {
      tel::Span caller("unit.checkpoint");
      caller_checkpoint = id_of(caller);
      ASSERT_TRUE(store->CheckpointDirty(&error)) << error;
    }
  }
  std::map<std::string, DumpedEvent> by_name;
  for (const DumpedEvent& event : EventsOf(recorder.DumpChromeJson())) {
    EXPECT_EQ(by_name.count(event.name), 0u) << "twice: " << event.name;
    by_name[event.name] = event;
  }
  for (const char* name : {"unit.put", "store.put", "wal.append", "wal.sync",
                           "unit.checkpoint", "store.checkpoint"}) {
    ASSERT_EQ(by_name.count(name), 1u) << name;
  }
  EXPECT_EQ(by_name.size(), 6u);
  EXPECT_EQ(by_name["store.put"].parent_id, caller_put);
  EXPECT_EQ(by_name["wal.append"].parent_id, by_name["store.put"].span_id);
  EXPECT_EQ(by_name["wal.sync"].parent_id, by_name["store.put"].span_id);
  EXPECT_EQ(by_name["store.checkpoint"].parent_id, caller_checkpoint);
}

#endif  // LTC_TRACING

}  // namespace
}  // namespace server
}  // namespace ltc
