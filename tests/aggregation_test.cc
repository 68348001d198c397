// Aggregation-tier battery (docs/SERVING.md "Aggregation tier"):
// PUSH_SKETCH wire goldens, the push-only frame-cap raise, the
// AggregatorCore's idempotent-merge semantics (duplicates, stale
// epochs, reorderings — all bit-identical), typed rejection of every
// malformed push (corruption sweep included, and a differential sweep
// of the in-place apply against the full Deserialize path), each
// refold path against the MergeFrom fold, FakeClock staleness rows,
// dispatcher integration, the exact frame SketchPusher sends, and its
// retry loop driven against an in-process loopback transport under
// injected faults. The socket-level storm lives in tests/aggregation_chaos_test.
//
// The tier's central claim mirrors the protocol's totality claim: for
// EVERY push a client can send — duplicated, reordered, truncated,
// corrupted, wrong-shaped — the aggregator answers a typed outcome and
// its merged aggregate stays a pure function of {newest valid image
// per node}.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/rng.h"
#include "common/serial.h"
#include "core/ltc.h"
#include "core/read_snapshot.h"
#include "server/aggregator.h"
#include "server/dispatcher.h"
#include "server/key_codec.h"
#include "server/protocol.h"
#include "server/push_client.h"
#include "telemetry/trace.h"
#include "testing/faulty_transport.h"

namespace ltc {
namespace server {
namespace {

LtcConfig SmallConfig() {
  LtcConfig config;
  config.memory_bytes = 4 * 1024;
  config.period_mode = PeriodMode::kCountBased;
  config.items_per_period = 100;
  return config;
}

/// A finalized sketch holding `copies` inserts of each item in `items`
/// — the image a pusher would ship at a barrier.
Ltc MakeSketch(const LtcConfig& config, const std::vector<ItemId>& items,
               uint64_t copies = 1) {
  Ltc table(config);
  for (uint64_t c = 0; c < copies; ++c) {
    for (ItemId item : items) table.Insert(item);
  }
  table.Finalize();
  return table;
}

std::string SerializeTable(const Ltc& table) {
  BinaryWriter writer;
  table.Serialize(writer);
  return writer.data();
}

PushRequest MakePush(uint64_t node_id, uint64_t epoch, const Ltc& table,
                     uint64_t records = 0) {
  PushRequest push;
  push.node_id = node_id;
  push.epoch_seq = epoch;
  push.records = records;
  push.payload = SerializeTable(table);
  return push;
}

// --- Wire format ------------------------------------------------------

TEST(PushProtocol, RequestLayoutIsPinnedAndRoundTrips) {
  PushRequest push;
  push.node_id = 0x1122334455667788;
  push.epoch_seq = 7;
  push.sketch_kind = kSketchKindLtc;
  push.records = 1000;
  push.payload = "abc";

  const std::string encoded = EncodePushRequest(push);
  // u8 opcode + u64 node + u64 epoch + u8 kind + u64 records +
  // u32 payload_len + payload.
  ASSERT_EQ(encoded.size(), 1 + 8 + 8 + 1 + 8 + 4 + 3);
  EXPECT_EQ(static_cast<uint8_t>(encoded[0]),
            static_cast<uint8_t>(Opcode::kPushSketch));
  EXPECT_EQ(static_cast<uint8_t>(encoded[1]), 0x88);  // little-endian
  EXPECT_EQ(static_cast<uint8_t>(encoded[8]), 0x11);

  const auto decoded = DecodePushRequestBody(
      std::string_view(encoded).substr(1));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->node_id, push.node_id);
  EXPECT_EQ(decoded->epoch_seq, 7u);
  EXPECT_EQ(decoded->sketch_kind, kSketchKindLtc);
  EXPECT_EQ(decoded->records, 1000u);
  EXPECT_EQ(decoded->payload, "abc");
}

TEST(PushProtocol, DecodeRejectsTruncatedAndInconsistentBodies) {
  PushRequest push;
  push.node_id = 5;
  push.epoch_seq = 1;
  push.records = 10;
  push.payload = "sketchbytes";
  const std::string body = EncodePushRequest(push).substr(1);

  // Every strict prefix is truncated.
  for (size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(DecodePushRequestBody(body.substr(0, len)).has_value())
        << "prefix of " << len << " bytes decoded";
  }
  // Trailing garbage makes the declared payload length inconsistent.
  EXPECT_FALSE(DecodePushRequestBody(body + "x").has_value());
  // A declared length above the actual bytes is truncation, not UB.
  std::string inflated = body;
  inflated[8 + 8 + 1 + 8] = static_cast<char>(0xff);
  EXPECT_FALSE(DecodePushRequestBody(inflated).has_value());
}

TEST(PushProtocol, AckRoundTripsAndRejectionsAreTyped) {
  const auto applied = DecodeResponse(Opcode::kPushSketch,
                                      EncodePushResponse(9, true));
  ASSERT_TRUE(applied.has_value());
  EXPECT_EQ(applied->status, Status::kOk);
  EXPECT_EQ(applied->push_epoch, 9u);
  EXPECT_TRUE(applied->push_applied);

  const auto duplicate = DecodeResponse(Opcode::kPushSketch,
                                        EncodePushResponse(9, false));
  ASSERT_TRUE(duplicate.has_value());
  EXPECT_FALSE(duplicate->push_applied);

  for (Status status : {Status::kErrShapeMismatch, Status::kErrStaleEpoch,
                        Status::kErrBadSketch, Status::kErrNotAggregator}) {
    const auto error = DecodeResponse(
        Opcode::kPushSketch, EncodeErrorResponse(status, "why"));
    ASSERT_TRUE(error.has_value()) << StatusName(status);
    EXPECT_EQ(error->status, status);
    EXPECT_EQ(error->error_detail, "why");
  }

  // A truncated ack is a malformed payload, not a crash.
  const std::string ack = EncodePushResponse(9, true);
  for (size_t len = 0; len < ack.size(); ++len) {
    EXPECT_FALSE(
        DecodeResponse(Opcode::kPushSketch, ack.substr(0, len)).has_value());
  }
}

TEST(PushProtocol, FrameParserRaisesTheCapForPushFramesOnly) {
  const size_t query_cap = 64;
  const size_t push_cap = 1 << 20;
  const std::string big_push(
      EncodePushRequest(MakePush(1, 1, MakeSketch(SmallConfig(), {1, 2, 3}))));
  ASSERT_GT(big_push.size(), query_cap);
  ASSERT_LE(big_push.size(), push_cap);

  // A push frame above the query cap parses.
  FrameParser parser(query_cap, push_cap);
  parser.Feed(EncodeFrame(big_push));
  const auto payload = parser.Next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, big_push);
  EXPECT_FALSE(parser.oversized());

  // The same length under a non-push opcode poisons the stream.
  std::string big_query = big_push;
  big_query[0] = static_cast<char>(Opcode::kTopK);
  FrameParser query_parser(query_cap, push_cap);
  query_parser.Feed(EncodeFrame(big_query));
  EXPECT_FALSE(query_parser.Next().has_value());
  EXPECT_TRUE(query_parser.oversized());

  // Above even the push cap: poisoned regardless of opcode.
  FrameParser capped(query_cap, /*max_push_frame_bytes=*/128);
  capped.Feed(EncodeFrame(big_push));
  EXPECT_FALSE(capped.Next().has_value());
  EXPECT_TRUE(capped.oversized());

  // Deciding needs the opcode byte: a large declared length parks the
  // parser (not poisoned, not popped) until byte 5 arrives.
  FrameParser parked(query_cap, push_cap);
  const std::string wire = EncodeFrame(big_push);
  parked.Feed(std::string_view(wire).substr(0, 4));
  EXPECT_FALSE(parked.Next().has_value());
  EXPECT_FALSE(parked.oversized());
  parked.Feed(std::string_view(wire).substr(4));
  const auto parked_payload = parked.Next();
  ASSERT_TRUE(parked_payload.has_value());
  EXPECT_EQ(*parked_payload, big_push);
}

// --- AggregatorCore: idempotent merge semantics -----------------------

TEST(Aggregator, MergesAndAnswersDuplicatesWithoutReapplying) {
  const LtcConfig config = SmallConfig();
  AggregatorCore aggregator(config, /*hub=*/nullptr);

  const Ltc node_a = MakeSketch(config, {1, 2, 3}, 10);
  const Ltc node_b = MakeSketch(config, {4, 5, 6}, 20);

  auto outcome = aggregator.ApplyPush(MakePush(1, 1, node_a, 30));
  EXPECT_EQ(outcome.status, Status::kOk);
  EXPECT_TRUE(outcome.applied);
  EXPECT_EQ(outcome.epoch_seq, 1u);

  outcome = aggregator.ApplyPush(MakePush(2, 1, node_b, 60));
  EXPECT_TRUE(outcome.applied);
  EXPECT_EQ(aggregator.merges_total(), 2u);
  EXPECT_EQ(aggregator.num_nodes(), 2u);
  EXPECT_EQ(aggregator.total_records(), 90u);

  // A retried delivery of an applied epoch: kOk, applied=0, and the
  // aggregate does not move by a single bit.
  const std::string before = aggregator.SerializeMerged();
  outcome = aggregator.ApplyPush(MakePush(1, 1, node_a, 30));
  EXPECT_EQ(outcome.status, Status::kOk);
  EXPECT_FALSE(outcome.applied);
  EXPECT_EQ(aggregator.SerializeMerged(), before);
  EXPECT_EQ(aggregator.merges_total(), 2u);

  // The aggregate equals a sequential fold of the images in node order.
  Ltc oracle(config);
  ASSERT_TRUE(oracle.MergeFrom(node_a));
  ASSERT_TRUE(oracle.MergeFrom(node_b));
  EXPECT_EQ(before, SerializeTable(oracle));
}

TEST(Aggregator, EpochGateIsTypedAndJudgedBeforeDeserializing) {
  const LtcConfig config = SmallConfig();
  AggregatorCore aggregator(config, nullptr);
  const Ltc image = MakeSketch(config, {7, 8}, 5);

  // Epoch 0 is never valid.
  auto outcome = aggregator.ApplyPush(MakePush(1, 0, image));
  EXPECT_EQ(outcome.status, Status::kErrBadSketch);

  ASSERT_TRUE(aggregator.ApplyPush(MakePush(1, 4, image)).applied);

  // Older than applied: terminal stale rejection...
  outcome = aggregator.ApplyPush(MakePush(1, 3, image));
  EXPECT_EQ(outcome.status, Status::kErrStaleEpoch);
  // ...even when the retransmit is corrupt — the gate fires first, so
  // the client hears the retry-stopping answer, not kErrBadSketch.
  PushRequest corrupt = MakePush(1, 2, image);
  corrupt.payload = "garbage";
  EXPECT_EQ(aggregator.ApplyPush(corrupt).status, Status::kErrStaleEpoch);

  // A duplicate of the newest epoch is judged by sequence alone too.
  corrupt = MakePush(1, 4, image);
  corrupt.payload = "garbage";
  outcome = aggregator.ApplyPush(corrupt);
  EXPECT_EQ(outcome.status, Status::kOk);
  EXPECT_FALSE(outcome.applied);
  EXPECT_EQ(aggregator.rejects_total(), 3u);  // epoch-0, stale, stale
}

TEST(Aggregator, AggregateIsAPureFunctionOfNewestImagesPerNode) {
  const LtcConfig config = SmallConfig();
  const Ltc a1 = MakeSketch(config, {1, 2}, 5);
  const Ltc a2 = MakeSketch(config, {1, 2, 3}, 9);
  const Ltc b1 = MakeSketch(config, {10, 11}, 4);

  // Clean sequential delivery.
  AggregatorCore clean(config, nullptr);
  ASSERT_TRUE(clean.ApplyPush(MakePush(1, 1, a1)).applied);
  ASSERT_TRUE(clean.ApplyPush(MakePush(2, 1, b1)).applied);
  ASSERT_TRUE(clean.ApplyPush(MakePush(1, 2, a2)).applied);

  // The same final state delivered messily: interleaved, duplicated,
  // and with a stale straggler rejected along the way.
  AggregatorCore messy(config, nullptr);
  EXPECT_TRUE(messy.ApplyPush(MakePush(2, 1, b1)).applied);
  EXPECT_FALSE(messy.ApplyPush(MakePush(2, 1, b1)).applied);  // dup
  EXPECT_TRUE(messy.ApplyPush(MakePush(1, 1, a1)).applied);
  EXPECT_TRUE(messy.ApplyPush(MakePush(1, 2, a2)).applied);
  EXPECT_EQ(messy.ApplyPush(MakePush(1, 1, a1)).status,
            Status::kErrStaleEpoch);                          // straggler
  EXPECT_FALSE(messy.ApplyPush(MakePush(1, 2, a2)).applied);  // dup

  const std::string merged = clean.SerializeMerged();
  ASSERT_FALSE(merged.empty());
  EXPECT_EQ(merged, messy.SerializeMerged());
}

TEST(Aggregator, WrongShapeAndWrongKindAreTypedRejections) {
  const LtcConfig config = SmallConfig();
  AggregatorCore aggregator(config, nullptr);
  ASSERT_TRUE(
      aggregator.ApplyPush(MakePush(1, 1, MakeSketch(config, {1}))).applied);
  const std::string before = aggregator.SerializeMerged();

  // Different geometry cannot merge.
  LtcConfig big = config;
  big.memory_bytes = 2 * config.memory_bytes;
  auto outcome = aggregator.ApplyPush(MakePush(2, 1, MakeSketch(big, {2})));
  EXPECT_EQ(outcome.status, Status::kErrShapeMismatch);

  // Different significance weights cannot merge either.
  LtcConfig reweighted = config;
  reweighted.alpha = 3.0;
  outcome = aggregator.ApplyPush(MakePush(2, 1, MakeSketch(reweighted, {2})));
  EXPECT_EQ(outcome.status, Status::kErrShapeMismatch);

  // Unknown sketch kind.
  PushRequest push = MakePush(2, 1, MakeSketch(config, {2}));
  push.sketch_kind = 9;
  EXPECT_EQ(aggregator.ApplyPush(push).status, Status::kErrBadSketch);

  // None of it moved the aggregate, and no node was registered.
  EXPECT_EQ(aggregator.SerializeMerged(), before);
  EXPECT_EQ(aggregator.num_nodes(), 1u);
  EXPECT_EQ(aggregator.rejects_total(), 3u);
}

TEST(Aggregator, CorruptionSweepNeverCrashesAndRejectionsNeverMutate) {
  const LtcConfig config = SmallConfig();
  AggregatorCore aggregator(config, nullptr);
  ASSERT_TRUE(
      aggregator.ApplyPush(MakePush(1, 1, MakeSketch(config, {1, 2}, 3)))
          .applied);

  const std::string valid = SerializeTable(MakeSketch(config, {5, 6}, 7));
  uint64_t applied = 0, rejected = 0, epoch = 0;
  for (size_t offset = 0; offset < valid.size(); ++offset) {
    PushRequest push;
    push.node_id = 2;
    push.payload = valid;
    push.payload[offset] = static_cast<char>(push.payload[offset] ^ 0xff);
    push.epoch_seq = epoch + 1;  // fresh epoch: the gate never masks it
    const std::string before = aggregator.SerializeMerged();
    const PushOutcome outcome = aggregator.ApplyPush(push);
    if (outcome.status == Status::kOk) {
      // The flip still deserialized into a mergeable table — from the
      // wire that is indistinguishable from honest data.
      ASSERT_TRUE(outcome.applied);
      ++applied;
      ++epoch;
    } else {
      // A typed rejection, and the aggregate did not move one bit.
      EXPECT_TRUE(outcome.status == Status::kErrBadSketch ||
                  outcome.status == Status::kErrShapeMismatch)
          << "offset " << offset << ": status "
          << StatusName(outcome.status);
      EXPECT_EQ(aggregator.SerializeMerged(), before) << "offset " << offset;
      ++rejected;
    }
  }
  // The sweep genuinely exercised the rejection path.
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(applied + rejected, valid.size());
}

/// The verdict of the full apply path on an image: Deserialize, then
/// AtEnd, then CanMergeWith a table of `config`.
Status FullPathVerdict(const LtcConfig& config, const std::string& image) {
  BinaryReader reader(image);
  const std::optional<Ltc> table = Ltc::Deserialize(reader);
  if (!table.has_value() || !reader.AtEnd()) return Status::kErrBadSketch;
  if (!Ltc(config).CanMergeWith(*table)) return Status::kErrShapeMismatch;
  return Status::kOk;
}

/// An aggregator holding node 1's `first` and node 2's `base`, both as
/// epoch 1.
std::unique_ptr<AggregatorCore> HoldingImages(const LtcConfig& config,
                                              const std::string& first,
                                              const std::string& base) {
  auto aggregator = std::make_unique<AggregatorCore>(config, nullptr);
  PushRequest push;
  push.epoch_seq = 1;
  push.node_id = 1;
  push.payload = first;
  EXPECT_TRUE(aggregator->ApplyPush(push).applied);
  push.node_id = 2;
  push.payload = base;
  EXPECT_TRUE(aggregator->ApplyPush(push).applied);
  return aggregator;
}

TEST(Aggregator, InPlaceApplyJudgesEveryFlippedByteLikeTheFullPath) {
  const LtcConfig config = SmallConfig();
  const std::string first = SerializeTable(MakeSketch(config, {1, 2, 3}, 4));
  // Node 2's applied image, then its next one: more of some items, so
  // some buckets change and the rest do not.
  Ltc live(config);
  for (int r = 0; r < 300; ++r) live.Insert(100 + r % 90);
  Ltc image = live.CloneAtBarrier();
  image.Finalize();
  const std::string base = SerializeTable(image);
  for (int r = 0; r < 40; ++r) live.Insert(100 + r % 7);
  image = live.CloneAtBarrier();
  image.Finalize();
  const std::string next = SerializeTable(image);
  ASSERT_EQ(next.size(), base.size());
  ASSERT_NE(next, base);
  {
    // Unflipped, the in-place apply lands on Deserialize's table and
    // names the buckets ChangedBuckets names.
    BinaryReader base_reader(base);
    Ltc held = *Ltc::Deserialize(base_reader);
    const Ltc before = held;
    std::vector<uint32_t> changed;
    ASSERT_EQ(held.CheckImage(next, changed), Ltc::ImageUpdate::kUpdated);
    // A one-source fold copies the checked image into `held`.
    Ltc fold(config);
    std::vector<uint32_t> rank(held.num_cells());
    const Ltc::RankedSource source{&held, rank};
    fold.RefoldPush({&source, 1}, changed, nullptr, 0, {&held, rank}, next);
    EXPECT_EQ(SerializeTable(held), next);
    EXPECT_EQ(changed, before.ChangedBuckets(held));
    EXPECT_FALSE(changed.empty());
    EXPECT_LT(changed.size(), held.num_buckets());
  }

  const std::string held = HoldingImages(config, first, base)->SerializeMerged();
  const std::string unflipped =
      HoldingImages(config, first, next)->SerializeMerged();
  uint64_t applied = 0, rejected = 0;
  for (size_t offset = 0; offset < next.size(); ++offset) {
    PushRequest push;
    push.node_id = 2;
    push.epoch_seq = 2;
    push.payload = next;
    push.payload[offset] = static_cast<char>(push.payload[offset] ^ 0xff);
    const Status expected = FullPathVerdict(config, push.payload);
    auto aggregator = HoldingImages(config, first, base);
    const PushOutcome outcome = aggregator->ApplyPush(push);
    ASSERT_EQ(outcome.status, expected)
        << "offset " << offset << ": " << StatusName(outcome.status)
        << ", the full path says " << StatusName(expected);
    if (expected == Status::kOk) {
      // Equal to an aggregator that only ever saw the newest images.
      const std::string fresh =
          HoldingImages(config, first, push.payload)->SerializeMerged();
      ASSERT_EQ(aggregator->SerializeMerged(), fresh) << "offset " << offset;
      ++applied;
    } else {
      ASSERT_EQ(aggregator->SerializeMerged(), held) << "offset " << offset;
      // The rejection left node 2's table, rank lane and the fold's tags
      // as they were: the unflipped image still applies on top of them
      // and lands where a fresh aggregator does.
      push.payload = next;
      ASSERT_TRUE(aggregator->ApplyPush(push).applied) << "offset " << offset;
      ASSERT_EQ(aggregator->SerializeMerged(), unflipped) << "offset " << offset;
      ++rejected;
    }
  }
  EXPECT_GT(applied, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Aggregator, InPlaceApplyRejectsALowerCapOverAnUnchangedCell) {
  LtcConfig config = SmallConfig();
  // Item 7 in each of six periods: persistency 6 under period 6.
  Ltc live(config);
  for (int r = 0; r < 600; ++r) live.Insert(r % 100 == 0 ? 7 : 1000 + r);
  live.Finalize();
  ASSERT_GE(live.EstimatePersistency(7), 2u);
  ASSERT_GE(live.current_period(), 2u);
  const std::string base = SerializeTable(live);
  // The same image claiming period 0: the cap falls to 1 while item 7's
  // bucket is unchanged. The v3 image opens with a 64-byte header, then
  // items_seen, then current_period.
  std::string lowered = base;
  const uint64_t zero = 0;
  std::memcpy(lowered.data() + 64 + 8, &zero, sizeof(zero));
  ASSERT_EQ(FullPathVerdict(config, lowered), Status::kErrBadSketch);

  const std::string first = SerializeTable(MakeSketch(config, {1, 2}, 3));
  auto aggregator = HoldingImages(config, first, base);
  const std::string held = aggregator->SerializeMerged();
  PushRequest push;
  push.node_id = 2;
  push.epoch_seq = 2;
  push.payload = lowered;
  EXPECT_EQ(aggregator->ApplyPush(push).status, Status::kErrBadSketch);
  EXPECT_EQ(aggregator->SerializeMerged(), held);
}

TEST(Aggregator, StalenessRowsAgeOnTheInjectedClock) {
  FakeClock clock;
  const LtcConfig config = SmallConfig();
  AggregatorCore aggregator(config, nullptr, /*stale_after_sec=*/30, &clock);
  const Ltc image = MakeSketch(config, {1});

  ASSERT_TRUE(aggregator.ApplyPush(MakePush(7, 1, image)).applied);
  clock.Advance(10'000'000);
  ASSERT_TRUE(aggregator.ApplyPush(MakePush(8, 1, image)).applied);

  clock.Advance(25'000'000);  // node 7: 35s, node 8: 25s
  auto rows = aggregator.NodeRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].node_id, 7u);
  EXPECT_EQ(rows[0].age_sec, 35u);
  EXPECT_EQ(rows[0].stale, 1u);
  EXPECT_EQ(rows[1].node_id, 8u);
  EXPECT_EQ(rows[1].age_sec, 25u);
  EXPECT_EQ(rows[1].stale, 0u);

  // A fresh push heals the row; the dead node keeps degrading but the
  // aggregator keeps serving (its image still contributes).
  ASSERT_TRUE(aggregator.ApplyPush(MakePush(7, 2, image)).applied);
  rows = aggregator.NodeRows();
  EXPECT_EQ(rows[0].age_sec, 0u);
  EXPECT_EQ(rows[0].stale, 0u);
  EXPECT_FALSE(aggregator.SerializeMerged().empty());
}

TEST(Aggregator, RepublishesTheMergedViewThroughTheHub) {
  const LtcConfig config = SmallConfig();
  ReadSnapshotHub hub;
  AggregatorCore aggregator(config, &hub);
  EXPECT_EQ(hub.PublishedSeq(), 0u);

  ASSERT_TRUE(
      aggregator.ApplyPush(MakePush(1, 1, MakeSketch(config, {42}, 9), 9))
          .applied);
  ASSERT_EQ(hub.PublishedSeq(), 1u);
  {
    auto ref = hub.Acquire();
    ASSERT_TRUE(ref);
    EXPECT_EQ(ref->records, 9u);
    const auto top = ref->table->TopK(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].item, 42u);
  }

  // A duplicate republishes nothing; a new epoch republishes.
  aggregator.ApplyPush(MakePush(1, 1, MakeSketch(config, {42}, 9), 9));
  EXPECT_EQ(hub.PublishedSeq(), 1u);
  ASSERT_TRUE(
      aggregator.ApplyPush(MakePush(1, 2, MakeSketch(config, {42}, 10), 10))
          .applied);
  EXPECT_EQ(hub.PublishedSeq(), 2u);
}

// --- The changed-bucket refold ---------------------------------------

/// What the incremental refold must reproduce byte for byte: a fresh
/// table folded with MergeFrom over the newest image of each node, in
/// node_id order.
std::string FullFold(const LtcConfig& config,
                     const std::map<uint64_t, Ltc>& newest) {
  Ltc fold(config);
  for (const auto& [node_id, image] : newest) {
    EXPECT_TRUE(fold.MergeFrom(image));
  }
  return SerializeTable(fold);
}

struct RefoldCase {
  const char* name;
  uint32_t cells_per_bucket;
  bool long_tail_replacement;
  // Each node sees its own items only, as under item partitioning.
  bool partitioned = false;
  // Significance is frequency alone, so many cells tie and the id
  // tie-break decides the rank.
  bool beta_zero = false;
};
// gtest prints a row's size into its test name; the flags fill padding.
static_assert(sizeof(RefoldCase) == 16);

class AggregatorRefold : public ::testing::TestWithParam<RefoldCase> {};

TEST_P(AggregatorRefold, EveryPushLeavesTheFullFoldOfTheNewestImages) {
  LtcConfig config = SmallConfig();
  config.memory_bytes = 16 * 1024;  // 32 buckets at d = 32, 16 at d = 64
  config.cells_per_bucket = GetParam().cells_per_bucket;
  config.long_tail_replacement = GetParam().long_tail_replacement;
  if (GetParam().beta_zero) config.beta = 0.0;

  size_t unchanged_buckets = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 7919 + config.cells_per_bucket);
    AggregatorCore aggregator(config, nullptr);
    // Node 9 pushes alone first; the others join later, two of them
    // with lower ids, so they fold in ahead of images already merged.
    const std::vector<uint64_t> ids = {9, 2, 12, 5};
    size_t joined = 1;
    std::map<uint64_t, Ltc> live;    // each node's growing table
    std::map<uint64_t, Ltc> newest;  // newest applied image per node
    std::map<uint64_t, uint64_t> epoch;
    std::map<uint64_t, std::string> payload;  // of the newest epoch
    size_t fresh = 0;

    for (int step = 0; step < 60; ++step) {
      if (joined < ids.size() && rng.Bernoulli(0.15)) ++joined;
      const uint64_t node = ids[rng.Uniform(joined)];  // any order
      const bool known = newest.count(node) != 0;
      const std::string before = aggregator.SerializeMerged();
      const uint64_t kind = rng.Uniform(10);
      PushRequest push;
      push.node_id = node;
      if (known && kind == 0) {
        // Duplicate of the applied epoch: acknowledged, not reapplied.
        push.epoch_seq = epoch[node];
        push.payload = payload[node];
        const PushOutcome outcome = aggregator.ApplyPush(push);
        EXPECT_EQ(outcome.status, Status::kOk);
        EXPECT_FALSE(outcome.applied);
        EXPECT_EQ(aggregator.SerializeMerged(), before);
      } else if (known && kind == 1 && epoch[node] > 1) {
        // Stale straggler.
        push.epoch_seq = epoch[node] - 1;
        push.payload = payload[node];
        EXPECT_EQ(aggregator.ApplyPush(push).status, Status::kErrStaleEpoch);
        EXPECT_EQ(aggregator.SerializeMerged(), before);
      } else if (known && kind == 2) {
        // Corrupt (truncated) image under a fresh epoch.
        push.epoch_seq = epoch[node] + 1;
        push.payload = payload[node].substr(0, payload[node].size() / 2);
        EXPECT_EQ(aggregator.ApplyPush(push).status, Status::kErrBadSketch);
        EXPECT_EQ(aggregator.SerializeMerged(), before);
      } else if (known && kind == 3) {
        // The same image re-sent under a new epoch: applied, but no
        // bucket changed, so neither does the aggregate.
        push.epoch_seq = ++epoch[node];
        push.payload = payload[node];
        EXPECT_TRUE(aggregator.ApplyPush(push).applied);
        EXPECT_EQ(aggregator.SerializeMerged(), before);
      } else {
        // A new barrier image: some more records, then the clone the
        // pusher would ship, now and then unfinalized so the flags lane
        // differs too.
        Ltc& table = live.try_emplace(node, config).first->second;
        const uint64_t records = rng.UniformRange(10, 120);
        for (uint64_t r = 0; r < records; ++r) {
          // Overlapping universes, so matching IDs add up in the fold,
          // unless the row partitions them by node: ids interleaved
          // across nodes (node ids < 16), so id tie-breaks between
          // nodes' runs go either way.
          const ItemId item = 1 + rng.Uniform(rng.Bernoulli(0.3) ? 30 : 600);
          table.Insert(GetParam().partitioned ? item * 16 + node : item);
        }
        Ltc image = table.CloneAtBarrier();
        if (rng.Bernoulli(0.7)) image.Finalize();
        if (known) {
          unchanged_buckets +=
              image.num_buckets() - newest.at(node).ChangedBuckets(image).size();
        }
        push.epoch_seq = ++epoch[node];
        push.payload = SerializeTable(image);
        EXPECT_TRUE(aggregator.ApplyPush(push).applied);
        payload[node] = push.payload;
        newest.insert_or_assign(node, std::move(image));
        ++fresh;
      }
      ASSERT_EQ(aggregator.SerializeMerged(), FullFold(config, newest))
          << "seed " << seed << " step " << step << " node " << node;
    }
    EXPECT_EQ(aggregator.num_nodes(), newest.size());
    EXPECT_GT(fresh, 20u);
  }
  // The sequences exercised partial refolds, not only full ones.
  EXPECT_GT(unchanged_buckets, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AggregatorRefold,
    ::testing::Values(RefoldCase{"d1_ltr", 1, true},
                      RefoldCase{"d1_noltr", 1, false},
                      RefoldCase{"d8_ltr", 8, true},
                      RefoldCase{"d8_noltr", 8, false},
                      RefoldCase{"d32_ltr", 32, true},
                      RefoldCase{"d32_noltr", 32, false},
                      RefoldCase{"d1_ltr_partitioned", 1, true, true},
                      RefoldCase{"d8_ltr_partitioned", 8, true, true},
                      RefoldCase{"d8_noltr_partitioned", 8, false, true},
                      RefoldCase{"d32_ltr_partitioned", 32, true, true},
                      RefoldCase{"d8_ltr_beta0", 8, true, false, true},
                      RefoldCase{"d8_noltr_beta0_partitioned", 8, false,
                                 true, true},
                      // Wider than any fixed-size bucket a kernel might
                      // keep on the stack for the paper's d <= 32.
                      RefoldCase{"d64_ltr", 64, true},
                      RefoldCase{"d64_noltr_partitioned", 64, false, true}),
    [](const ::testing::TestParamInfo<RefoldCase>& info) {
      return std::string(info.param.name);
    });

TEST(Aggregator, ChangedBucketsNamesOnlyTheBucketsThatDiffer) {
  const LtcConfig config = SmallConfig();
  const Ltc base = MakeSketch(config, {1, 2, 3}, 2);
  EXPECT_TRUE(base.ChangedBuckets(base).empty());
  EXPECT_TRUE(base.ChangedBuckets(MakeSketch(config, {1, 2, 3}, 2)).empty());
  // One more arrival of a tracked item moves its frequency and, once
  // finalized, its persistency: one bucket, nothing else.
  Ltc grown = base;
  grown.Insert(1);
  grown.Finalize();
  EXPECT_EQ(base.ChangedBuckets(grown).size(), 1u);
  EXPECT_EQ(grown.ChangedBuckets(base), base.ChangedBuckets(grown));
}

TEST(Aggregator, RefoldPathsEachLeaveTheMergeFromFold) {
  LtcConfig config = SmallConfig();
  config.memory_bytes = 2 * 1024;  // 16 buckets of 8: full, churning
  config.items_per_period = 40;
  constexpr ItemId kShared = 77;
  Rng rng(2024);
  AggregatorCore aggregator(config, nullptr);
  // Nodes join in descending id order, so each joins ahead of every
  // node already folded and the nodes' places in the fold order shift.
  const std::vector<uint64_t> ids = {12, 9, 5, 2};
  std::map<uint64_t, Ltc> live;
  std::map<uint64_t, Ltc> newest;
  std::map<uint64_t, uint64_t> epoch;
  std::set<uint64_t> saw_shared;
  bool restarted = false, shared_gained = false, shared_lost = false;
  for (int step = 0; step < 240; ++step) {
    const size_t joined = std::min<size_t>(ids.size(), 1 + step / 12);
    const uint64_t node = ids[rng.Uniform(joined)];
    // Node 9 restarts empty late in the run, so the shared ID is gone
    // from the fold by the end even if the churn kept it.
    if (node == 9 && step >= 180 && !restarted) {
      live.insert_or_assign(9, Ltc(config));
      restarted = true;
    }
    Ltc& table = live.try_emplace(node, config).first->second;
    for (uint64_t r = 0, n = rng.UniformRange(5, 60); r < n; ++r) {
      // Item-partitioned, with a hot head whose counts rise and fall
      // with the phase, so cells are decremented and expelled and a
      // push's run can fall below cells the old bucket left out.
      const bool hot = rng.Bernoulli((step / 30) % 2 == 0 ? 0.6 : 0.05);
      const ItemId item = 1 + rng.Uniform(hot ? 6 : 400);
      table.Insert(item * 16 + node);
    }
    // Nodes 12 and 9 each see one item in one push: its bucket gains a
    // shared ID, then loses it as the churn expels the item.
    if ((node == 12 || node == 9) && step >= 40 &&
        saw_shared.insert(node).second) {
      for (int r = 0; r < 3; ++r) table.Insert(kShared);
    }
    Ltc image = table.CloneAtBarrier();
    image.Finalize();
    PushRequest push = MakePush(node, ++epoch[node], image);
    ASSERT_TRUE(aggregator.ApplyPush(push).applied) << "step " << step;
    newest.insert_or_assign(node, std::move(image));
    ASSERT_EQ(aggregator.SerializeMerged(), FullFold(config, newest))
        << "step " << step << " node " << node;
    const bool both = newest.count(12) != 0 && newest.count(9) != 0 &&
                      newest.at(12).IsTracked(kShared) &&
                      newest.at(9).IsTracked(kShared);
    shared_gained |= both;
    shared_lost |= shared_gained && !both;
  }
  EXPECT_TRUE(shared_gained);
  EXPECT_TRUE(shared_lost);
  const Ltc::RefoldPaths& paths = aggregator.refold_paths();
  EXPECT_GT(paths.two_way, 0u);
  EXPECT_GT(paths.n_way, 0u);
  EXPECT_GT(paths.stepwise, 0u);
}

// --- Dispatcher integration ------------------------------------------

struct DispatcherFixture {
  DispatcherFixture() : dispatcher(hub, codec, 0) {}

  std::optional<DecodedResponse> Push(const PushRequest& push) {
    return DecodeResponse(Opcode::kPushSketch,
                          dispatcher.Handle(EncodePushRequest(push)));
  }

  ReadSnapshotHub hub;
  NumericKeyCodec codec;
  QueryDispatcher dispatcher;
};

TEST(DispatcherPush, WithoutAnAggregatorPushesGetATypedRefusal) {
  DispatcherFixture fx;
  const auto response =
      fx.Push(MakePush(1, 1, MakeSketch(SmallConfig(), {1})));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kErrNotAggregator);
}

TEST(DispatcherPush, PushesMergeAndStatsGrowNodeRows) {
  DispatcherFixture fx;
  const LtcConfig config = SmallConfig();
  AggregatorCore aggregator(config, &fx.hub);
  fx.dispatcher.AttachAggregator(&aggregator);

  auto ack = fx.Push(MakePush(3, 1, MakeSketch(config, {1, 2}, 4), 8));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, Status::kOk);
  EXPECT_EQ(ack->push_epoch, 1u);
  EXPECT_TRUE(ack->push_applied);

  // The duplicate ack over the wire.
  ack = fx.Push(MakePush(3, 1, MakeSketch(config, {1, 2}, 4), 8));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, Status::kOk);
  EXPECT_FALSE(ack->push_applied);

  // STATS now carries the per-node delivery rows.
  const auto stats = DecodeResponse(
      Opcode::kStats, fx.dispatcher.Handle(EncodeStatsRequest()));
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(stats->stats.nodes.size(), 1u);
  EXPECT_EQ(stats->stats.nodes[0].node_id, 3u);
  EXPECT_EQ(stats->stats.nodes[0].last_epoch, 1u);
  EXPECT_EQ(stats->stats.protocol_version, kProtocolVersion);

  // A truncated push body is malformed, never a crash.
  const std::string wire =
      EncodePushRequest(MakePush(3, 2, MakeSketch(config, {1})));
  const auto malformed = DecodeResponse(
      Opcode::kPushSketch, fx.dispatcher.Handle(wire.substr(0, 12)));
  ASSERT_TRUE(malformed.has_value());
  EXPECT_EQ(malformed->status, Status::kErrMalformed);
}

TEST(DispatcherPush, CorruptedRequestBytesAlwaysGetAWellFormedAnswer) {
  DispatcherFixture fx;
  const LtcConfig config = SmallConfig();
  AggregatorCore aggregator(config, &fx.hub);
  fx.dispatcher.AttachAggregator(&aggregator);

  const std::string wire =
      EncodePushRequest(MakePush(4, 1, MakeSketch(config, {9}, 2)));
  for (size_t offset = 0; offset < wire.size(); ++offset) {
    std::string corrupt = wire;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0xff);
    const std::string response = fx.dispatcher.Handle(corrupt);
    ASSERT_FALSE(response.empty()) << "offset " << offset;
    // First byte is always a known status.
    EXPECT_LE(static_cast<uint8_t>(response[0]),
              static_cast<uint8_t>(Status::kErrNotAggregator))
        << "offset " << offset;
  }
}

// --- SketchPusher against an in-process loopback ---------------------

/// A PushTransport that short-circuits straight into a dispatcher: Send
/// feeds the server-side frame parser (push cap raised, like an
/// aggregator's), Recv drains the queued response frames. Close models
/// a dropped connection — buffered bytes in both directions are gone.
class LoopbackTransport final : public PushTransport {
 public:
  explicit LoopbackTransport(QueryDispatcher* dispatcher)
      : dispatcher_(dispatcher), parser_(kMaxFrameBytes, kMaxPushFrameBytes) {}

  bool Connect(const std::string&, uint16_t, uint64_t) override {
    connected_ = true;
    return true;
  }

  bool Send(std::string_view bytes, uint64_t) override {
    if (!connected_) return false;
    std::string garbled;
    if (corrupt_next_sketch_ && bytes.size() > 4 + kPushRequestHeadBytes) {
      // Flip the first byte of the sketch's magic: it cannot deserialize.
      garbled = bytes;
      garbled[4 + kPushRequestHeadBytes] ^= 0xff;
      bytes = garbled;
      corrupt_next_sketch_ = false;
    }
    parser_.Feed(bytes);
    while (auto payload = parser_.Next()) {
      out_ += EncodeFrame(dispatcher_->Handle(*payload));
    }
    return true;
  }

  bool Recv(std::string* out, size_t max_bytes, uint64_t) override {
    if (!connected_ || out_.empty()) return false;  // "deadline expired"
    const size_t n = std::min(max_bytes, out_.size());
    out->append(out_, 0, n);
    out_.erase(0, n);
    return true;
  }

  void Close() override {
    connected_ = false;
    out_.clear();
    parser_ = FrameParser(kMaxFrameBytes, kMaxPushFrameBytes);
  }

  bool connected() const override { return connected_; }

  /// Garbles the sketch payload of the next push frame sent whole.
  void CorruptNextSketch() { corrupt_next_sketch_ = true; }

 private:
  QueryDispatcher* dispatcher_;
  FrameParser parser_;
  std::string out_;
  bool connected_ = false;
  bool corrupt_next_sketch_ = false;
};

struct PusherFixture {
  PusherFixture()
      : aggregator(SmallConfig(), &hub),
        dispatcher(hub, codec, 0),
        loopback(&dispatcher),
        faulty(&loopback, FaultyTransportConfig{}, &clock) {
    dispatcher.AttachAggregator(&aggregator);
    SketchPusherConfig config;
    config.node_id = 3;
    pusher.emplace(config, &faulty, &clock);
  }

  ReadSnapshotHub hub;
  NumericKeyCodec codec;
  AggregatorCore aggregator;
  QueryDispatcher dispatcher;
  LoopbackTransport loopback;
  FakeClock clock;
  FaultyTransport faulty;
  std::optional<SketchPusher> pusher;
};

TEST(SketchPusher, RetriesThroughTransportFaultsUntilDelivered) {
  PusherFixture fx;
  // Two refused connects, then a torn frame: three full re-attempts
  // before the fourth lands. The FakeClock eats the backoff sleeps.
  fx.faulty.Arm(TransportFault::kRefuseConnect, 2);
  fx.faulty.Arm(TransportFault::kShortWrite, 1);

  const auto result =
      fx.pusher->Push(MakeSketch(SmallConfig(), {1, 2, 3}, 5), 1, 15);
  EXPECT_TRUE(result.delivered);
  EXPECT_TRUE(result.applied);
  EXPECT_FALSE(result.terminal);
  EXPECT_EQ(fx.pusher->attempts(), 4u);
  EXPECT_EQ(fx.pusher->retries(), 3u);
  EXPECT_EQ(fx.pusher->delivered(), 1u);
  EXPECT_EQ(fx.faulty.total_faults_injected(), 3u);
  EXPECT_EQ(fx.aggregator.merges_total(), 1u);
  // The backoff slept between attempts, per the policy's schedule.
  EXPECT_EQ(fx.clock.sleeps_usec().size(), 3u);
}

TEST(SketchPusher, LostAckRetryIsDedupedNotDoubleCounted) {
  PusherFixture fx;
  // The frame delivers, the ack is lost: the aggregator applied the
  // push, the client cannot know, and retries a delivered push. The
  // retry must be acked as a duplicate, not merged twice.
  fx.faulty.Arm(TransportFault::kDropAck, 1);

  const Ltc image = MakeSketch(SmallConfig(), {7, 8}, 6);
  const auto result = fx.pusher->Push(image, 1, 12);
  EXPECT_TRUE(result.delivered);
  EXPECT_FALSE(result.applied);  // the surviving ack is the duplicate's
  EXPECT_EQ(fx.pusher->attempts(), 2u);
  EXPECT_EQ(fx.aggregator.merges_total(), 1u);

  // Bit-identical to a single clean delivery.
  AggregatorCore oracle(SmallConfig(), nullptr);
  ASSERT_TRUE(oracle.ApplyPush(MakePush(3, 1, image, 12)).applied);
  EXPECT_EQ(fx.aggregator.SerializeMerged(), oracle.SerializeMerged());
}

TEST(SketchPusher, TypedRejectionIsTerminalAndStopsTheRetryLoop) {
  PusherFixture fx;
  LtcConfig wrong = SmallConfig();
  wrong.memory_bytes *= 2;

  auto result = fx.pusher->Push(MakeSketch(wrong, {1}), 1, 1);
  EXPECT_FALSE(result.delivered);
  EXPECT_TRUE(result.terminal);
  EXPECT_EQ(result.status, Status::kErrShapeMismatch);
  EXPECT_EQ(fx.pusher->attempts(), 1u);  // no retry can fix a shape
  EXPECT_EQ(fx.pusher->rejected(), 1u);

  // Undeserializable bytes are equally terminal.
  fx.loopback.CorruptNextSketch();
  result = fx.pusher->Push(MakeSketch(SmallConfig(), {1}), 2, 1);
  EXPECT_TRUE(result.terminal);
  EXPECT_EQ(result.status, Status::kErrBadSketch);
  EXPECT_EQ(fx.pusher->attempts(), 2u);
  EXPECT_EQ(fx.aggregator.merges_total(), 0u);
}

/// A PushTransport that keeps every byte string sent and acks each
/// send as an applied push.
class RecordingTransport final : public PushTransport {
 public:
  bool Connect(const std::string&, uint16_t, uint64_t) override {
    connected_ = true;
    return true;
  }
  bool Send(std::string_view bytes, uint64_t) override {
    sent.emplace_back(bytes);
    acks_ += EncodeFrame(EncodePushResponse(1, true));
    return true;
  }
  bool Recv(std::string* out, size_t, uint64_t) override {
    if (acks_.empty()) return false;
    out->append(acks_);
    acks_.clear();
    return true;
  }
  void Close() override { connected_ = false; }
  bool connected() const override { return connected_; }

  std::vector<std::string> sent;

 private:
  std::string acks_;
  bool connected_ = false;
};

TEST(SketchPusher, SendsExactlyTheEncodedPushRequestFrame) {
#ifdef LTC_TRACING
  constexpr bool kTracing = true;
#else
  constexpr bool kTracing = false;
#endif
  for (const bool propagate : {false, true}) {
    SCOPED_TRACE(propagate ? "trace propagation on" : "trace propagation off");
    telemetry::FlightRecorder recorder;
    telemetry::FlightRecorder::Install(&recorder);
    RecordingTransport transport;
    SketchPusherConfig config;
    config.node_id = 0x0102030405060708;
    config.propagate_trace = propagate;
    SketchPusher pusher(config, &transport);
    const Ltc table = MakeSketch(SmallConfig(), {4, 5, 6}, 7);
    const auto result = pusher.Push(table, 11, 21);
    telemetry::FlightRecorder::Install(nullptr);
    ASSERT_TRUE(result.delivered);
    ASSERT_EQ(transport.sent.size(), 1u);
    const std::string& frame = transport.sent[0];

    PushRequest request = MakePush(config.node_id, 11, table, 21);
    std::string expected = EncodePushRequest(request);
    if (propagate && kTracing) {
      // The ids are the push.deliver span's: read them back, and pin
      // where and how they are written.
      std::string_view base;
      std::optional<TraceContextExt> ext;
      ASSERT_GT(frame.size(), 5u);
      ASSERT_TRUE(SplitTraceExt(Opcode::kPushSketch,
                                std::string_view(frame).substr(5), &base,
                                &ext));
      ASSERT_TRUE(ext.has_value());
      EXPECT_NE(ext->trace_id, 0u);
      EXPECT_NE(ext->span_id, 0u);
      AppendTraceExt(&expected, *ext);
    }
    EXPECT_EQ(frame, EncodeFrame(expected));
  }
}

TEST(SketchPusher, GivesUpAfterTheRetryBudgetAgainstADeadAggregator) {
  ReadSnapshotHub hub;
  NumericKeyCodec codec;
  QueryDispatcher dispatcher(hub, codec, 0);
  LoopbackTransport loopback(&dispatcher);
  FakeClock clock;
  FaultyTransportConfig storm;
  storm.refuse_probability = 1.0;  // the aggregator is just gone
  FaultyTransport faulty(&loopback, storm, &clock);
  SketchPusherConfig config;
  config.node_id = 1;
  config.retry.max_attempts = 5;
  SketchPusher pusher(config, &faulty, &clock);

  const auto result = pusher.Push(MakeSketch(SmallConfig(), {1}), 1, 1);
  EXPECT_FALSE(result.delivered);
  EXPECT_FALSE(result.terminal);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(pusher.attempts(), 5u);
  EXPECT_EQ(pusher.retries(), 4u);
  EXPECT_EQ(pusher.delivered(), 0u);
}

}  // namespace
}  // namespace server
}  // namespace ltc
