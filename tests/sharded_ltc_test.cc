// Tests for Ltc::MergeFrom and ShardedLtc — the distributed-ingestion
// layer. Key properties: hash-sharding preserves per-item estimates
// exactly, the global top-k equals the best-of-union, and merging
// item-partitioned tables is lossless for significant items.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serial.h"
#include "core/ltc_metrics_sink.h"
#include "core/sharded_ltc.h"
#include "metrics/ground_truth.h"
#include "stream/generators.h"

namespace ltc {
namespace {

LtcConfig TimePaced(const Stream& stream, size_t memory) {
  LtcConfig config;
  config.memory_bytes = memory;
  config.period_mode = PeriodMode::kTimeBased;
  config.period_seconds = stream.duration() / stream.num_periods();
  return config;
}

// ----------------------------------------------------------------- merge

TEST(LtcMerge, CanMergeRequiresMatchingShape) {
  LtcConfig a;
  a.memory_bytes = 4 * 1024;
  LtcConfig b = a;
  EXPECT_TRUE(Ltc(a).CanMergeWith(Ltc(b)));
  b.memory_bytes = 8 * 1024;
  EXPECT_FALSE(Ltc(a).CanMergeWith(Ltc(b)));
  b = a;
  b.alpha = 2.0;
  EXPECT_FALSE(Ltc(a).CanMergeWith(Ltc(b)));
  b = a;
  b.seed = 77;
  EXPECT_FALSE(Ltc(a).CanMergeWith(Ltc(b)));
}

TEST(LtcMerge, MismatchedMergeIsRejectedWithoutMutation) {
  // A shape-mismatched MergeFrom must fail typed (return false), not
  // assert or silently corrupt — the aggregation tier relies on this to
  // answer ERR_SHAPE_MISMATCH and keep serving the previous aggregate.
  LtcConfig small;
  small.memory_bytes = 4 * 1024;
  small.items_per_period = 100;
  LtcConfig big = small;
  big.memory_bytes = 8 * 1024;

  Ltc target(small), peer(big);
  for (ItemId item = 1; item <= 500; ++item) target.Insert(item % 37 + 1);
  for (ItemId item = 1; item <= 500; ++item) peer.Insert(item % 53 + 1);
  target.Finalize();
  peer.Finalize();

  BinaryWriter before;
  target.Serialize(before);
  EXPECT_FALSE(target.MergeFrom(peer));
  BinaryWriter after;
  target.Serialize(after);
  EXPECT_EQ(before.data(), after.data());  // bit-identical: untouched

  // Mismatched weights and seeds are rejected the same way.
  LtcConfig reweighted = small;
  reweighted.alpha = 3.0;
  Ltc odd_weights(reweighted);
  odd_weights.Finalize();
  EXPECT_FALSE(target.MergeFrom(odd_weights));
  LtcConfig reseeded = small;
  reseeded.seed = 999;
  Ltc odd_seed(reseeded);
  odd_seed.Finalize();
  EXPECT_FALSE(target.MergeFrom(odd_seed));
}

TEST(LtcMerge, ItemPartitionedMergeIsExactForTrackedItems) {
  // Two peers process disjoint item sets (odd/even); after merge, every
  // item that survives in the merged table reports exactly the value its
  // owning peer recorded.
  Stream stream = MakeZipfStream(30'000, 2'000, 1.1, 30, 5);
  LtcConfig config = TimePaced(stream, 8 * 1024);

  Ltc odd(config), even(config), merged(config);
  for (const Record& r : stream.records()) {
    if ((r.item >> 1) & 1) {
      odd.Insert(r.item, r.time);
    } else {
      even.Insert(r.item, r.time);
    }
  }
  odd.Finalize();
  even.Finalize();

  ASSERT_TRUE(merged.MergeFrom(odd));  // merged starts empty: absorb both
  ASSERT_TRUE(merged.MergeFrom(even));

  for (const auto& report : merged.TopK(100)) {
    const Ltc& owner = ((report.item >> 1) & 1) ? odd : even;
    EXPECT_EQ(report.frequency, owner.EstimateFrequency(report.item));
    EXPECT_EQ(report.persistency, owner.EstimatePersistency(report.item));
  }
  EXPECT_TRUE(merged.CheckInvariants());
}

TEST(LtcMerge, DuplicateItemsAddTheirFields) {
  LtcConfig config;
  config.memory_bytes = LtcConfig::BytesPerCell() * 4;  // single bucket
  config.cells_per_bucket = 4;
  config.items_per_period = 1'000;
  Ltc a(config), b(config);
  for (int i = 0; i < 3; ++i) a.Insert(7);
  for (int i = 0; i < 5; ++i) b.Insert(7);
  a.Finalize();
  b.Finalize();
  ASSERT_TRUE(a.MergeFrom(b));
  EXPECT_EQ(a.EstimateFrequency(7), 8u);
  EXPECT_EQ(a.EstimatePersistency(7), 2u);  // 1 + 1 (same wall period,
                                            // item-partitioning violated —
                                            // documented approximation)
  // Summed counters exceed one table's period count; the invariant
  // check must account for merged history.
  EXPECT_TRUE(a.CheckInvariants());

  // And a merged table round-trips through serialization.
  BinaryWriter writer;
  a.Serialize(writer);
  BinaryReader reader(writer.data());
  auto restored = Ltc::Deserialize(reader);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->EstimatePersistency(7), 2u);
}

TEST(LtcMerge, KeepsMostSignificantWhenOverfull) {
  LtcConfig config;
  config.memory_bytes = LtcConfig::BytesPerCell() * 2;
  config.cells_per_bucket = 2;
  config.beta = 0.0;
  config.items_per_period = 1'000;
  Ltc a(config), b(config);
  for (int i = 0; i < 10; ++i) a.Insert(1);
  for (int i = 0; i < 2; ++i) a.Insert(2);
  for (int i = 0; i < 7; ++i) b.Insert(3);
  for (int i = 0; i < 1; ++i) b.Insert(4);
  a.Finalize();
  b.Finalize();
  ASSERT_TRUE(a.MergeFrom(b));
  // Union is {1:10, 2:2, 3:7, 4:1}; a 2-cell bucket keeps {1, 3}.
  EXPECT_EQ(a.EstimateFrequency(1), 10u);
  EXPECT_EQ(a.EstimateFrequency(3), 7u);
  EXPECT_FALSE(a.IsTracked(2));
  EXPECT_FALSE(a.IsTracked(4));
}

// The merge kernel's contract, cell for cell: a merged bucket holds the
// union of both buckets (matching IDs summed), ranked by significance
// descending then ID ascending, cut to d. One-bucket tables with
// α = β = 1 make most significances tie, so the ID tiebreak decides, and
// the v3 image's trailing lanes show the bucket's cells in slot order.
TEST(LtcMerge, MergedBucketIsTheRankedUnionInSlotOrder) {
  for (uint32_t d : {1u, 4u, 8u, 32u}) {
    LtcConfig config;
    config.memory_bytes = LtcConfig::BytesPerCell() * d;  // one bucket
    config.cells_per_bucket = d;
    config.items_per_period = 7;
    Ltc a(config), b(config);
    Rng rng(d);
    for (int i = 0; i < 40; ++i) a.Insert(1 + rng.Uniform(3 * d));
    for (int i = 0; i < 40; ++i) b.Insert(1 + rng.Uniform(3 * d));
    a.Finalize();
    b.Finalize();

    struct Cell {
      ItemId id;
      uint64_t freq;
      uint64_t counter;
    };
    std::vector<Cell> expected;
    for (const Ltc* side : {&a, &b}) {
      for (const auto& r : side->TopK(d)) {
        auto it = std::find_if(expected.begin(), expected.end(),
                               [&](const Cell& c) { return c.id == r.item; });
        if (it == expected.end()) {
          expected.push_back({r.item, r.frequency, r.persistency});
        } else {
          it->freq += r.frequency;
          it->counter += r.persistency;
        }
      }
    }
    std::sort(expected.begin(), expected.end(),
              [](const Cell& x, const Cell& y) {
                const uint64_t sx = x.freq + x.counter;
                const uint64_t sy = y.freq + y.counter;
                return sx != sy ? sx > sy : x.id < y.id;
              });
    if (expected.size() > d) expected.resize(d);

    ASSERT_TRUE(a.MergeFrom(b));
    BinaryWriter writer;
    a.Serialize(writer);
    const std::string& image = writer.data();
    const size_t lanes = image.size() - 17 * size_t{d};  // ids freqs ctrs flags
    for (uint32_t i = 0; i < d; ++i) {
      uint64_t id = 0;
      uint32_t freq = 0, counter = 0;
      std::memcpy(&id, image.data() + lanes + 8 * i, 8);
      std::memcpy(&freq, image.data() + lanes + 8 * d + 4 * i, 4);
      std::memcpy(&counter, image.data() + lanes + 12 * d + 4 * i, 4);
      const Cell want = i < expected.size() ? expected[i] : Cell{0, 0, 0};
      EXPECT_EQ(id, want.id) << "d=" << d << " slot " << i;
      EXPECT_EQ(freq, want.freq) << "d=" << d << " slot " << i;
      EXPECT_EQ(counter, want.counter) << "d=" << d << " slot " << i;
    }
  }
}

// --------------------------------------------------------------- sharded

TEST(ShardedLtc, RoutingIsStableAndCoversShards) {
  LtcConfig config;
  config.memory_bytes = 64 * 1024;
  ShardedLtc sharded(config, 8);
  std::vector<int> hits(8, 0);
  for (ItemId item = 1; item <= 10'000; ++item) {
    uint32_t shard = sharded.ShardOf(item);
    ASSERT_LT(shard, 8u);
    ASSERT_EQ(shard, sharded.ShardOf(item));  // stable
    ++hits[shard];
  }
  for (int h : hits) {
    EXPECT_GT(h, 1'000);  // roughly balanced
    EXPECT_LT(h, 1'500);
  }
}

TEST(ShardedLtc, BudgetIsSplitAcrossShards) {
  LtcConfig config;
  config.memory_bytes = 64 * 1024;
  ShardedLtc sharded(config, 4);
  EXPECT_LE(sharded.MemoryBytes(), config.memory_bytes);
  EXPECT_GE(sharded.MemoryBytes(), config.memory_bytes / 2);
  EXPECT_EQ(sharded.num_shards(), 4u);
}

TEST(ShardedLtc, MatchesTruthOnTopItems) {
  Stream stream = MakeZipfStream(60'000, 5'000, 1.2, 50, 9);
  GroundTruth truth = GroundTruth::Compute(stream);
  ShardedLtc sharded(TimePaced(stream, 32 * 1024), 4);
  for (const Record& r : stream.records()) sharded.Insert(r.item, r.time);
  sharded.Finalize();

  auto top = truth.TopKSignificant(20, 1.0, 1.0);
  std::unordered_set<ItemId> true_set;
  for (const auto& [item, sig] : top) true_set.insert(item);
  size_t hits = 0;
  for (const auto& report : sharded.TopK(20)) {
    if (true_set.count(report.item)) ++hits;
  }
  EXPECT_GE(hits, 18u);

  // Point queries route to the owning shard.
  auto [head_item, head_sig] = top[0];
  EXPECT_NEAR(sharded.QuerySignificance(head_item), head_sig,
              0.05 * head_sig);
}

TEST(ShardedLtc, ParallelPerShardFeedMatchesSequential) {
  Stream stream = MakeZipfStream(40'000, 3'000, 1.0, 40, 13);
  constexpr uint32_t kShards = 4;

  ShardedLtc sequential(TimePaced(stream, 16 * 1024), kShards);
  for (const Record& r : stream.records()) {
    sequential.Insert(r.item, r.time);
  }
  sequential.Finalize();

  // Parallel: pre-partition records by shard, one thread per shard.
  ShardedLtc parallel(TimePaced(stream, 16 * 1024), kShards);
  std::vector<std::vector<Record>> per_shard(kShards);
  for (const Record& r : stream.records()) {
    per_shard[parallel.ShardOf(r.item)].push_back(r);
  }
  std::vector<std::thread> threads;
  for (uint32_t s = 0; s < kShards; ++s) {
    threads.emplace_back([&parallel, &per_shard, s] {
      for (const Record& r : per_shard[s]) {
        parallel.shard(s).Insert(r.item, r.time);
      }
    });
  }
  for (auto& t : threads) t.join();
  parallel.Finalize();

  auto a = sequential.TopK(50);
  auto b = parallel.TopK(50);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "rank " << i;
    EXPECT_EQ(a[i].frequency, b[i].frequency);
    EXPECT_EQ(a[i].persistency, b[i].persistency);
  }
}

TEST(ShardedLtc, SerializationRoundTripsAndContinues) {
  Stream stream = MakeZipfStream(20'000, 2'000, 1.0, 20, 19);
  LtcConfig config = TimePaced(stream, 16 * 1024);
  ShardedLtc original(config, 4);
  size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    original.Insert(stream.records()[i].item, stream.records()[i].time);
  }

  BinaryWriter writer;
  original.Serialize(writer);
  BinaryReader reader(writer.data());
  auto restored = ShardedLtc::Deserialize(reader);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored->num_shards(), 4u);

  // Continue both; they must agree exactly (routing seed preserved).
  for (size_t i = half; i < stream.size(); ++i) {
    original.Insert(stream.records()[i].item, stream.records()[i].time);
    restored->Insert(stream.records()[i].item, stream.records()[i].time);
  }
  original.Finalize();
  restored->Finalize();
  auto a = original.TopK(50);
  auto b = restored->TopK(50);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item);
    EXPECT_EQ(a[i].frequency, b[i].frequency);
  }
}

TEST(ShardedLtc, DeserializeRejectsGarbage) {
  BinaryReader empty("");
  EXPECT_FALSE(ShardedLtc::Deserialize(empty).has_value());
  BinaryWriter writer;
  writer.PutU32(0x53484c31);
  writer.PutU64(7);
  writer.PutU32(100'000);  // absurd shard count
  BinaryReader reader(writer.data());
  EXPECT_FALSE(ShardedLtc::Deserialize(reader).has_value());
}

TEST(ShardedLtc, SingleShardEqualsPlainLtc) {
  Stream stream = MakeZipfStream(20'000, 2'000, 1.0, 20, 17);
  LtcConfig config = TimePaced(stream, 8 * 1024);
  ShardedLtc sharded(config, 1);
  Ltc plain(config);
  for (const Record& r : stream.records()) {
    sharded.Insert(r.item, r.time);
    plain.Insert(r.item, r.time);
  }
  sharded.Finalize();
  plain.Finalize();
  auto a = sharded.TopK(50);
  auto b = plain.TopK(50);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item);
    EXPECT_EQ(a[i].frequency, b[i].frequency);
  }
}

// Each pipeline worker writes its shard's clock scalars on every record,
// so no two shard tables may share a 128-byte block (a line pair the
// adjacent-line prefetcher fetches together). Every way of making a
// ShardedLtc builds its own shard vector, so each one is checked.
void ExpectShardsOwnWhole128ByteBlocks(const ShardedLtc& sharded,
                                       const std::string& what) {
  constexpr uintptr_t kBlock = 128;
  for (uint32_t i = 0; i < sharded.num_shards(); ++i) {
    const auto begin = reinterpret_cast<uintptr_t>(&sharded.shard(i));
    EXPECT_EQ(begin % kBlock, 0u) << what << " shard " << i;
    for (uint32_t j = 0; j < i; ++j) {
      const auto other = reinterpret_cast<uintptr_t>(&sharded.shard(j));
      const uintptr_t first_block = std::max(begin, other) / kBlock;
      const uintptr_t last_block =
          (std::min(begin, other) + sizeof(Ltc) - 1) / kBlock;
      EXPECT_GT(first_block, last_block)
          << what << " shards " << j << " and " << i << " share a block";
    }
  }
}

TEST(ShardedLtc, ShardTablesOwnWhole128ByteBlocks) {
  for (uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("S = " + std::to_string(shards));
    LtcConfig config;
    config.memory_bytes = shards * 4 * 1024;
    ShardedLtc built(config, shards);
    for (ItemId item = 1; item <= 1000; ++item) built.Insert(item);
    ExpectShardsOwnWhole128ByteBlocks(built, "constructed");

    const ShardedLtc copied(built);
    ExpectShardsOwnWhole128ByteBlocks(copied, "copy");
    ExpectShardsOwnWhole128ByteBlocks(built.CloneAtBarrier(), "clone");

    BinaryWriter writer;
    built.Serialize(writer);
    BinaryReader reader(writer.data());
    auto restored = ShardedLtc::Deserialize(reader);
    ASSERT_TRUE(restored.has_value());
    ExpectShardsOwnWhole128ByteBlocks(*restored, "deserialized");
  }
}

// Shards fed by different threads write their sinks on every record;
// sinks laid out side by side, as callers attach them, must each start
// a cache line of their own or the shards false-share.
TEST(LtcMetricsSink, AdjacentSinksInAVectorStartOnDifferentCacheLines) {
  std::vector<LtcMetricsSink> sinks(4);
  for (size_t i = 0; i < sinks.size(); ++i) {
    const auto addr = reinterpret_cast<uintptr_t>(&sinks[i]);
    EXPECT_EQ(addr % 64, 0u) << "sink " << i;
    if (i > 0) {
      const auto prev = reinterpret_cast<uintptr_t>(&sinks[i - 1]);
      EXPECT_NE(prev / 64, addr / 64) << "sinks " << i - 1 << " and " << i;
    }
  }
}

}  // namespace
}  // namespace ltc
