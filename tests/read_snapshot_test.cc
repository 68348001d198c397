// ReadSnapshotHub battery (docs/SERVING.md): the slot/pin semantics,
// the publish-skip escape hatch, deep-copy isolation, and the central
// serving claim — every answer a concurrent reader obtains from a hub
// snapshot is bit-identical to what a sequential run of the same
// stream prefix would answer at the corresponding flush barrier.
//
// The concurrent suites double as the tsan workload for the serving
// read path (wired into the tsan CI job next to ingest_pipeline_test).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ltc.h"
#include "core/read_snapshot.h"
#include "core/sharded_ltc.h"
#include "ingest/ingest_pipeline.h"
#include "stream/generators.h"

namespace ltc {
namespace {

LtcConfig CountPaced(size_t memory, uint64_t items_per_period) {
  LtcConfig config;
  config.memory_bytes = memory;
  config.period_mode = PeriodMode::kCountBased;
  config.items_per_period = items_per_period;
  return config;
}

std::unique_ptr<Ltc> TableWithFreq(uint64_t n) {
  auto table = std::make_unique<Ltc>(CountPaced(4096, 1 << 20));
  for (uint64_t i = 0; i < n; ++i) table->Insert(1);
  return table;
}

// --- Slot/pin semantics ----------------------------------------------

TEST(ReadSnapshotHub, NullBeforeFirstPublishThenMonotonicSeq) {
  ReadSnapshotHub hub;
  EXPECT_FALSE(hub.Acquire());
  EXPECT_EQ(hub.PublishedSeq(), 0u);

  EXPECT_TRUE(hub.Publish(TableWithFreq(1), 10));
  {
    const ReadSnapshotHub::Ref ref = hub.Acquire();
    ASSERT_TRUE(ref);
    EXPECT_EQ(ref->seq, 1u);
    EXPECT_EQ(ref->records, 10u);
    EXPECT_EQ(ref->table->EstimateFrequency(1), 1u);
  }
  EXPECT_TRUE(hub.Publish(TableWithFreq(2), 20));
  {
    const ReadSnapshotHub::Ref ref = hub.Acquire();
    ASSERT_TRUE(ref);
    EXPECT_EQ(ref->seq, 2u);
    EXPECT_EQ(ref->table->EstimateFrequency(1), 2u);
  }
  EXPECT_EQ(hub.PublishedSeq(), 2u);
  EXPECT_EQ(hub.SkippedPublishes(), 0u);
}

TEST(ReadSnapshotHub, ReaderPinKeepsItsImageAcrossAPublish) {
  ReadSnapshotHub hub;
  ASSERT_TRUE(hub.Publish(TableWithFreq(1), 1));
  const ReadSnapshotHub::Ref pinned = hub.Acquire();
  ASSERT_TRUE(pinned);
  // The publisher moves on; the pinned image must not change.
  ASSERT_TRUE(hub.Publish(TableWithFreq(2), 2));
  EXPECT_EQ(pinned->seq, 1u);
  EXPECT_EQ(pinned->table->EstimateFrequency(1), 1u);
  // New acquires see the new image.
  const ReadSnapshotHub::Ref fresh = hub.Acquire();
  ASSERT_TRUE(fresh);
  EXPECT_EQ(fresh->seq, 2u);
}

TEST(ReadSnapshotHub, StragglingReaderSkipsThePublishNeverStallsIt) {
  // Wait bound 0: a pinned stale slot is skipped immediately — Publish
  // must return rather than wait.
  ReadSnapshotHub hub(/*publish_wait_usec=*/0);
  ASSERT_TRUE(hub.Publish(TableWithFreq(1), 1));  // slot A, seq 1
  ReadSnapshotHub::Ref straggler = hub.Acquire();  // pins slot A
  ASSERT_TRUE(straggler);
  ASSERT_TRUE(hub.Publish(TableWithFreq(2), 2));  // slot B, seq 2

  // Slot A is still pinned: the third publish must skip, keeping seq 2.
  EXPECT_FALSE(hub.Publish(TableWithFreq(3), 3));
  EXPECT_EQ(hub.SkippedPublishes(), 1u);
  EXPECT_EQ(hub.PublishedSeq(), 2u);
  const ReadSnapshotHub::Ref current = hub.Acquire();
  ASSERT_TRUE(current);
  EXPECT_EQ(current->seq, 2u);

  // Straggler done: the next publish lands (slot A recycled).
  straggler = ReadSnapshotHub::Ref();
  EXPECT_TRUE(hub.Publish(TableWithFreq(3), 3));
  EXPECT_EQ(hub.PublishedSeq(), 3u);
}

TEST(ReadSnapshotHub, PinnedStaleSlotSkipsThePublishOnceTheBoundPasses) {
  constexpr uint64_t kBoundUsec = 20'000;
  ReadSnapshotHub hub(kBoundUsec);
  ASSERT_TRUE(hub.Publish(TableWithFreq(1), 1));  // slot A, seq 1
  const ReadSnapshotHub::Ref straggler = hub.Acquire();  // pins slot A
  ASSERT_TRUE(straggler);
  ASSERT_TRUE(hub.Publish(TableWithFreq(2), 2));  // slot B, seq 2

  // Slot A stays pinned for the whole wait: Publish gives up, in wall
  // time, no sooner than the bound.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(hub.Publish(TableWithFreq(3), 3));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, std::chrono::microseconds(kBoundUsec));
  EXPECT_EQ(hub.SkippedPublishes(), 1u);
  EXPECT_EQ(hub.PublishedSeq(), 2u);
}

TEST(ReadSnapshotHub, ReaderReleasingWithinTheBoundLetsThePublishLand) {
  constexpr uint64_t kBoundUsec = 250'000;
  ReadSnapshotHub hub(kBoundUsec);
  ASSERT_TRUE(hub.Publish(TableWithFreq(1), 1));  // slot A, seq 1
  ReadSnapshotHub::Ref straggler = hub.Acquire();  // pins slot A
  ASSERT_TRUE(straggler);
  ASSERT_TRUE(hub.Publish(TableWithFreq(2), 2));  // slot B, seq 2

  // Another thread unpins slot A a fifth of the way into the bound.
  std::thread reader([ref = std::move(straggler)]() mutable {
    std::this_thread::sleep_for(std::chrono::microseconds(kBoundUsec / 5));
    ref = ReadSnapshotHub::Ref();
  });
  EXPECT_TRUE(hub.Publish(TableWithFreq(3), 3));
  reader.join();
  EXPECT_EQ(hub.SkippedPublishes(), 0u);
  EXPECT_EQ(hub.PublishedSeq(), 3u);
}

TEST(CloneAtBarrier, DeepCopyIsIsolatedFromLaterWrites) {
  Ltc table(CountPaced(8192, 100));
  for (int i = 0; i < 500; ++i) table.Insert(static_cast<ItemId>(i % 7 + 1));
  const Ltc clone = table.CloneAtBarrier();
  const uint64_t before = clone.EstimateFrequency(1);
  for (int i = 0; i < 500; ++i) table.Insert(1);
  EXPECT_EQ(clone.EstimateFrequency(1), before);
  EXPECT_NE(table.EstimateFrequency(1), before);
}

TEST(CloneAtBarrier, ShardedCloneAnswersIdentically) {
  ShardedLtc sharded(CountPaced(16 * 1024, 1000), 4);
  Stream stream = MakeZipfStream(20000, 2000, 1.1, 10, 99);
  sharded.InsertBatch(stream.records());
  const ShardedLtc clone = sharded.CloneAtBarrier();
  const auto want = sharded.TopK(20);
  const auto got = clone.TopK(20);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].item, got[i].item) << i;
    EXPECT_EQ(want[i].frequency, got[i].frequency) << i;
    EXPECT_EQ(want[i].persistency, got[i].persistency) << i;
    EXPECT_EQ(want[i].significance, got[i].significance) << i;
  }
  EXPECT_EQ(clone.MemoryBytes(), sharded.MemoryBytes());
}

// --- Torn-read hammer (tsan workload) --------------------------------

// One publisher racing many readers. Each published table encodes its
// own sequence number (freq(item 1) == seq), so a reader can detect any
// torn or stale-slot read: the table's answer must equal the Ref's seq,
// and seq must never move backwards within one reader thread.
TEST(ReadSnapshotHubConcurrency, ReadersNeverSeeTornOrRegressingImages) {
  ReadSnapshotHub hub;
  constexpr int kReaders = 4;
  constexpr uint64_t kPublishes = 300;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> regressed{0};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_seq = 0;
      while (!done.load(std::memory_order_acquire)) {
        const ReadSnapshotHub::Ref ref = hub.Acquire();
        if (!ref) continue;
        if (ref->table->EstimateFrequency(1) != ref->seq) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        if (ref->seq < last_seq) {
          regressed.fetch_add(1, std::memory_order_relaxed);
        }
        last_seq = ref->seq;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (uint64_t seq = 1; seq <= kPublishes; ++seq) {
    // The hub may skip while a reader pins the stale slot — retry so
    // table contents stay in lockstep with the hub's seq counter.
    while (!hub.Publish(TableWithFreq(seq), seq)) {
    }
  }
  // On a loaded machine the publisher can finish before any reader is
  // ever scheduled; acquires don't need a live publisher, so wait for
  // one read before stopping them.
  while (reads.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(regressed.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(hub.PublishedSeq(), kPublishes);
}

// --- Flush-barrier oracle equivalence (the serving contract) ---------

/// What a reader records from one pinned snapshot: enough answers to
/// characterize the image (probe frequencies + the full top-10).
struct Observation {
  uint64_t records = 0;
  std::vector<uint64_t> probe_freq;
  std::vector<SignificanceReport> topk;
};

Observation Observe(uint64_t records, const SignificanceEstimator& table) {
  Observation obs;
  obs.records = records;
  obs.probe_freq.reserve(32);
  for (ItemId item = 1; item <= 32; ++item) {
    obs.probe_freq.push_back(table.EstimateFrequency(item));
  }
  obs.topk = table.TopK(10);
  return obs;
}

void ExpectSameObservation(const Observation& got, const Observation& want) {
  ASSERT_EQ(got.records, want.records);
  ASSERT_EQ(got.probe_freq.size(), want.probe_freq.size());
  for (size_t i = 0; i < got.probe_freq.size(); ++i) {
    EXPECT_EQ(got.probe_freq[i], want.probe_freq[i])
        << "probe item " << i + 1 << " at barrier " << want.records;
  }
  ASSERT_EQ(got.topk.size(), want.topk.size()) << "barrier " << want.records;
  for (size_t i = 0; i < got.topk.size(); ++i) {
    EXPECT_EQ(got.topk[i].item, want.topk[i].item)
        << "rank " << i << " at barrier " << want.records;
    EXPECT_EQ(got.topk[i].frequency, want.topk[i].frequency) << "rank " << i;
    EXPECT_EQ(got.topk[i].persistency, want.topk[i].persistency)
        << "rank " << i;
    EXPECT_EQ(got.topk[i].significance, want.topk[i].significance)
        << "rank " << i;
  }
}

// Live IngestPipeline feeding a sharded table with the hub attached;
// reader threads sample snapshots the whole time. EVERY observation —
// whatever moment it was taken at — must equal the sequential oracle's
// answers at that snapshot's flush barrier: served answers are
// bit-identical to a sequential run of the same stream prefix.
TEST(ReadSnapshotHubConcurrency, EveryServedAnswerEqualsAFlushBarrierOracle) {
  const LtcConfig config = CountPaced(32 * 1024, 2000);
  constexpr uint32_t kShards = 3;
  constexpr size_t kChunk = 5000;
  Stream stream = MakeZipfStream(100000, 5000, 1.1, 20, 1234);
  const std::span<const Record> records(stream.records());

  // Concurrent run: pipeline + hub + sampling readers.
  ShardedLtc sharded(config, kShards);
  ReadSnapshotHub hub;
  std::vector<std::vector<Observation>> observed(3);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < observed.size(); ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_seq = ~uint64_t{0};
      while (!done.load(std::memory_order_acquire)) {
        const ReadSnapshotHub::Ref ref = hub.Acquire();
        if (!ref) continue;
        // Record each image once per reader (the torn-read hammer above
        // covers re-reading); the race with the pipeline stays hot
        // because Acquire runs continuously either way.
        if (ref->seq == last_seq) continue;
        last_seq = ref->seq;
        observed[r].push_back(Observe(ref->records, *ref->table));
      }
    });
  }
  {
    IngestPipeline pipeline(sharded);
    pipeline.AttachReadSnapshotHub(&hub);
    for (size_t i = 0; i < records.size(); i += kChunk) {
      pipeline.PushBatch(records.subspan(i, kChunk));
      pipeline.Flush();  // barrier → publish
    }
    pipeline.Stop();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Sequential oracle: the same chunks fed single-threaded, observed at
  // every chunk barrier.
  std::map<uint64_t, Observation> oracle;
  {
    ShardedLtc sequential(config, kShards);
    oracle.emplace(0, Observe(0, sequential));  // pre-publish seed image
    for (size_t i = 0; i < records.size(); i += kChunk) {
      sequential.InsertBatch(records.subspan(i, kChunk));
      oracle.emplace(i + kChunk, Observe(i + kChunk, sequential));
    }
  }

  size_t total = 0;
  for (const auto& reader_log : observed) {
    for (const Observation& obs : reader_log) {
      const auto it = oracle.find(obs.records);
      ASSERT_NE(it, oracle.end())
          << "snapshot at records=" << obs.records
          << " does not correspond to any flush barrier";
      ExpectSameObservation(obs, it->second);
      ++total;
    }
  }
  // The readers really raced the pipeline (sanity: sampling happened).
  EXPECT_GT(total, 0u);
  // Every barrier either published or (rarely, under a straggling
  // reader) skipped — none may stall or vanish.
  EXPECT_EQ(hub.PublishedSeq() + hub.SkippedPublishes(),
            records.size() / kChunk);
}

}  // namespace
}  // namespace ltc
