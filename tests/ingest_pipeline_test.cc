// Tests for the batched insertion fast paths (Ltc::InsertBatch,
// ShardedLtc::InsertBatch) and the parallel IngestPipeline. The central
// claim under test is DETERMINISM: batching and pipelining buy
// throughput, never a different answer — the final sketch state must be
// bit-identical (serialized-bytes equal) to sequential Insert calls over
// the same stream. The concurrency tests double as the tsan workload.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/serial.h"
#include "core/sharded_ltc.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/spsc_ring.h"
#include "stream/generators.h"
#include "telemetry/metrics.h"

namespace ltc {
namespace {

LtcConfig TimePaced(const Stream& stream, size_t memory) {
  LtcConfig config;
  config.memory_bytes = memory;
  config.period_mode = PeriodMode::kTimeBased;
  config.period_seconds = stream.duration() / stream.num_periods();
  return config;
}

LtcConfig CountPaced(size_t memory, uint64_t items_per_period) {
  LtcConfig config;
  config.memory_bytes = memory;
  config.period_mode = PeriodMode::kCountBased;
  config.items_per_period = items_per_period;
  return config;
}

std::string Bytes(const Ltc& table) {
  BinaryWriter writer;
  table.Serialize(writer);
  return writer.data();
}

std::string Bytes(const ShardedLtc& sharded) {
  BinaryWriter writer;
  sharded.Serialize(writer);
  return writer.data();
}

void ExpectSameTopK(const SignificanceEstimator& a,
                    const SignificanceEstimator& b, size_t k) {
  auto ra = a.TopK(k);
  auto rb = b.TopK(k);
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].item, rb[i].item) << "rank " << i;
    EXPECT_EQ(ra[i].frequency, rb[i].frequency) << "rank " << i;
    EXPECT_EQ(ra[i].persistency, rb[i].persistency) << "rank " << i;
    EXPECT_DOUBLE_EQ(ra[i].significance, rb[i].significance) << "rank " << i;
  }
}

// ------------------------------------------------------------- spsc ring

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing(1).capacity(), 2u);
  EXPECT_EQ(SpscRing(2).capacity(), 2u);
  EXPECT_EQ(SpscRing(3).capacity(), 4u);
  EXPECT_EQ(SpscRing(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing(1024).capacity(), 1024u);
}

TEST(SpscRing, FifoOrderAcrossWraps) {
  SpscRing ring(4);
  Record out[8];
  ItemId next_in = 1, next_out = 1;
  // Push/pop in a ragged pattern so the indices wrap several times.
  for (int round = 0; round < 50; ++round) {
    size_t pushed = 0;
    while (pushed < 3 && ring.TryPush({next_in, 0.5 * next_in})) {
      ++next_in;
      ++pushed;
    }
    size_t popped = ring.PopBatch(out, round % 2 ? 2 : 4);
    for (size_t i = 0; i < popped; ++i) {
      EXPECT_EQ(out[i].item, next_out);
      EXPECT_DOUBLE_EQ(out[i].time, 0.5 * next_out);
      ++next_out;
    }
  }
  while (size_t n = ring.PopBatch(out, 8)) {
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(out[i].item, next_out++);
  }
  EXPECT_EQ(next_out, next_in);  // nothing lost, nothing duplicated
}

TEST(SpscRing, PushBatchStopsAtCapacity) {
  SpscRing ring(4);
  std::vector<Record> records;
  for (ItemId i = 1; i <= 10; ++i) records.push_back({i, 0.0});
  EXPECT_EQ(ring.TryPushBatch(records), 4u);
  EXPECT_EQ(ring.TryPushBatch(records), 0u);  // full
  Record out[4];
  EXPECT_EQ(ring.PopBatch(out, 4), 4u);
  EXPECT_EQ(out[0].item, 1u);
  EXPECT_EQ(ring.PopBatch(out, 4), 0u);  // empty
}

// ---------------------------------------------------------- batch insert

TEST(LtcInsertBatch, BitIdenticalToSequentialTimeBased) {
  Stream stream = MakeZipfStream(30'000, 2'000, 1.1, 30, 101);
  LtcConfig config = TimePaced(stream, 8 * 1024);
  Ltc sequential(config), batched(config);
  for (const Record& r : stream.records()) sequential.Insert(r.item, r.time);
  // Feed in ragged chunk sizes so batch boundaries land everywhere.
  std::span<const Record> rest = stream.records();
  size_t chunk = 1;
  while (!rest.empty()) {
    size_t n = std::min(chunk, rest.size());
    batched.InsertBatch(rest.subspan(0, n));
    rest = rest.subspan(n);
    chunk = chunk * 2 + 1;
  }
  EXPECT_EQ(Bytes(sequential), Bytes(batched));
  sequential.Finalize();
  batched.Finalize();
  ExpectSameTopK(sequential, batched, 50);
}

TEST(LtcInsertBatch, BitIdenticalToSequentialCountBased) {
  Stream stream = MakeZipfStream(30'000, 2'000, 1.1, 30, 103);
  LtcConfig config = CountPaced(8 * 1024, 997);  // deliberately ragged n
  Ltc sequential(config), batched(config);
  for (const Record& r : stream.records()) sequential.Insert(r.item, r.time);
  batched.InsertBatch(stream.records());
  EXPECT_EQ(Bytes(sequential), Bytes(batched));
  EXPECT_TRUE(batched.CheckInvariants());
}

TEST(LtcInsertBatch, EmptyBatchIsANoOp) {
  LtcConfig config = CountPaced(4 * 1024, 100);
  Ltc table(config);
  table.Insert(7);
  std::string before = Bytes(table);
  table.InsertBatch({});
  EXPECT_EQ(Bytes(table), before);
}

TEST(ShardedLtcInsertBatch, BitIdenticalToSequential) {
  Stream stream = MakeZipfStream(40'000, 3'000, 1.0, 40, 107);
  LtcConfig config = TimePaced(stream, 16 * 1024);
  ShardedLtc sequential(config, 4), batched(config, 4);
  for (const Record& r : stream.records()) sequential.Insert(r.item, r.time);
  batched.InsertBatch(stream.records());
  EXPECT_EQ(Bytes(sequential), Bytes(batched));
  sequential.Finalize();
  batched.Finalize();
  ExpectSameTopK(sequential, batched, 50);
}

// -------------------------------------------------------------- pipeline

TEST(IngestPipeline, BitIdenticalToSequentialTimeBased) {
  Stream stream = MakeZipfStream(40'000, 3'000, 1.0, 40, 109);
  LtcConfig config = TimePaced(stream, 16 * 1024);

  ShardedLtc sequential(config, 4);
  for (const Record& r : stream.records()) sequential.Insert(r.item, r.time);

  ShardedLtc piped(config, 4);
  {
    IngestPipeline pipeline(piped);
    pipeline.PushBatch(stream.records());
    pipeline.Stop();
    EXPECT_EQ(pipeline.TotalEnqueued(), stream.size());
    EXPECT_EQ(pipeline.TotalDropped(), 0u);
  }
  EXPECT_EQ(Bytes(sequential), Bytes(piped));
  EXPECT_TRUE(piped.CheckInvariants());

  sequential.Finalize();
  piped.Finalize();
  ExpectSameTopK(sequential, piped, 50);
  for (const auto& report : piped.TopK(50)) {
    EXPECT_EQ(piped.EstimateFrequency(report.item),
              sequential.EstimateFrequency(report.item));
    EXPECT_EQ(piped.EstimatePersistency(report.item),
              sequential.EstimatePersistency(report.item));
  }
}

TEST(IngestPipeline, BitIdenticalToSequentialCountBased) {
  Stream stream = MakeZipfStream(40'000, 3'000, 1.0, 40, 113);
  LtcConfig config = CountPaced(16 * 1024, 1'000);

  ShardedLtc sequential(config, 4);
  for (const Record& r : stream.records()) sequential.Insert(r.item, r.time);

  ShardedLtc piped(config, 4);
  IngestPipeline pipeline(piped);
  pipeline.PushBatch(stream.records());
  pipeline.Stop();
  EXPECT_EQ(Bytes(sequential), Bytes(piped));
}

// Small rings + per-record Push: the producer blocks on full rings and
// the workers wrap the rings thousands of times. This is the main tsan
// workload for the ring's release/acquire protocol.
TEST(IngestPipeline, TinyRingsBackpressureIsLossless) {
  Stream stream = MakeZipfStream(30'000, 2'000, 1.0, 30, 127);
  LtcConfig config = TimePaced(stream, 16 * 1024);

  ShardedLtc sequential(config, 4);
  for (const Record& r : stream.records()) sequential.Insert(r.item, r.time);

  ShardedLtc piped(config, 4);
  IngestConfig ingest;
  ingest.ring_capacity = 8;  // forces constant producer/worker handoff
  ingest.drain_batch = 4;
  ingest.backpressure = BackpressureMode::kBlock;
  IngestPipeline pipeline(piped, ingest);
  for (const Record& r : stream.records()) pipeline.Push(r.item, r.time);
  pipeline.Stop();

  EXPECT_EQ(pipeline.TotalEnqueued(), stream.size());
  EXPECT_EQ(pipeline.TotalDropped(), 0u);
  EXPECT_EQ(Bytes(sequential), Bytes(piped));
}

TEST(IngestPipeline, DropModeAccountsForEveryRecord) {
  Stream stream = MakeZipfStream(30'000, 2'000, 1.0, 30, 131);
  LtcConfig config = TimePaced(stream, 16 * 1024);
  ShardedLtc piped(config, 4);
  IngestConfig ingest;
  ingest.ring_capacity = 8;  // guarantees overflow on a big batch
  ingest.drain_batch = 4;
  ingest.backpressure = BackpressureMode::kDrop;
  IngestPipeline pipeline(piped, ingest);
  pipeline.PushBatch(stream.records());
  pipeline.Flush();

  // Every record is either applied or counted as dropped — never lost.
  EXPECT_EQ(pipeline.TotalEnqueued() + pipeline.TotalDropped(),
            stream.size());
  uint64_t enqueued_sum = 0, drained_sum = 0;
  for (uint32_t s = 0; s < pipeline.num_shards(); ++s) {
    IngestShardStats stats = pipeline.ShardStatsOf(s);
    EXPECT_EQ(stats.drained, stats.enqueued) << "shard " << s;
    EXPECT_EQ(stats.ring_capacity, 8u);
    enqueued_sum += stats.enqueued;
    drained_sum += stats.drained;
  }
  EXPECT_EQ(enqueued_sum, pipeline.TotalEnqueued());
  EXPECT_EQ(drained_sum, pipeline.TotalEnqueued());
  pipeline.Stop();
  EXPECT_TRUE(piped.CheckInvariants());
}

TEST(IngestPipeline, FlushMakesMidStreamStateVisible) {
  Stream stream = MakeZipfStream(20'000, 2'000, 1.0, 20, 137);
  LtcConfig config = TimePaced(stream, 8 * 1024);
  size_t half = stream.size() / 2;
  std::span<const Record> records = stream.records();

  ShardedLtc sequential(config, 4);
  for (size_t i = 0; i < half; ++i) {
    sequential.Insert(records[i].item, records[i].time);
  }

  ShardedLtc piped(config, 4);
  IngestPipeline pipeline(piped);
  pipeline.PushBatch(records.subspan(0, half));
  pipeline.Flush();
  // All accepted records applied and visible: mid-stream snapshot equals
  // the sequential half-fed table exactly.
  EXPECT_EQ(Bytes(sequential), Bytes(piped));

  // The pipeline keeps accepting after a flush.
  pipeline.PushBatch(records.subspan(half));
  pipeline.Stop();
  for (size_t i = half; i < records.size(); ++i) {
    sequential.Insert(records[i].item, records[i].time);
  }
  EXPECT_EQ(Bytes(sequential), Bytes(piped));
}

TEST(IngestPipeline, DestructorStopsAndAppliesEverything) {
  Stream stream = MakeZipfStream(10'000, 1'000, 1.0, 10, 139);
  LtcConfig config = TimePaced(stream, 8 * 1024);
  ShardedLtc sequential(config, 2);
  for (const Record& r : stream.records()) sequential.Insert(r.item, r.time);

  ShardedLtc piped(config, 2);
  {
    IngestPipeline pipeline(piped);
    pipeline.PushBatch(stream.records());
    // No explicit Stop: the destructor must flush and join.
  }
  EXPECT_EQ(Bytes(sequential), Bytes(piped));
}

TEST(IngestPipeline, StopIsIdempotentAndStatsSettle) {
  Stream stream = MakeZipfStream(5'000, 500, 1.0, 10, 149);
  ShardedLtc piped(TimePaced(stream, 8 * 1024), 4);
  IngestPipeline pipeline(piped);
  pipeline.PushBatch(stream.records());
  pipeline.Stop();
  pipeline.Stop();
  EXPECT_EQ(pipeline.num_shards(), 4u);
  for (uint32_t s = 0; s < pipeline.num_shards(); ++s) {
    IngestShardStats stats = pipeline.ShardStatsOf(s);
    EXPECT_EQ(stats.queue_depth, 0u) << "shard " << s;
    EXPECT_EQ(stats.drained, stats.enqueued) << "shard " << s;
    if (stats.enqueued > 0) {
      EXPECT_GT(stats.batches, 0u);
    }
  }
}

TEST(IngestPipeline, FlushesCounterCountsCompletedFlushes) {
  Stream stream = MakeZipfStream(5'000, 500, 1.0, 10, 157);
  ShardedLtc piped(TimePaced(stream, 8 * 1024), 3);
  IngestPipeline pipeline(piped);
  pipeline.PushBatch(stream.records());
  EXPECT_TRUE(pipeline.Flush());
  EXPECT_TRUE(pipeline.Flush());
  pipeline.Stop();
  for (uint32_t s = 0; s < pipeline.num_shards(); ++s) {
    // Each explicit Flush() that drained the lane counts once; Stop()
    // joins workers without flushing, so the count stays at two.
    EXPECT_EQ(pipeline.ShardStatsOf(s).flushes, 2u) << "shard " << s;
  }
}

TEST(IngestPipeline, ShardStatsOfThrowsOutOfRange) {
  ShardedLtc sharded(CountPaced(8 * 1024, 1'000), 2);
  IngestPipeline pipeline(sharded);
  EXPECT_THROW((void)pipeline.ShardStatsOf(2), std::out_of_range);
  EXPECT_THROW((void)pipeline.ShardStatsOf(99), std::out_of_range);
  pipeline.Stop();
}

TEST(IngestPipeline, AttachMetricsPublishesPerShardSeries) {
  Stream stream = MakeZipfStream(5'000, 500, 1.0, 10, 163);
  ShardedLtc piped(TimePaced(stream, 8 * 1024), 2);
  IngestPipeline pipeline(piped);
  telemetry::MetricsRegistry registry;
  pipeline.PushBatch(stream.records());
  EXPECT_TRUE(pipeline.Flush());
  pipeline.Stop();
  pipeline.Collect(registry);

  uint64_t enqueued = 0;
  for (uint32_t s = 0; s < pipeline.num_shards(); ++s) {
    enqueued += registry
                    .CounterOf("ltc_ingest_enqueued_total", "", telemetry::Labels{
                                   {"shard", std::to_string(s)}})
                    .Value();
  }
  EXPECT_EQ(enqueued, stream.size());
  // The timed flush recorded at least one latency sample.
  EXPECT_GE(registry
                .HistogramOf("ltc_ingest_flush_duration_usec", "",
                             telemetry::Labels{})
                .Count(),
            1u);
}

TEST(IngestPipeline, SingleShardPipelineMatchesPlainLtc) {
  Stream stream = MakeZipfStream(20'000, 2'000, 1.0, 20, 151);
  LtcConfig config = TimePaced(stream, 8 * 1024);
  Ltc plain(config);
  plain.InsertBatch(stream.records());

  ShardedLtc piped(config, 1);
  IngestPipeline pipeline(piped);
  pipeline.PushBatch(stream.records());
  pipeline.Stop();

  plain.Finalize();
  piped.Finalize();
  ExpectSameTopK(plain, piped, 50);
}

// PushBatch streams its input in slices of kPushSlice records. Batch
// sizes on both sides of the slice boundary must leave the answer
// unchanged at every shard count.
TEST(IngestPipeline, SlicedPushBatchBitIdenticalAcrossSliceBoundaries) {
  constexpr size_t kSlice = IngestPipeline::kPushSlice;
  const std::vector<size_t> sizes = {1, kSlice - 1, kSlice, kSlice + 1,
                                     3 * kSlice + 7};
  size_t total = 0;
  for (size_t size : sizes) total += size;
  Stream stream = MakeZipfStream(total, 3'000, 1.0, 30, 157);
  LtcConfig config = TimePaced(stream, 16 * 1024);

  for (uint32_t shards : {1u, 2u, 4u}) {
    ShardedLtc sequential(config, shards);
    for (const Record& r : stream.records()) sequential.Insert(r.item, r.time);

    ShardedLtc piped(config, shards);
    IngestPipeline pipeline(piped);
    std::span<const Record> rest = stream.records();
    for (size_t size : sizes) {
      pipeline.PushBatch(rest.first(size));
      rest = rest.subspan(size);
    }
    pipeline.Stop();
    EXPECT_EQ(pipeline.TotalEnqueued(), stream.size()) << shards << " shards";
    EXPECT_EQ(pipeline.TotalDropped(), 0u) << shards << " shards";
    EXPECT_EQ(Bytes(sequential), Bytes(piped)) << shards << " shards";
  }
}

// One hung lane must not hold the others back: within a multi-slice
// batch, the live shard enqueues and drains all of its records, and the
// hung shard's overflow is counted as dropped.
TEST(IngestPipeline, HungLaneDropsItsOverflowWhileOtherLanesDrain) {
  const size_t total = 3 * IngestPipeline::kPushSlice + 7;
  Stream stream = MakeZipfStream(total, 3'000, 1.0, 30, 163);
  LtcConfig config = TimePaced(stream, 16 * 1024);
  ShardedLtc piped(config, 2);
  uint64_t routed[2] = {0, 0};
  for (const Record& r : stream.records()) ++routed[piped.ShardOf(r.item)];

  IngestConfig ingest;
  ingest.ring_capacity = 256;  // far below shard 0's share of the batch
  ingest.stall_timeout_usec = 250'000;
  IngestPipeline pipeline(piped, ingest);
  pipeline.HangWorkerForTest(0, true);
  pipeline.PushBatch(stream.records());

  EXPECT_TRUE(pipeline.stalled());
  const IngestShardStats live = pipeline.ShardStatsOf(1);
  EXPECT_EQ(live.enqueued, routed[1]);
  EXPECT_EQ(live.dropped, 0u);
  const IngestShardStats hung = pipeline.ShardStatsOf(0);
  EXPECT_GT(hung.dropped, 0u);
  EXPECT_EQ(hung.enqueued + hung.dropped, routed[0]);
  EXPECT_EQ(pipeline.TotalEnqueued() + pipeline.TotalDropped(), total);
  for (int i = 0; i < 10'000 && pipeline.ShardStatsOf(1).drained < routed[1];
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pipeline.ShardStatsOf(1).drained, routed[1]);

  pipeline.HangWorkerForTest(0, false);
  pipeline.Stop();
  EXPECT_EQ(pipeline.ShardStatsOf(0).drained, hung.enqueued);
  EXPECT_TRUE(piped.CheckInvariants());
}

// A paused worker that resumes within the stall bound is live, not
// stalled: Flush() waits out a pause of a fifth of the bound.
TEST(IngestPipeline, FlushOutwaitsAPauseShorterThanItsMinimumWait) {
  Stream stream = MakeZipfStream(2'000, 500, 1.0, 4, 167);
  LtcConfig config = TimePaced(stream, 16 * 1024);
  ShardedLtc sequential(config, 2);
  for (const Record& r : stream.records()) sequential.Insert(r.item, r.time);

  ShardedLtc piped(config, 2);
  IngestConfig ingest;
  ingest.stall_timeout_usec = 250'000;
  IngestPipeline pipeline(piped, ingest);
  pipeline.SuspendWorkersForTest(true);
  pipeline.PushBatch(stream.records());
  const auto pause = std::chrono::microseconds(ingest.stall_timeout_usec / 5);
  const auto start = std::chrono::steady_clock::now();
  std::thread releaser([&] {
    std::this_thread::sleep_for(pause);
    pipeline.SuspendWorkersForTest(false);
  });
  EXPECT_TRUE(pipeline.Flush());
  EXPECT_GE(std::chrono::steady_clock::now() - start, pause);
  releaser.join();
  EXPECT_FALSE(pipeline.stalled());
  pipeline.Stop();
  EXPECT_EQ(pipeline.TotalEnqueued(), stream.size());
  EXPECT_EQ(Bytes(sequential), Bytes(piped));
}

// The kBlock push wait is bounded in wall time: a Push() that meets a
// hung lane's full ring returns once the bound has passed without
// progress, counts its record as dropped and latches the stall.
TEST(IngestPipeline, BlockedPushGivesUpAfterTheStallBound) {
  ShardedLtc piped(CountPaced(8 * 1024, 1'000), 1);
  IngestConfig ingest;
  ingest.ring_capacity = 8;
  ingest.stall_timeout_usec = 50'000;
  IngestPipeline pipeline(piped, ingest);
  pipeline.HangWorkerForTest(0, true);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // it polls
  while (pipeline.ShardStatsOf(0).queue_depth < 8) pipeline.Push(1);
  const uint64_t enqueued = pipeline.TotalEnqueued();

  const auto start = std::chrono::steady_clock::now();
  pipeline.Push(1);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, std::chrono::microseconds(ingest.stall_timeout_usec));
  EXPECT_LT(waited, std::chrono::seconds(2));
  EXPECT_TRUE(pipeline.stalled());
  EXPECT_EQ(pipeline.TotalDropped(), 1u);
  EXPECT_EQ(pipeline.TotalEnqueued(), enqueued);

  pipeline.HangWorkerForTest(0, false);
  pipeline.Stop();
  EXPECT_EQ(pipeline.ShardStatsOf(0).drained, enqueued);
}

// Progress restarts the bound: a worker released in steps, each after a
// silence well inside the bound, keeps a blocked PushBatch waiting for
// longer than the bound in all without ever making it give up.
TEST(IngestPipeline, DrainingInStepsRestartsTheStallBound) {
  IngestConfig ingest;
  ingest.ring_capacity = 8;
  ingest.stall_timeout_usec = 300'000;
  const auto bound = std::chrono::microseconds(ingest.stall_timeout_usec);
  std::vector<Record> records;
  for (ItemId i = 1; i <= 6 * 8; ++i) records.push_back({i, 0.0});

  // One step: a third of the bound of silence, then the worker runs
  // until it has applied something and hangs again. The producer sleeps
  // through the end of each silence, so a step drains about one ring and
  // the batch needs about five steps. Under CPU load a step can drain
  // several rings and end the batch inside the bound, which proves
  // nothing, so such a run is repeated.
  auto waited = std::chrono::steady_clock::duration::zero();
  for (int run = 0; run < 5 && waited <= bound; ++run) {
    ShardedLtc piped(CountPaced(8 * 1024, 1'000), 1);
    IngestPipeline pipeline(piped, ingest);
    pipeline.HangWorkerForTest(0, true);
    std::atomic<bool> done{false};
    std::thread stepper([&] {
      while (!done.load()) {
        std::this_thread::sleep_for(bound / 3);
        const uint64_t drained = pipeline.ShardStatsOf(0).drained;
        pipeline.HangWorkerForTest(0, false);
        while (!done.load() && pipeline.ShardStatsOf(0).drained == drained) {
          std::this_thread::yield();
        }
        pipeline.HangWorkerForTest(0, true);
      }
    });
    const auto start = std::chrono::steady_clock::now();
    pipeline.PushBatch(records);
    waited = std::chrono::steady_clock::now() - start;
    done.store(true);
    stepper.join();

    EXPECT_FALSE(pipeline.stalled());
    EXPECT_EQ(pipeline.TotalDropped(), 0u);
    EXPECT_EQ(pipeline.TotalEnqueued(), records.size());
    pipeline.HangWorkerForTest(0, false);
    EXPECT_TRUE(pipeline.Flush());
    pipeline.Stop();
  }
  EXPECT_GT(waited, bound) << "no push outlasted the bound";
}

}  // namespace
}  // namespace ltc
