// Ingest under injected failure: a dead worker stays dead and its lane
// stalls, the stall latch clears on the next complete Flush(), and the
// seeded end-to-end chaos run that drives hangs and I/O fault bursts
// against a live pipeline and then proves the recovered state against
// the sequential oracle.
//
// Everything here composes existing seams (KillWorkerForTest,
// HangWorkerForTest, FailpointFs) through the ChaosInjector; every run
// is a pure function of its seed.

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <filesystem>

#include "common/serial.h"
#include "core/sharded_ltc.h"
#include "ingest/ingest_pipeline.h"
#include "snapshot/failpoint_fs.h"
#include "snapshot/sketch_snapshot.h"
#include "snapshot/snapshot_store.h"
#include "stream/generators.h"
#include "telemetry/metrics.h"
#include "testing/chaos_injector.h"

namespace ltc {
namespace {

LtcConfig TimePaced(const Stream& stream, size_t memory) {
  LtcConfig config;
  config.memory_bytes = memory;
  config.period_mode = PeriodMode::kTimeBased;
  config.period_seconds = stream.duration() / stream.num_periods();
  return config;
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
  }
}

/// Polls `condition` (yielding) until true or ~`timeout_ms` elapsed.
bool WaitUntil(const std::function<bool()>& condition,
               int timeout_ms = 30'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::yield();
  }
  return condition();
}

// ------------------------------------------------------- worker death

TEST(ChaosSupervisor, DisabledSupervisionLeavesDeadWorkersDead) {
  ShardedLtc sink(TimePaced(MakeZipfStream(100, 50, 1.0, 2, 1), 8 * 1024), 1);
  IngestConfig ingest;
  ingest.stall_timeout_usec = 10'000;  // the flush below must expire
  IngestPipeline pipeline(sink, ingest);

  pipeline.KillWorkerForTest(0);
  // Give the worker a moment to exit, then queue records nobody drains.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::vector<Record> records;
  for (ItemId i = 1; i <= 100; ++i) records.push_back({i, 0.0});
  pipeline.PushBatch(records);

  EXPECT_FALSE(pipeline.Flush());  // bounded wait expires
  EXPECT_TRUE(pipeline.stalled());

  // Stop() still applies every accepted record via its inline drain.
  pipeline.Stop();
  const auto stats = pipeline.ShardStatsOf(0);
  EXPECT_EQ(stats.drained, stats.enqueued);
}

// --------------------------------------------------------- stall latch

TEST(ChaosSupervisor, StallLatchHealsOnceBacklogDrains) {
  ShardedLtc sink(TimePaced(MakeZipfStream(100, 50, 1.0, 2, 1), 8 * 1024), 1);
  IngestConfig ingest;
  ingest.ring_capacity = 64;
  // The push below expires on the hung lane; the Flush() after the
  // release, with a live worker, must complete.
  ingest.stall_timeout_usec = 250'000;
  IngestPipeline pipeline(sink, ingest);
  EXPECT_FALSE(pipeline.stalled());

  // Hang the worker, then push more than the ring holds: the bounded
  // push wait expires, so the stall latches and the overflow is
  // dropped (accounted, not lost silently).
  pipeline.HangWorkerForTest(0, true);
  std::vector<Record> records;
  for (ItemId i = 1; i <= 1'000; ++i) records.push_back({i, 0.0});
  pipeline.PushBatch(records);
  EXPECT_TRUE(pipeline.stalled());
  EXPECT_GT(pipeline.TotalDropped(), 0u);
  EXPECT_EQ(pipeline.TotalEnqueued() + pipeline.TotalDropped(),
            records.size());

  // Released, the worker drains the ring, and the next complete Flush()
  // clears the latch: a stall is an incident, not a permanent condition.
  pipeline.HangWorkerForTest(0, false);
  ASSERT_TRUE(pipeline.Flush());
  EXPECT_FALSE(pipeline.stalled()) << "stall latch never healed";

  // Post-heal the pipeline is fully usable: new pushes flush cleanly.
  pipeline.PushBatch({records.data(), 10});
  EXPECT_TRUE(pipeline.Flush());
  pipeline.Stop();
  const auto stats = pipeline.ShardStatsOf(0);
  EXPECT_EQ(stats.drained, stats.enqueued);
}

// ------------------------------------------------- end-to-end chaos run

// The acceptance run: a seeded ChaosInjector hangs workers and arms I/O
// fault bursts while a real stream feeds through the pipeline with
// periodic checkpoints. Once the hangs are released and a Flush()
// completes, the pipeline must be healed (stall latch clear),
// the final checkpoint must succeed through the backoff stack, and both
// the live sink and the recovered snapshot must match the sequential
// oracle exactly.
TEST(ChaosEndToEnd, SelfHealsAndMatchesSequentialOracle) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "chaos_e2e";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  Stream stream = MakeZipfStream(30'000, 2'000, 1.1, 30, 229);
  LtcConfig config = TimePaced(stream, 16 * 1024);

  ShardedLtc sequential(config, 4);
  for (const Record& r : stream.records()) sequential.Insert(r.item, r.time);

  ShardedLtc piped(config, 4);
  IngestConfig ingest;
  ingest.ring_capacity = 1 << 12;
  // A mid-chaos flush that meets a hung lane gives up after 250 ms of
  // silence, not after the default 2 s; the final flush, with every
  // worker live, must complete.
  ingest.stall_timeout_usec = 250'000;
  IngestPipeline pipeline(piped, ingest);
  telemetry::MetricsRegistry registry;

  FailpointFs fs(SystemFs());
  SnapshotStoreConfig store_config;
  store_config.retry.max_attempts = 3;
  store_config.retry.initial_delay_usec = 1'000;
  SnapshotStore store((dir / "state").string(), store_config, &fs);
  pipeline.AttachSnapshotStore(&store);

  ChaosConfig chaos_config;
  chaos_config.hang_probability = 0.10;
  chaos_config.io_fault_probability = 0.30;
  chaos_config.hang_release_steps = 3;
  chaos_config.seed = 233;
  ChaosInjector chaos(pipeline, chaos_config, &fs);

  std::span<const Record> records = stream.records();
  const size_t chunk = 500;
  size_t step = 0;
  for (size_t off = 0; off < records.size(); off += chunk, ++step) {
    pipeline.PushBatch(records.subspan(off, std::min(chunk,
                                                     records.size() - off)));
    chaos.Step();
    if (step % 8 == 7) {
      pipeline.Checkpoint();  // best-effort mid-chaos; failures counted
    }
  }
  EXPECT_GT(chaos.hangs_injected(), 0u)
      << "seed injected no worker faults; the run proves nothing";

  // Let the wounds close: hangs released, backlogs drained, and the
  // stall latch cleared by a complete flush.
  chaos.ReleaseAll();
  pipeline.Flush();
  ASSERT_TRUE(WaitUntil([&] { return !pipeline.stalled(); }))
      << "pipeline never healed";

  // The final checkpoint must land, through retries if need be.
  fs.Arm(FailpointFs::Failure::kWriteError, fs.mutating_ops(), 0,
         /*burst=*/1);  // one last transient fault for the backoff stack
  std::string error;
  ASSERT_TRUE(pipeline.Checkpoint(&error)) << error;
  EXPECT_GE(pipeline.CheckpointsTaken(), 1u);
  ASSERT_TRUE(pipeline.Flush());
  pipeline.Collect(registry);
  pipeline.Stop();

  // Healing is visible in the counters.
  EXPECT_EQ(registry.GaugeOf("ltc_ingest_stalled", "").Value(), 0.0);

  // Nothing lost, nothing double-applied, despite every injected fault:
  // the live sink is bit-identical to the sequential oracle.
  EXPECT_EQ(pipeline.TotalEnqueued(), stream.size());
  EXPECT_EQ(pipeline.TotalDropped(), 0u);
  EXPECT_EQ(Bytes(sequential), Bytes(piped));
  EXPECT_TRUE(piped.CheckInvariants());

  // And the checkpoint on disk recovers to the same answer.
  const auto recovered = store.LoadLatest(&error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_EQ(recovered->payload, Bytes(sequential));
  SnapshotError decode_error = SnapshotError::kNone;
  auto restored = DecodeSketchSnapshot<ShardedLtc>(
      EncodeFrame(recovered->payload), &decode_error);
  ASSERT_TRUE(restored.has_value()) << SnapshotErrorName(decode_error);
  restored->Finalize();
  sequential.Finalize();
  ExpectSameTopK(*restored, sequential, 50);

  std::filesystem::remove_all(dir);
}

// Checkpoint stall errors name the stalled shard and its queue depth —
// the on-call operator's first question, answered in the message.
TEST(ChaosCheckpoint, StallErrorNamesShardAndQueueDepth) {
  ShardedLtc sink(TimePaced(MakeZipfStream(100, 50, 1.0, 2, 1), 8 * 1024), 2);
  IngestConfig ingest;
  ingest.ring_capacity = 64;
  ingest.stall_timeout_usec = 10'000;  // the checkpoint's flush expires
  IngestPipeline pipeline(sink, ingest);

  const auto dir = std::filesystem::path(::testing::TempDir()) / "chaos_msg";
  std::filesystem::create_directories(dir);
  SnapshotStore store((dir / "ck").string());
  pipeline.AttachSnapshotStore(&store);

  pipeline.KillWorkerForTest(0);
  pipeline.KillWorkerForTest(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::vector<Record> records;
  for (ItemId i = 1; i <= 500; ++i) records.push_back({i, 0.0});
  pipeline.PushBatch(records);

  std::string error;
  EXPECT_FALSE(pipeline.Checkpoint(&error));
  EXPECT_NE(error.find("stalled"), std::string::npos) << error;
  EXPECT_NE(error.find("shard "), std::string::npos) << error;
  EXPECT_NE(error.find("queue_depth "), std::string::npos) << error;
  EXPECT_NE(error.find("drained "), std::string::npos) << error;
  pipeline.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ltc
