// Self-healing ingest under injected failure: the supervisor's worker
// lease protocol (restart-on-death, hang retirement), stall-latch
// healing and the Healthy → Degraded → Stalled health machine, overload
// shedding accounting, and the seeded end-to-end chaos run that drives
// kills, hangs and I/O fault bursts against a live pipeline and then
// proves the recovered state against the sequential oracle.
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

/// Fast supervisor for tests: ticks every 200us, declares a hang after
/// `hang_ticks` frozen ticks.
SupervisionConfig FastSupervision(uint64_t hang_ticks = 25) {
  SupervisionConfig supervision;
  supervision.interval_usec = 200;
#ifdef LTC_AUDIT
  // An audit build sweeps the whole table per insert, so a healthy
  // worker can show no progress for several milliseconds. Widen the
  // hang window so only a truly frozen worker (the hang seam) trips
  // it — retiring a live-but-slow worker would race its replacement.
  hang_ticks *= 50;
#endif
  supervision.hang_ticks = hang_ticks;
  return supervision;
}

// ------------------------------------------------------- worker death

TEST(ChaosSupervisor, RestartsDeadWorkerAndDrainsItsBacklog) {
  Stream stream = MakeZipfStream(20'000, 2'000, 1.0, 20, 211);
  LtcConfig config = TimePaced(stream, 16 * 1024);

  ShardedLtc sequential(config, 2);
  for (const Record& r : stream.records()) sequential.Insert(r.item, r.time);

  ShardedLtc piped(config, 2);
  IngestConfig ingest;
  ingest.supervision = FastSupervision();
  IngestPipeline pipeline(piped, ingest);

  // Kill both workers mid-stream, twice, while records keep flowing.
  std::span<const Record> records = stream.records();
  const size_t chunk = records.size() / 4;
  for (int part = 0; part < 4; ++part) {
    pipeline.PushBatch(records.subspan(part * chunk,
                                       part == 3 ? records.size() - 3 * chunk
                                                 : chunk));
    if (part < 2) {
      pipeline.KillWorkerForTest(0);
      pipeline.KillWorkerForTest(1);
      ASSERT_TRUE(WaitUntil([&] {
        return pipeline.WorkerRestarts() >= static_cast<uint64_t>(2 * (part + 1));
      })) << "supervisor never replaced the killed workers";
    }
  }
  EXPECT_TRUE(pipeline.Flush());
  pipeline.Stop();

  EXPECT_GE(pipeline.WorkerRestarts(), 4u);
  EXPECT_EQ(pipeline.TotalEnqueued(), stream.size());
  EXPECT_EQ(pipeline.TotalDropped(), 0u);
  // No record lost, none double-applied: bit-identical to sequential.
  EXPECT_EQ(Bytes(sequential), Bytes(piped));
  EXPECT_TRUE(piped.CheckInvariants());
}

TEST(ChaosSupervisor, DisabledSupervisionLeavesDeadWorkersDead) {
  ShardedLtc sink(TimePaced(MakeZipfStream(100, 50, 1.0, 2, 1), 8 * 1024), 1);
  IngestConfig ingest;
  ingest.supervision.enabled = false;
  ingest.stall_yield_limit = 2'000;
  IngestPipeline pipeline(sink, ingest);

  pipeline.KillWorkerForTest(0);
  // Give the worker a moment to exit, then queue records nobody drains.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::vector<Record> records;
  for (ItemId i = 1; i <= 100; ++i) records.push_back({i, 0.0});
  pipeline.PushBatch(records);

  EXPECT_FALSE(pipeline.Flush());  // bounded wait expires
  EXPECT_TRUE(pipeline.stalled());
  EXPECT_EQ(pipeline.health(), IngestHealth::kStalled);
  EXPECT_EQ(pipeline.WorkerRestarts(), 0u);

  // Stop() still applies every accepted record via its inline drain.
  pipeline.Stop();
  const auto stats = pipeline.ShardStatsOf(0);
  EXPECT_EQ(stats.drained, stats.enqueued);
}

// -------------------------------------------------------- worker hang

TEST(ChaosSupervisor, RetiresHungWorkerAndHandsRingToReplacement) {
  Stream stream = MakeZipfStream(10'000, 1'000, 1.0, 10, 223);
  LtcConfig config = TimePaced(stream, 16 * 1024);

  ShardedLtc sequential(config, 1);
  for (const Record& r : stream.records()) sequential.Insert(r.item, r.time);

  ShardedLtc piped(config, 1);
  IngestConfig ingest;
  ingest.ring_capacity = 1 << 14;
  ingest.supervision = FastSupervision(/*hang_ticks=*/10);
  IngestPipeline pipeline(piped, ingest);

  // Freeze generation 1 in the hang seam, then queue work behind it.
  std::span<const Record> records = stream.records();
  pipeline.HangWorkerForTest(0, true);
  pipeline.PushBatch(records.subspan(0, 4'000));
  ASSERT_TRUE(WaitUntil([&] { return pipeline.WorkerRestarts() >= 1; }))
      << "supervisor never retired the hung worker";

  // The replacement is the ring's sole consumer: it drains exactly the
  // backlog the hung generation left behind.
  pipeline.PushBatch(records.subspan(4'000));
  EXPECT_TRUE(pipeline.Flush());
  EXPECT_EQ(pipeline.TotalDropped(), 0u);

  // Releasing the zombie after retirement is harmless: its lease is
  // gone, so it exits without touching the ring.
  pipeline.HangWorkerForTest(0, false);
  pipeline.Stop();
  EXPECT_EQ(Bytes(sequential), Bytes(piped));
  EXPECT_TRUE(piped.CheckInvariants());
}

// ------------------------------------------- stall latch + health machine

TEST(ChaosSupervisor, StallLatchHealsOnceBacklogDrains) {
  ShardedLtc sink(TimePaced(MakeZipfStream(100, 50, 1.0, 2, 1), 8 * 1024), 1);
  IngestConfig ingest;
  ingest.ring_capacity = 64;
  ingest.stall_yield_limit = 2'000;  // latch fast
  ingest.supervision = FastSupervision(/*hang_ticks=*/25);
  IngestPipeline pipeline(sink, ingest);
  EXPECT_EQ(pipeline.health(), IngestHealth::kHealthy);

  // Hang the worker, then push more than the ring holds: the bounded
  // kBlock spin expires long before hang detection, so the stall
  // latches and the overflow is dropped (accounted, not lost silently).
  pipeline.HangWorkerForTest(0, true);
  std::vector<Record> records;
  for (ItemId i = 1; i <= 1'000; ++i) records.push_back({i, 0.0});
  pipeline.PushBatch(records);
  EXPECT_TRUE(pipeline.stalled());
  EXPECT_EQ(pipeline.health(), IngestHealth::kStalled);
  EXPECT_GT(pipeline.TotalDropped(), 0u);
  EXPECT_EQ(pipeline.TotalEnqueued() + pipeline.TotalDropped(),
            records.size());

  // The supervisor retires the hung generation, the replacement drains
  // the ring, and the latch clears: a stall is an incident, not a
  // permanent condition.
  ASSERT_TRUE(WaitUntil([&] { return !pipeline.stalled(); }))
      << "stall latch never healed";
  EXPECT_GE(pipeline.WorkerRestarts(), 1u);
  ASSERT_TRUE(WaitUntil(
      [&] { return pipeline.health() == IngestHealth::kHealthy; }))
      << "health never returned to healthy; health="
      << IngestHealthName(pipeline.health());

  // Post-heal the pipeline is fully usable: new pushes flush cleanly.
  pipeline.PushBatch({records.data(), 10});
  EXPECT_TRUE(pipeline.Flush());
  pipeline.HangWorkerForTest(0, false);
  pipeline.Stop();
  const auto stats = pipeline.ShardStatsOf(0);
  EXPECT_EQ(stats.drained, stats.enqueued);
}

// --------------------------------------------------- overload shedding

TEST(ChaosShedding, ActivatesUnderSustainedPressureAndRecovers) {
  ShardedLtc sink(TimePaced(MakeZipfStream(100, 50, 1.0, 2, 1), 8 * 1024), 1);
  IngestConfig ingest;
  ingest.ring_capacity = 64;
  ingest.shed.enabled = true;
  ingest.shed.high_watermark = 0.75;  // 48 of 64
  ingest.shed.low_watermark = 0.25;   // 16 of 64
  ingest.shed.sustain = 2;
  ingest.shed.admit_one_in = 4;
  IngestPipeline pipeline(sink, ingest);
  pipeline.SuspendWorkersForTest(true);  // paused-but-alive: no restarts

  const Record record{7, 0.0};
  std::vector<Record> fill(60, record);
  pipeline.PushBatch(fill);  // depth 60, observed pre-push depth was 0
  EXPECT_FALSE(pipeline.ShardStatsOf(0).shedding);

  // Two more pushes observe depth >= high watermark: shedding starts on
  // the second (sustain = 2), which is itself admitted probabilistically.
  uint64_t pushed = 60;
  while (!pipeline.ShardStatsOf(0).shedding) {
    pipeline.Push(record.item, record.time);
    ++pushed;
    ASSERT_LT(pushed, 70u) << "shedding never engaged";
  }
  EXPECT_EQ(pipeline.health(), IngestHealth::kDegraded);
  EXPECT_FALSE(pipeline.stalled());  // shedding is not a stall

  // While shedding, the producer never blocks and every record is
  // accounted: admitted (1 in 4, ring permitting) or counted shed.
  for (int i = 0; i < 40; ++i) {
    pipeline.Push(record.item, record.time);
    ++pushed;
  }
  EXPECT_GT(pipeline.TotalShed(), 0u);
  EXPECT_EQ(pipeline.TotalEnqueued() + pipeline.TotalDropped() +
                pipeline.TotalShed(),
            pushed);

  // Revive the workers; once the queue drains below the low watermark
  // for `sustain` observations, full admission returns.
  pipeline.SuspendWorkersForTest(false);
  ASSERT_TRUE(WaitUntil([&] {
    const auto stats = pipeline.ShardStatsOf(0);
    return stats.drained == stats.enqueued;
  }));
  while (pipeline.ShardStatsOf(0).shedding) {
    pipeline.Push(record.item, record.time);
    ++pushed;
    ASSERT_TRUE(WaitUntil([&] {
      const auto stats = pipeline.ShardStatsOf(0);
      return stats.drained == stats.enqueued;
    }));
  }
  EXPECT_EQ(pipeline.health(), IngestHealth::kHealthy);

  // Post-recovery pushes take the normal lossless path again.
  const uint64_t shed_before = pipeline.TotalShed();
  pipeline.Push(record.item, record.time);
  ++pushed;
  EXPECT_EQ(pipeline.TotalShed(), shed_before);
  EXPECT_TRUE(pipeline.Flush());
  pipeline.Stop();
  EXPECT_EQ(pipeline.TotalEnqueued() + pipeline.TotalDropped() +
                pipeline.TotalShed(),
            pushed);
}

TEST(ChaosShedding, MetricsExposeShedStateAndHealth) {
  ShardedLtc sink(TimePaced(MakeZipfStream(100, 50, 1.0, 2, 1), 8 * 1024), 1);
  IngestConfig ingest;
  ingest.ring_capacity = 64;
  ingest.shed.enabled = true;
  ingest.shed.sustain = 1;
  ingest.shed.high_watermark = 0.5;
  IngestPipeline pipeline(sink, ingest);
  telemetry::MetricsRegistry registry;
  pipeline.SuspendWorkersForTest(true);

  const Record record{3, 0.0};
  std::vector<Record> fill(48, record);
  pipeline.PushBatch(fill);
  while (!pipeline.ShardStatsOf(0).shedding) pipeline.Push(record.item);
  for (int i = 0; i < 10; ++i) pipeline.Push(record.item);
  pipeline.Collect(registry);

  const telemetry::Labels shard0{{"shard", "0"}};
  EXPECT_GT(registry.CounterOf("ltc_ingest_shed_records_total", "", shard0)
                .Value(),
            0u);
  EXPECT_EQ(registry.GaugeOf("ltc_ingest_shed_active", "", shard0).Value(),
            1.0);
  EXPECT_EQ(registry.GaugeOf("ltc_ingest_health_state", "").Value(),
            static_cast<double>(IngestHealth::kDegraded));
  pipeline.SuspendWorkersForTest(false);
  pipeline.Stop();
}

// ------------------------------------------------- end-to-end chaos run

// The acceptance run: a seeded ChaosInjector kills workers, hangs
// workers and arms I/O fault bursts while a real stream feeds through
// the pipeline with periodic checkpoints. Afterwards the pipeline must
// have healed itself (Healthy, stall latch clear), the final checkpoint
// must succeed through the backoff stack, and both the live sink and
// the recovered snapshot must match the sequential oracle exactly.
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
  ingest.supervision = FastSupervision(/*hang_ticks=*/25);
  // Generous checkpoint retries: mid-chaos attempts may meet a hang
  // (stalled flush) or an armed I/O burst; backoff outlasts both.
  ingest.checkpoint_retry.max_attempts = 5;
  ingest.checkpoint_retry.initial_delay_usec = 2'000;
  ingest.checkpoint_retry.max_delay_usec = 20'000;
  IngestPipeline pipeline(piped, ingest);
  telemetry::MetricsRegistry registry;

  FailpointFs fs(SystemFs());
  SnapshotStoreConfig store_config;
  store_config.retry.max_attempts = 3;
  store_config.retry.initial_delay_usec = 1'000;
  SnapshotStore store((dir / "state").string(), store_config, &fs);
  pipeline.AttachSnapshotStore(&store);

  ChaosConfig chaos_config;
  chaos_config.kill_probability = 0.15;
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
  EXPECT_GT(chaos.kills_injected() + chaos.hangs_injected(), 0u)
      << "seed injected no worker faults; the run proves nothing";

  // Let the wounds close: hangs released, dead workers replaced,
  // backlogs drained, stall latch cleared, cooldowns expired.
  chaos.ReleaseAll();
  ASSERT_TRUE(WaitUntil([&] {
    return !pipeline.stalled() &&
           pipeline.health() == IngestHealth::kHealthy;
  })) << "pipeline never healed; health="
      << IngestHealthName(pipeline.health());

  // The final checkpoint must land, through retries if need be.
  fs.Arm(FailpointFs::Failure::kWriteError, fs.mutating_ops(), 0,
         /*burst=*/1);  // one last transient fault for the backoff stack
  std::string error;
  ASSERT_TRUE(pipeline.Checkpoint(&error)) << error;
  EXPECT_GE(pipeline.CheckpointsTaken(), 1u);
  ASSERT_TRUE(pipeline.Flush());
  pipeline.Collect(registry);
  pipeline.Stop();

  // Self-healing was exercised and is visible in the counters.
  EXPECT_GE(pipeline.WorkerRestarts(), 1u);
  EXPECT_EQ(registry.GaugeOf("ltc_ingest_health_state", "").Value(),
            static_cast<double>(IngestHealth::kHealthy));

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
  ingest.stall_yield_limit = 2'000;
  ingest.supervision.enabled = false;  // keep the stall latched
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
