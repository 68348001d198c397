// IngestPipeline durability and robustness seams: checkpoints riding
// the Flush() barrier, the bounded-wait stall escape hatch
// (a dead worker surfaces as an error, never an infinite spin), the
// ShardStatsOf bounds contract, and the queue_depth race repair.

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded_ltc.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/spsc_ring.h"
#include "snapshot/snapshot_store.h"

namespace ltc {
namespace {

LtcConfig SmallConfig() {
  LtcConfig config;
  config.memory_bytes = 16 * 1024;
  return config;
}

std::vector<Record> MakeRecords(size_t n, uint64_t salt = 0) {
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.push_back({(i * 2654435761u + salt) % 997 + 1, 0.001 * i});
  }
  return records;
}

class IngestCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("ingest_ck_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    base_ = (dir_ / "pipeline.ck").string();
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string base_;
};

TEST_F(IngestCheckpointTest, ManualCheckpointMatchesSequentialState) {
  // A checkpoint taken mid-stream equals the state of the accepted
  // prefix: the Flush() barrier means no in-flight record is missing.
  const auto records = MakeRecords(4000);

  ShardedLtc sink(SmallConfig(), 2);
  IngestPipeline pipeline(sink, {});
  SnapshotStore store(base_);
  pipeline.AttachSnapshotStore(&store);
  pipeline.PushBatch({records.data(), 2000});
  std::string error;
  ASSERT_TRUE(pipeline.Checkpoint(&error)) << error;
  // Feeding continues after a checkpoint (workers never restarted).
  pipeline.PushBatch({records.data() + 2000, 2000});
  pipeline.Stop();
  EXPECT_EQ(pipeline.TotalEnqueued(), 4000u);
  EXPECT_EQ(pipeline.TotalDropped(), 0u);

  ShardedLtc reference(SmallConfig(), 2);
  reference.InsertBatch({records.data(), 2000});
  BinaryWriter expected;
  reference.Serialize(expected);

  const auto recovered = store.LoadLatest(&error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_EQ(recovered->payload, expected.data());
}

TEST_F(IngestCheckpointTest, CheckpointWithoutStoreIsATypedFailure) {
  ShardedLtc sink(SmallConfig(), 2);
  IngestPipeline pipeline(sink, {});
  std::string error;
  EXPECT_FALSE(pipeline.Checkpoint(&error));
  EXPECT_NE(error.find("no snapshot store"), std::string::npos) << error;
  EXPECT_EQ(pipeline.CheckpointFailures(), 1u);
  pipeline.Stop();
}

TEST_F(IngestCheckpointTest, StalledWorkerSurfacesInsteadOfWedging) {
  ShardedLtc sink(SmallConfig(), 2);
  IngestConfig config;
  config.ring_capacity = 64;
  config.stall_timeout_usec = 10'000;  // tiny bounded wait: fail fast
  IngestPipeline pipeline(sink, config);
  pipeline.SuspendWorkersForTest(true);  // "the worker thread died"

  // More records than the rings hold: the kBlock spin must give up.
  const auto records = MakeRecords(1000);
  pipeline.PushBatch(records);
  EXPECT_TRUE(pipeline.stalled());
  EXPECT_GT(pipeline.TotalDropped(), 0u);
  EXPECT_EQ(pipeline.TotalEnqueued() + pipeline.TotalDropped(),
            records.size());

  // Flush on a stalled pipeline reports failure, and a checkpoint
  // refuses to persist a state it cannot prove complete.
  EXPECT_FALSE(pipeline.Flush());
  SnapshotStore store(base_);
  pipeline.AttachSnapshotStore(&store);
  std::string error;
  EXPECT_FALSE(pipeline.Checkpoint(&error));
  EXPECT_NE(error.find("stalled"), std::string::npos) << error;
  EXPECT_TRUE(store.ListSnapshots().empty());

  // Revived workers drain the backlog; accepted records are never lost.
  pipeline.SuspendWorkersForTest(false);
  pipeline.Stop();
  uint64_t drained = 0;
  for (uint32_t s = 0; s < pipeline.num_shards(); ++s) {
    drained += pipeline.ShardStatsOf(s).drained;
  }
  EXPECT_EQ(drained, pipeline.TotalEnqueued());
}

TEST_F(IngestCheckpointTest, ShardStatsOfBoundsChecked) {
  ShardedLtc sink(SmallConfig(), 2);
  IngestPipeline pipeline(sink, {});
  (void)pipeline.ShardStatsOf(0);
  (void)pipeline.ShardStatsOf(1);
  EXPECT_THROW(pipeline.ShardStatsOf(2), std::out_of_range);
  EXPECT_THROW(pipeline.ShardStatsOf(1u << 31), std::out_of_range);
  pipeline.Stop();
}

TEST_F(IngestCheckpointTest, QueueDepthNeverExceedsCapacityOrUnderflows) {
  ShardedLtc sink(SmallConfig(), 2);
  IngestConfig config;
  config.ring_capacity = 64;
  config.stall_timeout_usec = 10'000;  // suspended lanes give up quickly
  IngestPipeline pipeline(sink, config);
  pipeline.SuspendWorkersForTest(true);
  const auto records = MakeRecords(500);
  pipeline.PushBatch(records);
  for (uint32_t s = 0; s < pipeline.num_shards(); ++s) {
    const auto stats = pipeline.ShardStatsOf(s);
    // A racy sample may be stale but can never be a wrapped-around
    // "billions" value (the pre-repair underflow) nor exceed capacity.
    EXPECT_LE(stats.queue_depth, stats.ring_capacity);
  }
  pipeline.SuspendWorkersForTest(false);
  pipeline.Stop();
}

TEST(SpscRingSize, SizeApproxStaysInRange) {
  SpscRing ring(8);
  EXPECT_EQ(ring.SizeApprox(), 0u);
  const Record record{1, 0.0};
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.TryPush(record));
  EXPECT_EQ(ring.SizeApprox(), 5u);
  Record out[3];
  ASSERT_EQ(ring.PopBatch(out, 3), 3u);
  EXPECT_EQ(ring.SizeApprox(), 2u);
  EXPECT_LE(ring.SizeApprox(), ring.capacity());
}

}  // namespace
}  // namespace ltc
