// The retry/backoff layer, asserted deterministically: BackoffSchedule
// delay sequences (growth, cap, seeded jitter), the RetryWithBackoff
// driver on a FakeClock, and the call site that opts in —
// SnapshotStore::Save against FailpointFs fault bursts, directly and
// under IngestPipeline::Checkpoint. No test here sleeps real time.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/backoff.h"
#include "common/clock.h"
#include "core/sharded_ltc.h"
#include "ingest/ingest_pipeline.h"
#include "snapshot/failpoint_fs.h"
#include "snapshot/snapshot_store.h"
#include "telemetry/metrics.h"

namespace ltc {
namespace {

TEST(BackoffSchedule, GrowsExponentiallyAndCaps) {
  BackoffPolicy policy;
  policy.initial_delay_usec = 1'000;
  policy.multiplier = 2.0;
  policy.max_delay_usec = 5'000;
  BackoffSchedule schedule(policy);
  EXPECT_EQ(schedule.NextDelayUsec(), 1'000u);
  EXPECT_EQ(schedule.NextDelayUsec(), 2'000u);
  EXPECT_EQ(schedule.NextDelayUsec(), 4'000u);
  EXPECT_EQ(schedule.NextDelayUsec(), 5'000u);  // capped
  EXPECT_EQ(schedule.NextDelayUsec(), 5'000u);  // stays capped
}

TEST(BackoffSchedule, MultiplierBelowOneIsClampedToConstant) {
  BackoffPolicy policy;
  policy.initial_delay_usec = 700;
  policy.multiplier = 0.5;
  BackoffSchedule schedule(policy);
  EXPECT_EQ(schedule.NextDelayUsec(), 700u);
  EXPECT_EQ(schedule.NextDelayUsec(), 700u);
}

TEST(BackoffSchedule, JitterIsSeededAndBounded) {
  BackoffPolicy policy;
  policy.initial_delay_usec = 1'000;
  policy.multiplier = 2.0;
  policy.max_delay_usec = 64'000;
  policy.jitter = 0.25;
  policy.seed = 42;

  BackoffSchedule a(policy), b(policy);
  double base = 1'000.0;
  for (int i = 0; i < 8; ++i) {
    const uint64_t delay = a.NextDelayUsec();
    // Same policy, same seed: bit-identical schedules.
    EXPECT_EQ(delay, b.NextDelayUsec()) << "step " << i;
    // Each delay stays inside [1 - j, 1 + j] of the unjittered base.
    EXPECT_GE(delay, static_cast<uint64_t>(base * 0.75) - 1) << "step " << i;
    EXPECT_LE(delay, static_cast<uint64_t>(base * 1.25) + 1) << "step " << i;
    EXPECT_LE(delay, policy.max_delay_usec);
    base = std::min(base * 2.0, 64'000.0);
  }

  // A different seed lands a different schedule.
  BackoffPolicy reseeded = policy;
  reseeded.seed = 43;
  BackoffSchedule c(policy), d(reseeded);
  bool any_difference = false;
  for (int i = 0; i < 8; ++i) {
    if (c.NextDelayUsec() != d.NextDelayUsec()) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(BackoffSchedule, ResetReplaysTheSchedule) {
  BackoffPolicy policy;
  policy.initial_delay_usec = 500;
  policy.jitter = 0.5;
  policy.seed = 7;
  BackoffSchedule schedule(policy);
  std::vector<uint64_t> first;
  for (int i = 0; i < 5; ++i) first.push_back(schedule.NextDelayUsec());
  schedule.Reset();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(schedule.NextDelayUsec(), first[i]) << "step " << i;
  }
}

TEST(RetryWithBackoff, FirstTrySuccessSleepsNever) {
  BackoffPolicy policy;
  policy.max_attempts = 5;
  FakeClock clock;
  uint64_t retries = 0;
  int calls = 0;
  EXPECT_TRUE(RetryWithBackoff(
      policy, clock, [&] { return ++calls > 0; }, &retries));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0u);
  EXPECT_TRUE(clock.sleeps_usec().empty());
}

TEST(RetryWithBackoff, SleepsTheScheduleBetweenFailures) {
  BackoffPolicy policy;
  policy.max_attempts = 4;
  policy.initial_delay_usec = 1'000;
  policy.multiplier = 2.0;
  FakeClock clock;
  uint64_t retries = 0;
  int calls = 0;
  // Fails twice, succeeds on the third attempt.
  EXPECT_TRUE(RetryWithBackoff(
      policy, clock, [&] { return ++calls >= 3; }, &retries));
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
  ASSERT_EQ(clock.sleeps_usec().size(), 2u);
  EXPECT_EQ(clock.sleeps_usec()[0], 1'000u);
  EXPECT_EQ(clock.sleeps_usec()[1], 2'000u);
}

TEST(RetryWithBackoff, ExhaustionReturnsFalseAfterMaxAttempts) {
  BackoffPolicy policy;
  policy.max_attempts = 3;
  policy.initial_delay_usec = 10;
  FakeClock clock;
  uint64_t retries = 0;
  int calls = 0;
  EXPECT_FALSE(RetryWithBackoff(
      policy, clock,
      [&] {
        ++calls;
        return false;
      },
      &retries));
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);  // re-attempts, not attempts
  EXPECT_EQ(clock.sleeps_usec().size(), 2u);
}

TEST(RetryWithBackoff, ZeroMaxAttemptsStillTriesOnce) {
  BackoffPolicy policy;
  policy.max_attempts = 0;
  FakeClock clock;
  int calls = 0;
  EXPECT_FALSE(RetryWithBackoff(policy, clock, [&] {
    ++calls;
    return false;
  }));
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(clock.sleeps_usec().empty());
}

// ------------------------------------------------------ SnapshotStore

class SnapshotRetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("backoff_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    base_ = (dir_ / "state").string();
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string base_;
};

TEST_F(SnapshotRetryTest, SaveOutlastsAWriteErrorBurst) {
  FailpointFs fs(SystemFs());
  SnapshotStoreConfig config;
  config.retry.max_attempts = 3;
  config.retry.initial_delay_usec = 1'000;
  config.retry.multiplier = 2.0;
  FakeClock clock;
  SnapshotStore store(base_, config, &fs, &clock);
  telemetry::MetricsRegistry registry;

  // A disk that stays broken for the first two writes: attempts 1 and 2
  // fail, attempt 3 lands the snapshot.
  fs.Arm(FailpointFs::Failure::kWriteError, 0, /*seed=*/0, /*burst=*/2);
  std::string error;
  const auto seq = store.Save("payload", &error);
  ASSERT_TRUE(seq.has_value()) << error;
  EXPECT_EQ(store.SaveRetries(), 2u);
  // The backoff slept the exact deterministic schedule.
  ASSERT_EQ(clock.sleeps_usec().size(), 2u);
  EXPECT_EQ(clock.sleeps_usec()[0], 1'000u);
  EXPECT_EQ(clock.sleeps_usec()[1], 2'000u);
  store.Collect(registry);
  EXPECT_EQ(registry
                .CounterOf("ltc_snapshot_save_retries_total", "")
                .Value(),
            2u);
  // And the snapshot is genuinely there.
  const auto recovered = store.LoadLatest(&error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_EQ(recovered->payload, "payload");
}

TEST_F(SnapshotRetryTest, DefaultPolicyStaysFailFast) {
  FailpointFs fs(SystemFs());
  FakeClock clock;
  SnapshotStore store(base_, {}, &fs, &clock);
  fs.Arm(FailpointFs::Failure::kWriteError, 0);
  std::string error;
  EXPECT_FALSE(store.Save("payload", &error).has_value());
  EXPECT_EQ(store.SaveRetries(), 0u);
  EXPECT_TRUE(clock.sleeps_usec().empty());
  // Nothing persisted, nothing retried: historical behaviour.
  EXPECT_TRUE(store.ListSnapshots().empty());
}

TEST_F(SnapshotRetryTest, ExhaustedRetriesStillFailTyped) {
  FailpointFs fs(SystemFs());
  SnapshotStoreConfig config;
  config.retry.max_attempts = 2;
  config.retry.initial_delay_usec = 50;
  FakeClock clock;
  SnapshotStore store(base_, config, &fs, &clock);
  fs.Arm(FailpointFs::Failure::kWriteError, 0, 0, /*burst=*/5);
  std::string error;
  EXPECT_FALSE(store.Save("payload", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(store.SaveRetries(), 1u);
  EXPECT_TRUE(store.ListSnapshots().empty());
}

// ------------------------------------------------- pipeline checkpoint

TEST_F(SnapshotRetryTest, CheckpointRetriesThroughTransientSaveFailure) {
  LtcConfig sketch_config;
  sketch_config.memory_bytes = 16 * 1024;
  ShardedLtc sink(sketch_config, 2);
  IngestPipeline pipeline(sink, {});

  // The store owns the checkpoint's retries: one flush, one serialize,
  // and the save re-attempted under the store's backoff.
  FakeClock clock;
  SnapshotStoreConfig store_config;
  store_config.retry.max_attempts = 3;
  store_config.retry.initial_delay_usec = 2'000;
  store_config.retry.multiplier = 2.0;
  FailpointFs fs(SystemFs());
  SnapshotStore store(base_, store_config, &fs, &clock);
  pipeline.AttachSnapshotStore(&store);

  std::vector<Record> records;
  for (ItemId i = 1; i <= 500; ++i) records.push_back({i, 0.001 * i});
  pipeline.PushBatch(records);

  // Two save attempts lose their write to the fault burst; the third
  // succeeds. The whole recovery happens under the store's backoff,
  // invisible to the caller except in the retry counter.
  fs.Arm(FailpointFs::Failure::kWriteError, 0, 0, /*burst=*/2);
  std::string error;
  ASSERT_TRUE(pipeline.Checkpoint(&error)) << error;
  EXPECT_EQ(pipeline.CheckpointsTaken(), 1u);
  EXPECT_EQ(pipeline.CheckpointFailures(), 0u);
  EXPECT_EQ(store.SaveRetries(), 2u);
  ASSERT_EQ(clock.sleeps_usec().size(), 2u);
  EXPECT_EQ(clock.sleeps_usec()[0], 2'000u);
  EXPECT_EQ(clock.sleeps_usec()[1], 4'000u);
  pipeline.Stop();

  EXPECT_EQ(store.ListSnapshots().size(), 1u);
}

TEST_F(SnapshotRetryTest, CheckpointDefaultStaysSingleAttempt) {
  LtcConfig sketch_config;
  sketch_config.memory_bytes = 16 * 1024;
  ShardedLtc sink(sketch_config, 2);
  IngestPipeline pipeline(sink, {});
  FailpointFs fs(SystemFs());
  SnapshotStore store(base_, {}, &fs);
  pipeline.AttachSnapshotStore(&store);
  pipeline.Push(7);

  fs.Arm(FailpointFs::Failure::kWriteError, 0);
  std::string error;
  EXPECT_FALSE(pipeline.Checkpoint(&error));
  EXPECT_EQ(pipeline.CheckpointFailures(), 1u);
  EXPECT_EQ(store.SaveRetries(), 0u);
  pipeline.Stop();
}

}  // namespace
}  // namespace ltc
