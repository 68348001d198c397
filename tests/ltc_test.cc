// Unit tests for the LTC core: insertion cases, Significance Decrementing,
// the modified CLOCK, the Deviation Eliminator, Long-tail Replacement, and
// the no-overestimation guarantee (Theorem IV.1).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/bob_hash.h"
#include "common/crc32.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/ltc.h"
#include "core/sharded_ltc.h"
#include "metrics/ground_truth.h"
#include "stream/generators.h"

namespace ltc {
namespace {

// A single-bucket table: memory for exactly w=1, d cells.
LtcConfig OneBucket(uint32_t d, uint64_t items_per_period = 1'000'000) {
  LtcConfig config;
  config.memory_bytes = LtcConfig::BytesPerCell() * d;
  config.cells_per_bucket = d;
  config.items_per_period = items_per_period;
  return config;
}

TEST(Ltc, GeometryFromMemoryBudget) {
  LtcConfig config;
  config.memory_bytes = 64 * 1024;
  config.cells_per_bucket = 8;
  Ltc table(config);
  EXPECT_EQ(table.num_buckets(), 64u * 1024 / (16 * 8));
  EXPECT_EQ(table.num_cells(), table.num_buckets() * 8u);
  EXPECT_EQ(table.MemoryBytes(), table.num_cells() * 16);

  // A budget below one bucket still yields one bucket.
  LtcConfig tiny;
  tiny.memory_bytes = 1;
  Ltc small(tiny);
  EXPECT_EQ(small.num_buckets(), 1u);
}

TEST(Ltc, Case1IncrementsTrackedItem) {
  Ltc table(OneBucket(4));
  table.Insert(7);
  table.Insert(7);
  table.Insert(7);
  table.Finalize();
  EXPECT_EQ(table.EstimateFrequency(7), 3u);
  EXPECT_TRUE(table.IsTracked(7));
}

TEST(Ltc, Case2FillsEmptyCells) {
  Ltc table(OneBucket(3));
  table.Insert(1);
  table.Insert(2);
  table.Insert(3);
  table.Finalize();
  for (ItemId item : {1, 2, 3}) {
    EXPECT_EQ(table.EstimateFrequency(item), 1u);
    EXPECT_EQ(table.EstimatePersistency(item), 1u);  // one period seen
  }
}

TEST(Ltc, Case3DecrementsSmallestWithoutAdmitting) {
  LtcConfig config = OneBucket(2);
  config.beta = 0.0;  // significance = frequency: easiest to reason about
  Ltc table(config);
  for (int i = 0; i < 5; ++i) table.Insert(1);
  for (int i = 0; i < 2; ++i) table.Insert(2);
  // Bucket full: a single arrival of 3 decrements item 2 (5 vs 2), is NOT
  // admitted, and leaves item 2 tracked at 1.
  table.Insert(3);
  EXPECT_FALSE(table.IsTracked(3));
  EXPECT_EQ(table.EstimateFrequency(2), 1u);
  EXPECT_EQ(table.EstimateFrequency(1), 5u);
}

TEST(Ltc, Case3ExpelsAtZeroAndAdmitsNewcomer) {
  LtcConfig config = OneBucket(2);
  config.beta = 0.0;
  config.long_tail_replacement = false;  // basic init: (1, 0)
  Ltc table(config);
  for (int i = 0; i < 5; ++i) table.Insert(1);
  for (int i = 0; i < 2; ++i) table.Insert(2);
  table.Insert(3);  // item2 -> 1
  table.Insert(3);  // item2 -> 0: expelled; 3 admitted with freq 1
  EXPECT_FALSE(table.IsTracked(2));
  EXPECT_TRUE(table.IsTracked(3));
  EXPECT_EQ(table.EstimateFrequency(3), 1u);
}

TEST(Ltc, LongTailReplacementInitializesToSecondSmallestMinusOne) {
  LtcConfig config = OneBucket(2);
  config.beta = 0.0;
  config.long_tail_replacement = true;
  Ltc table(config);
  for (int i = 0; i < 10; ++i) table.Insert(1);  // freq 10
  for (int i = 0; i < 5; ++i) table.Insert(2);   // freq 5
  // Five arrivals of 3 decrement item2 to 0; LTR restores the newcomer at
  // the (remaining) second-smallest frequency 10, minus 1.
  for (int i = 0; i < 5; ++i) table.Insert(3);
  EXPECT_FALSE(table.IsTracked(2));
  EXPECT_TRUE(table.IsTracked(3));
  EXPECT_EQ(table.EstimateFrequency(3), 9u);
}

TEST(Ltc, MinPlusOnePolicyReplacesWithoutDecrementing) {
  // The Space-Saving strategy the paper argues against (§I): a single
  // arrival into a full bucket immediately replaces the minimum at
  // f_min + 1 — prompt adoption, large overestimation.
  LtcConfig config = OneBucket(2);
  config.beta = 0.0;
  config.init_policy = InitPolicy::kMinPlusOne;
  Ltc table(config);
  for (int i = 0; i < 9; ++i) table.Insert(1);
  for (int i = 0; i < 5; ++i) table.Insert(2);
  table.Insert(3);  // ONE arrival: takes over item 2's cell at 5+1
  EXPECT_FALSE(table.IsTracked(2));
  EXPECT_TRUE(table.IsTracked(3));
  EXPECT_EQ(table.EstimateFrequency(3), 6u);  // overestimates (truth: 1)
  EXPECT_EQ(table.EstimateFrequency(1), 9u);
}

TEST(Ltc, EffectiveInitPolicyResolution) {
  LtcConfig config;
  EXPECT_EQ(config.EffectiveInitPolicy(), InitPolicy::kLongTail);
  config.long_tail_replacement = false;
  EXPECT_EQ(config.EffectiveInitPolicy(), InitPolicy::kOne);
  config.long_tail_replacement = true;
  config.init_policy = InitPolicy::kMinPlusOne;
  EXPECT_EQ(config.EffectiveInitPolicy(), InitPolicy::kMinPlusOne);
}

TEST(Ltc, LongTailReplacementFallsBackWithoutNeighbours) {
  // d=1: no second-smallest exists; the newcomer starts at (1, 0).
  LtcConfig config = OneBucket(1);
  config.beta = 0.0;
  Ltc table(config);
  for (int i = 0; i < 3; ++i) table.Insert(1);
  // Three arrivals of 2: decrement 1 to 0, then admit at init (1, 0).
  for (int i = 0; i < 3; ++i) table.Insert(2);
  EXPECT_TRUE(table.IsTracked(2));
  EXPECT_EQ(table.EstimateFrequency(2), 1u);
}

TEST(Ltc, PersistencyCountsPeriodsNotArrivals) {
  // Item X appears 5 times in every one of 10 periods: persistency must be
  // 10, not 50 (the modified CLOCK's whole point, §III-B).
  LtcConfig config = OneBucket(4, /*items_per_period=*/5);
  Ltc table(config);
  for (int period = 0; period < 10; ++period) {
    for (int i = 0; i < 5; ++i) table.Insert(99);
  }
  table.Finalize();
  EXPECT_EQ(table.EstimateFrequency(99), 50u);
  EXPECT_EQ(table.EstimatePersistency(99), 10u);
}

TEST(Ltc, PersistencySkipsAbsentPeriods) {
  // One arrival of X per EVEN period; odd periods carry dummies.
  LtcConfig config = OneBucket(4, /*items_per_period=*/2);
  Ltc table(config);
  for (int period = 0; period < 10; ++period) {
    if (period % 2 == 0) {
      table.Insert(99);
    } else {
      table.Insert(50);
    }
    table.Insert(60);  // filler completing each period
  }
  table.Finalize();
  EXPECT_EQ(table.EstimatePersistency(99), 5u);
  EXPECT_EQ(table.EstimateFrequency(99), 5u);
}

TEST(Ltc, DeviationEliminatorFixesStraddlingArrivals) {
  // Fig. 4's failure: two arrivals in ONE period straddling the cell's
  // scan moment are double-counted by the basic single-flag scheme; the
  // even/odd flags count them once.
  auto run = [](bool deviation_eliminator) {
    LtcConfig config = OneBucket(4, /*items_per_period=*/4);
    config.deviation_eliminator = deviation_eliminator;
    config.long_tail_replacement = false;
    Ltc table(config);
    // Period 0: X enters cell 0 (plus 3 dummies filling the bucket).
    table.Insert(11);
    table.Insert(21);
    table.Insert(22);
    table.Insert(23);
    // Period 1: X as 1st arrival (before cell 0's sweep slot has passed
    // far) and again as 4th arrival (after it) — one period, two arrivals.
    table.Insert(11);
    table.Insert(21);
    table.Insert(22);
    table.Insert(11);
    // Period 2: dummies only, letting the sweep collect X's flags.
    table.Insert(21);
    table.Insert(22);
    table.Insert(21);
    table.Insert(22);
    table.Finalize();
    return table.EstimatePersistency(11);
  };

  uint64_t with_de = run(true);
  uint64_t without_de = run(false);
  EXPECT_EQ(with_de, 2u);       // truth: X appeared in periods 0 and 1
  EXPECT_GT(without_de, 2u);    // basic double-counts the straddle
}

TEST(Ltc, FinalizeCreditsPendingFlags) {
  LtcConfig config = OneBucket(4, /*items_per_period=*/100);
  Ltc table(config);
  table.Insert(5);
  // Mid-period: the flag is set but not yet swept.
  EXPECT_EQ(table.EstimatePersistency(5), 0u);
  table.Finalize();
  EXPECT_EQ(table.EstimatePersistency(5), 1u);
}

TEST(Ltc, NoOverestimationWithoutLtr) {
  // Theorem IV.1: with the Deviation Eliminator and basic initialization,
  // ŝ <= s for every tracked item. Checked on a messy random workload.
  WorkloadConfig wl;
  wl.num_records = 60'000;
  wl.num_distinct = 3'000;
  wl.zipf_gamma = 1.0;
  wl.num_periods = 40;
  wl.seed = 21;
  Stream stream = GenerateWorkload(wl);
  GroundTruth truth = GroundTruth::Compute(stream);

  LtcConfig config;
  config.memory_bytes = 8 * 1024;
  config.long_tail_replacement = false;
  config.deviation_eliminator = true;
  config.period_mode = PeriodMode::kTimeBased;
  config.period_seconds = stream.duration() / stream.num_periods();
  Ltc table(config);
  for (const Record& r : stream.records()) table.Insert(r.item, r.time);
  table.Finalize();

  for (const auto& report : table.TopK(table.num_cells())) {
    uint64_t f = truth.Frequency(report.item);
    uint64_t p = truth.Persistency(report.item);
    ASSERT_LE(report.frequency, f) << "item " << report.item;
    ASSERT_LE(report.persistency, p) << "item " << report.item;
    ASSERT_LE(report.significance,
              truth.Significance(report.item, config.alpha, config.beta) +
                  1e-9);
  }
}

TEST(Ltc, PersistencyNeverExceedsPeriodCount) {
  WorkloadConfig wl;
  wl.num_records = 30'000;
  wl.num_distinct = 1'000;
  wl.num_periods = 25;
  wl.seed = 22;
  Stream stream = GenerateWorkload(wl);

  LtcConfig config;
  config.memory_bytes = 4 * 1024;
  config.period_mode = PeriodMode::kTimeBased;
  config.period_seconds = stream.duration() / stream.num_periods();
  Ltc table(config);
  for (const Record& r : stream.records()) table.Insert(r.item, r.time);
  table.Finalize();
  for (const auto& report : table.TopK(table.num_cells())) {
    ASSERT_LE(report.persistency, stream.num_periods());
  }
}

TEST(Ltc, CountAndTimePacingAgreeOnUniformStream) {
  // On an index-timestamped stream the two pacing modes see identical
  // arrival patterns; with β=0 the table contents must match exactly.
  Stream stream = MakeZipfStream(20'000, 2'000, 1.0, 20, 23);

  LtcConfig count_config;
  count_config.memory_bytes = 4 * 1024;
  count_config.beta = 0.0;
  count_config.period_mode = PeriodMode::kCountBased;
  count_config.items_per_period = stream.size() / stream.num_periods();

  LtcConfig time_config = count_config;
  time_config.period_mode = PeriodMode::kTimeBased;
  time_config.period_seconds = stream.duration() / stream.num_periods();

  Ltc by_count(count_config);
  Ltc by_time(time_config);
  for (const Record& r : stream.records()) {
    by_count.Insert(r.item, r.time);
    by_time.Insert(r.item, r.time);
  }
  by_count.Finalize();
  by_time.Finalize();

  auto a = by_count.TopK(100);
  auto b = by_time.TopK(100);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "rank " << i;
    EXPECT_EQ(a[i].frequency, b[i].frequency);
    // Persistency sweeps may differ by one slot's rounding.
    EXPECT_NEAR(static_cast<double>(a[i].persistency),
                static_cast<double>(b[i].persistency), 1.0);
  }
}

TEST(Ltc, TimeBasedHandlesEmptyPeriodsAndGaps) {
  LtcConfig config = OneBucket(4);
  config.period_mode = PeriodMode::kTimeBased;
  config.period_seconds = 1.0;
  Ltc table(config);
  table.Insert(7, 0.5);
  table.Insert(7, 10.5);  // nine empty periods in between
  table.Finalize();
  EXPECT_EQ(table.EstimatePersistency(7), 2u);
  EXPECT_EQ(table.current_period(), 10u);
  EXPECT_TRUE(table.CheckInvariants());
}

TEST(Ltc, SnapshotTopKCreditsPendingFlagsWithoutMutating) {
  LtcConfig config = OneBucket(4, /*items_per_period=*/100);
  Ltc table(config);
  table.Insert(5);
  table.Insert(5);

  // Mid-period: the committed counter is still 0, but the snapshot
  // credits the pending flag.
  EXPECT_EQ(table.EstimatePersistency(5), 0u);
  auto snapshot = table.SnapshotTopK(1);
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].persistency, 1u);
  EXPECT_EQ(snapshot[0].frequency, 2u);

  // Non-destructive: the committed state is untouched, and Finalize
  // agrees with what the snapshot predicted.
  EXPECT_EQ(table.EstimatePersistency(5), 0u);
  table.Finalize();
  auto final = table.TopK(1);
  ASSERT_EQ(final.size(), 1u);
  EXPECT_EQ(final[0].persistency, snapshot[0].persistency);
  EXPECT_EQ(final[0].significance, snapshot[0].significance);
}

TEST(Ltc, ItemsAboveThreshold) {
  LtcConfig config = OneBucket(4);
  config.beta = 0.0;
  Ltc table(config);
  for (int i = 0; i < 9; ++i) table.Insert(1);
  for (int i = 0; i < 5; ++i) table.Insert(2);
  for (int i = 0; i < 2; ++i) table.Insert(3);
  table.Finalize();

  auto heavy = table.ItemsAbove(5.0);
  ASSERT_EQ(heavy.size(), 2u);
  EXPECT_EQ(heavy[0].item, 1u);
  EXPECT_EQ(heavy[1].item, 2u);
  EXPECT_TRUE(table.ItemsAbove(100.0).empty());
  EXPECT_EQ(table.ItemsAbove(0.0).size(), 3u);  // everything tracked
}

TEST(Ltc, ComputeStatsTracksOccupancy) {
  LtcConfig config = OneBucket(4);
  Ltc table(config);
  auto empty = table.ComputeStats();
  EXPECT_EQ(empty.occupied_cells, 0u);
  EXPECT_EQ(empty.empty_cells, 4u);
  EXPECT_EQ(empty.full_buckets, 0u);
  EXPECT_EQ(empty.occupancy, 0.0);

  for (int i = 0; i < 5; ++i) table.Insert(1);
  table.Insert(2);
  auto partial = table.ComputeStats();
  EXPECT_EQ(partial.occupied_cells, 2u);
  EXPECT_EQ(partial.full_buckets, 0u);
  EXPECT_EQ(partial.max_frequency, 5u);
  EXPECT_DOUBLE_EQ(partial.occupancy, 0.5);
  EXPECT_GT(partial.avg_significance, 0.0);

  table.Insert(3);
  table.Insert(4);
  auto full = table.ComputeStats();
  EXPECT_EQ(full.occupied_cells, 4u);
  EXPECT_EQ(full.full_buckets, 1u);
  EXPECT_DOUBLE_EQ(full.occupancy, 1.0);
}

TEST(Ltc, ComputeStatsEmptyTableHasNoNan) {
  Ltc table(OneBucket(4));
  auto stats = table.ComputeStats();
  EXPECT_EQ(stats.occupied_cells, 0u);
  EXPECT_FALSE(std::isnan(stats.occupancy));
  EXPECT_FALSE(std::isnan(stats.avg_significance));
  EXPECT_EQ(stats.occupancy, 0.0);
  EXPECT_EQ(stats.avg_significance, 0.0);
}

TEST(Ltc, QueryUntrackedReturnsZero) {
  Ltc table(OneBucket(4));
  table.Insert(1);
  EXPECT_EQ(table.QuerySignificance(404), 0.0);
  EXPECT_EQ(table.EstimateFrequency(404), 0u);
  EXPECT_EQ(table.EstimatePersistency(404), 0u);
  EXPECT_FALSE(table.IsTracked(404));
}

TEST(Ltc, TopKSortedAndTruncated) {
  LtcConfig config = OneBucket(4);
  config.beta = 0.0;
  Ltc table(config);
  for (int i = 0; i < 9; ++i) table.Insert(1);
  for (int i = 0; i < 5; ++i) table.Insert(2);
  for (int i = 0; i < 2; ++i) table.Insert(3);
  table.Finalize();
  auto top2 = table.TopK(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].item, 1u);
  EXPECT_EQ(top2[1].item, 2u);
  EXPECT_GE(top2[0].significance, top2[1].significance);
  EXPECT_EQ(table.TopK(100).size(), 3u);
}

TEST(Ltc, AlphaBetaWeightSignificance) {
  LtcConfig config = OneBucket(4, /*items_per_period=*/2);
  config.alpha = 1.0;
  config.beta = 10.0;
  Ltc table(config);
  // Item 1: frequent but one period. Item 2: one arrival per period.
  for (int i = 0; i < 2; ++i) table.Insert(1);
  for (int p = 0; p < 6; ++p) {
    table.Insert(2);
    table.Insert(3);
  }
  table.Finalize();
  // s(1) = 2 + 10·1 = 12; s(2) = 6 + 10·6 = 66: persistency dominates.
  EXPECT_GT(table.QuerySignificance(2), table.QuerySignificance(1));
  auto top = table.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].item, 2u);
}

TEST(Ltc, TopKTieBreakIsDeterministic) {
  LtcConfig config = OneBucket(4);
  config.beta = 0.0;
  Ltc table(config);
  // Three items, equal frequency: ordering must be by ascending ID.
  for (ItemId id : {30, 10, 20}) {
    table.Insert(id);
    table.Insert(id);
  }
  table.Finalize();
  auto top = table.TopK(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].item, 10u);
  EXPECT_EQ(top[1].item, 20u);
  EXPECT_EQ(top[2].item, 30u);
}

// TopK selects with std::partial_sort when k is below the number of
// occupied cells. With α = β = 1 and light traffic most significances
// tie, so the item-ID tiebreak decides the order, and every k must give
// exactly the first k entries of the full sort.
void ExpectTopKIsTheFullSortPrefix(const SignificanceEstimator& table) {
  std::vector<SignificanceReport> full = table.TopK(SIZE_MAX);
  std::vector<SignificanceReport> resorted = full;
  std::reverse(resorted.begin(), resorted.end());
  std::sort(resorted.begin(), resorted.end(),
            [](const SignificanceReport& a, const SignificanceReport& b) {
              return a.significance != b.significance
                         ? a.significance > b.significance
                         : a.item < b.item;
            });
  const size_t m = full.size();
  ASSERT_GT(m, 100u);
  size_t ties = 0;
  for (size_t i = 0; i < m; ++i) {
    ASSERT_EQ(full[i].item, resorted[i].item) << "rank " << i;
    if (i > 0 && full[i].significance == full[i - 1].significance) ++ties;
  }
  EXPECT_GT(ties, m / 2) << "the id tiebreak should decide most ranks";
  for (size_t k : {size_t{0}, size_t{1}, size_t{100}, m - 1, m, m + 5}) {
    const std::vector<SignificanceReport> top = table.TopK(k);
    ASSERT_EQ(top.size(), std::min(k, m)) << "k=" << k;
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].item, full[i].item) << "k=" << k << " rank " << i;
      EXPECT_EQ(top[i].frequency, full[i].frequency);
      EXPECT_EQ(top[i].persistency, full[i].persistency);
      EXPECT_EQ(top[i].significance, full[i].significance);
    }
  }
}

TEST(Ltc, TopKSelectionEqualsTheFullSortPrefix) {
  LtcConfig config;
  config.memory_bytes = 16 * 1024;
  config.alpha = 1.0;
  config.beta = 1.0;
  config.items_per_period = 500;
  Ltc table(config);
  ShardedLtc sharded(config, 4);
  Rng rng(2019);
  for (int i = 0; i < 3'000; ++i) {
    const ItemId item = 1 + rng.Uniform(rng.Bernoulli(0.2) ? 40 : 2'000);
    table.Insert(item);
    sharded.Insert(item);
  }
  table.Finalize();
  sharded.Finalize();
  ExpectTopKIsTheFullSortPrefix(table);
  ExpectTopKIsTheFullSortPrefix(sharded);
}

TEST(Ltc, MinPlusOnePolicyOverestimatesUnderChurn) {
  // Statistical companion to the unit case: on a Zipf stream the SS-style
  // policy's reports routinely exceed the truth, while kOne's never do.
  Stream stream = MakeZipfStream(30'000, 3'000, 1.0, 30, 41);
  GroundTruth truth = GroundTruth::Compute(stream);

  LtcConfig config;
  config.memory_bytes = 4 * 1024;
  config.beta = 0.0;
  config.init_policy = InitPolicy::kMinPlusOne;
  config.period_mode = PeriodMode::kTimeBased;
  config.period_seconds = stream.duration() / stream.num_periods();
  Ltc table(config);
  for (const Record& r : stream.records()) table.Insert(r.item, r.time);
  table.Finalize();

  size_t overestimates = 0;
  for (const auto& report : table.TopK(table.num_cells())) {
    if (report.frequency > truth.Frequency(report.item)) ++overestimates;
  }
  EXPECT_GT(overestimates, 10u);
}

TEST(Ltc, SerializeAfterFinalizeRoundTrips) {
  LtcConfig config = OneBucket(4, /*items_per_period=*/3);
  Ltc table(config);
  for (int p = 0; p < 4; ++p) {
    table.Insert(1);
    table.Insert(2);
    table.Insert(1);
  }
  table.Finalize();
  BinaryWriter writer;
  table.Serialize(writer);
  BinaryReader reader(writer.data());
  auto restored = Ltc::Deserialize(reader);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->EstimateFrequency(1), table.EstimateFrequency(1));
  EXPECT_EQ(restored->EstimatePersistency(1),
            table.EstimatePersistency(1));
}

TEST(Ltc, InvariantsHoldThroughRandomChurn) {
  Rng rng(29);
  LtcConfig config;
  config.memory_bytes = 2 * 1024;
  config.items_per_period = 500;
  Ltc table(config);
  for (int i = 0; i < 50'000; ++i) {
    table.Insert(rng.Uniform(2'000) + 1);
    if (i % 5'000 == 0) {
      ASSERT_TRUE(table.CheckInvariants()) << "step " << i;
    }
  }
  table.Finalize();
  EXPECT_TRUE(table.CheckInvariants());
}

TEST(Ltc, PersistentOnlyModeTracksPersistentItems) {
  // α=0, β=1: a persistent drizzle must beat a one-period flood.
  LtcConfig config;
  config.memory_bytes = 4 * 1024;
  config.alpha = 0.0;
  config.beta = 1.0;
  config.items_per_period = 100;
  Ltc table(config);
  Rng rng(31);
  for (int period = 0; period < 50; ++period) {
    table.Insert(777);  // every period
    if (period == 10) {
      for (int i = 0; i < 99; ++i) table.Insert(888);  // one-period burst
    } else {
      for (int i = 0; i < 99; ++i) table.Insert(rng.Uniform(5'000) + 1);
    }
  }
  table.Finalize();
  EXPECT_GT(table.QuerySignificance(777), table.QuerySignificance(888));
}

// --- The ranked refold ------------------------------------------------

std::string Bytes(const Ltc& table) {
  BinaryWriter writer;
  table.Serialize(writer);
  return writer.data();
}

/// The fold RefoldPush must reproduce: MergeFrom over `sources`, in
/// order, into a fresh table.
std::string MergeFromFold(const LtcConfig& config,
                          const std::vector<Ltc>& sources) {
  Ltc fold(config);
  for (const Ltc& source : sources) EXPECT_TRUE(fold.MergeFrom(source));
  return Bytes(fold);
}

/// `sources` as the fold's inputs, source s with rank lane ranks[s] and
/// tag slot s.
std::vector<Ltc::RankedSource> Ranked(
    std::vector<Ltc>& sources, std::vector<std::vector<uint32_t>>& ranks) {
  std::vector<Ltc::RankedSource> list;
  for (size_t s = 0; s < sources.size(); ++s) {
    list.push_back({&sources[s], ranks[s], static_cast<uint8_t>(s)});
  }
  return list;
}

/// Folds `sources` into the empty `fold` as the aggregator folds new
/// nodes: one RefoldPush per source, in order, over every bucket, with
/// that source as the pusher and its table already holding its cells.
/// Leaves each source's rank lane in `ranks`. Returns the last call's
/// count, which lists every bucket and so counts every step of the
/// MergeFrom fold over `sources` that added a shared ID.
uint64_t FoldNewSources(Ltc& fold, Ltc::FoldState& state,
                        std::vector<Ltc>& sources,
                        std::vector<std::vector<uint32_t>>& ranks) {
  std::vector<uint32_t> all(fold.num_buckets());
  std::iota(all.begin(), all.end(), 0u);
  ranks.assign(sources.size(), std::vector<uint32_t>(fold.num_cells()));
  const std::vector<Ltc::RankedSource> list = Ranked(sources, ranks);
  uint64_t matched = 0;
  for (size_t s = 0; s < sources.size(); ++s) {
    matched = fold.RefoldPush(std::span(list).first(s + 1), all, &state, s,
                              {&sources[s], ranks[s]}, {});
  }
  return matched;
}

TEST(Ltc, RankedRefoldOfABucketListEqualsTheMergeFromFold) {
  // d = 300 > 255 pins the rank lane wider than a byte.
  for (uint32_t d : {1u, 8u, 32u, 300u}) {
    for (bool ltr : {true, false}) {
      for (bool partitioned : {true, false}) {
        SCOPED_TRACE(testing::Message() << "d=" << d << " ltr=" << ltr
                                        << " partitioned=" << partitioned);
        LtcConfig config;
        config.cells_per_bucket = d;
        // max(64, d) cells: several buckets at small d, and one at
        // d = 300, which the audit build's per-insert O(w·d²) sweep
        // can afford.
        const uint32_t cells = std::max(64u, d);
        config.memory_bytes = cells * LtcConfig::BytesPerCell();
        config.items_per_period = 500;
        config.long_tail_replacement = ltr;
        Rng rng(d * 4 + (ltr ? 2 : 0) + (partitioned ? 1 : 0));
        // Each source is a finalized image of a live stream, as a node
        // pushes it: a finalized table takes no further inserts.
        std::vector<Ltc> live(3, Ltc(config));
        // More distinct items than cells, a few of them hot: every
        // bucket fills.
        const auto feed = [&](size_t s, uint64_t records) {
          for (uint64_t r = 0; r < records; ++r) {
            const ItemId item =
                1 + rng.Uniform(rng.Bernoulli(0.3) ? cells / 4 : 2 * cells);
            // Partitioned ids interleave across sources, so id
            // tie-breaks between runs go either way.
            live[s].Insert(partitioned ? item * 3 + s : item);
          }
        };
        const auto image_of = [&](size_t s) {
          Ltc image = live[s].CloneAtBarrier();
          image.Finalize();
          return image;
        };
        std::vector<Ltc> sources;
        for (size_t s = 0; s < live.size(); ++s) {
          feed(s, 3 * cells);
          sources.push_back(image_of(s));
        }

        Ltc fold(config);
        Ltc::FoldState state(fold);
        std::vector<std::vector<uint32_t>> ranks;
        const uint64_t matched = FoldNewSources(fold, state, sources, ranks);
        EXPECT_EQ(Bytes(fold), MergeFromFold(config, sources));
        EXPECT_TRUE(fold.CheckInvariants());
        // Disjoint items never share an ID; overlapping ones do.
        if (partitioned) {
          EXPECT_EQ(matched, 0u);
        } else {
          EXPECT_GT(matched, 0u);
        }

        // The middle source moves on and pushes its new image: refold
        // and re-rank only the buckets it changed.
        feed(1, 4);
        const std::string image = Bytes(image_of(1));
        std::vector<uint32_t> changed;
        ASSERT_EQ(sources[1].CheckImage(image, changed),
                  Ltc::ImageUpdate::kUpdated);
        ASSERT_FALSE(changed.empty());
        fold.RefoldPush(Ranked(sources, ranks), changed, &state, 1,
                        {&sources[1], ranks[1]}, image);
        EXPECT_EQ(Bytes(fold), MergeFromFold(config, sources));
      }
    }
  }
}

/// FoldNewSources over copies of `sources`, into the empty `fold`.
uint64_t RefoldAll(Ltc& fold, std::vector<Ltc> sources) {
  Ltc::FoldState state(fold);
  std::vector<std::vector<uint32_t>> ranks;
  return FoldNewSources(fold, state, sources, ranks);
}

TEST(Ltc, RankedRefoldOfIdsSharedAcrossSourcesEqualsTheMergeFromFold) {
  LtcConfig config = OneBucket(2);
  config.beta = 0.0;  // significance = frequency
  const auto source = [&](std::vector<std::pair<ItemId, int>> items) {
    Ltc table(config);
    for (auto [item, times] : items) {
      for (int i = 0; i < times; ++i) table.Insert(item);
    }
    table.Finalize();
    return table;
  };
  {
    SCOPED_TRACE("shared by sources 0 and 2, dropped by source 1");
    // After sources 0 and 1 the running top-2 is {2, 3}: item 100 is
    // gone, so source 2 brings it back alone and no step matches.
    const std::vector<Ltc> sources = {source({{100, 1}, {1, 5}}),
                                      source({{2, 10}, {3, 9}}),
                                      source({{100, 20}, {4, 2}})};
    Ltc fold(config);
    EXPECT_EQ(RefoldAll(fold, sources), 0u);
    EXPECT_EQ(Bytes(fold), MergeFromFold(config, sources));
    EXPECT_EQ(fold.EstimateFrequency(100), 20u);
  }
  {
    SCOPED_TRACE("shared by sources 0 and 2, kept by source 1");
    // The running top-2 after source 1 is {2, 100}, so source 2's step
    // adds into item 100.
    const std::vector<Ltc> sources = {source({{100, 8}, {1, 5}}),
                                      source({{2, 10}, {3, 1}}),
                                      source({{100, 3}, {4, 2}})};
    Ltc fold(config);
    EXPECT_EQ(RefoldAll(fold, sources), 1u);
    EXPECT_EQ(Bytes(fold), MergeFromFold(config, sources));
    EXPECT_EQ(fold.EstimateFrequency(100), 11u);
  }
  {
    SCOPED_TRACE("one shared pair among 8 sources");
    LtcConfig wide;
    wide.memory_bytes = 16 * 8 * LtcConfig::BytesPerCell();  // 16 buckets
    wide.items_per_period = 50;
    std::vector<Ltc> sources(8, Ltc(wide));
    Rng rng(8);
    for (size_t s = 0; s < sources.size(); ++s) {
      for (int r = 0; r < 300; ++r) {
        // Item-partitioned ids, interleaved across sources...
        sources[s].Insert((1 + rng.Uniform(200)) * 8 + s);
        // ...but for one hot item that sources 2 and 5 both see.
        if ((s == 2 || s == 5) && r % 3 == 0) sources[s].Insert(7);
      }
      sources[s].Finalize();
    }
    Ltc fold(wide);
    EXPECT_EQ(RefoldAll(fold, sources), 1u);
    EXPECT_EQ(Bytes(fold), MergeFromFold(wide, sources));
    EXPECT_EQ(fold.EstimateFrequency(7), 200u);
  }
}

TEST(Ltc, RankBucketsOrdersOccupantsBestFirstThenEmpties) {
  LtcConfig config = OneBucket(6);
  config.beta = 0.0;  // significance = frequency, so 5 and 9 tie
  Ltc table(config);
  for (ItemId item : {9, 5, 7, 7, 7, 9, 5, 3}) table.Insert(item);
  std::vector<uint32_t> rank(table.num_cells());
  const std::vector<uint32_t> bucket = {0};
  // A one-source fold ranks the pushed bucket into the source's lane.
  Ltc fold(config);
  const Ltc::RankedSource source{&table, rank};
  fold.RefoldPush({&source, 1}, bucket, nullptr, 0, {&table, rank}, {});
  // Cells fill in arrival order: 9, 5, 7, 3, then two empties.
  EXPECT_EQ((std::vector<uint32_t>(rank.begin(), rank.begin() + 4)),
            (std::vector<uint32_t>{2, 1, 0, 3}));
  EXPECT_EQ((std::set<uint32_t>(rank.begin() + 4, rank.end())),
            (std::set<uint32_t>{4, 5}));
}

// The CLOCK sweep's output, recorded with the cell-by-cell sweep it
// replaced: CRC-32 of the image after a fixed stream and again after
// Finalize, and the attached sink's clock_steps and occupied_cells.
// Rows in the loop order below: period mode, Deviation Eliminator, LTR,
// then d.
struct SweepGolden {
  uint32_t crc;
  uint64_t clock_steps;
  uint64_t occupied_cells;
};

constexpr SweepGolden kSweepGolden[] = {
    {0x435d742a, 5120, 194},
    {0x4b536584, 5120, 251},
    {0x09c8e97e, 5120, 256},
    {0xdc7a2dc6, 5120, 198},
    {0xfec385cd, 5120, 249},
    {0xccf7f352, 5120, 256},
    {0x991781f3, 5120, 196},
    {0x36d6d4d5, 5120, 249},
    {0x33b8cbf4, 5120, 256},
    {0xc1ebb173, 5120, 196},
    {0xf413bf7e, 5120, 251},
    {0x3bf94920, 5120, 256},
    {0x3e9025fc, 5173, 196},
    {0x6ece380d, 5186, 249},
    {0x03459fd4, 5086, 256},
    {0x2e34333f, 5215, 198},
    {0xcfaa6eca, 5118, 251},
    {0xdb7578fc, 4988, 256},
    {0x5937d34a, 4990, 197},
    {0x98fc0e14, 5208, 249},
    {0x118c1f87, 4997, 256},
    {0x0c0e23e1, 5090, 197},
    {0x9b39a39b, 5041, 250},
    {0x4008e318, 5274, 256},
};

TEST(LtcSweep, ImagesAndSinkCountsMatchRecordedValues) {
  size_t row = 0;
  for (PeriodMode mode : {PeriodMode::kCountBased, PeriodMode::kTimeBased}) {
    for (bool de : {true, false}) {
      for (bool ltr : {true, false}) {
        for (uint32_t d : {1u, 8u, 32u}) {
          SCOPED_TRACE(testing::Message()
                       << "row=" << row
                       << " time=" << (mode == PeriodMode::kTimeBased)
                       << " de=" << de << " ltr=" << ltr << " d=" << d);
          ASSERT_LT(row, std::size(kSweepGolden));
          const SweepGolden& golden = kSweepGolden[row++];
          LtcConfig config;
          config.memory_bytes = 4 * 1024;  // 256 cells
          config.cells_per_bucket = d;
          config.deviation_eliminator = de;
          config.long_tail_replacement = ltr;
          config.period_mode = mode;
          // 2.56 cells per arrival, or about 100 arrivals per second.
          config.items_per_period = 100;
          config.period_seconds = 1.0;
          config.seed = 3;
          for ([[maybe_unused]] bool attach : {true, false}) {
            Ltc table(config);
#ifdef LTC_METRICS
            LtcMetricsSink sink;
            if (attach) table.AttachMetricsSink(&sink);
#endif
            Rng rng(row);
            double time = 0.0;
            std::vector<Record> batch;
            for (int i = 0; i < 2000; ++i) {
              time += rng.UniformDouble() * 0.02;
              batch.push_back(
                  {1 + rng.Uniform(rng.Bernoulli(0.5) ? 20 : 400), time});
              // Uneven batches, so sweeps start and end mid-bucket.
              if (batch.size() == 1 + static_cast<size_t>(i % 7)) {
                table.InsertBatch(batch);
                batch.clear();
              }
            }
            table.InsertBatch(batch);
            const std::string live = Bytes(table);
            table.Finalize();
            const std::string finalized = Bytes(table);
            const uint32_t crc = Crc32Final(
                Crc32Update(Crc32Update(Crc32Init(), live.data(), live.size()),
                            finalized.data(), finalized.size()));
            EXPECT_EQ(crc, golden.crc);
#ifdef LTC_METRICS
            if (attach) {
              EXPECT_EQ(sink.clock_steps, golden.clock_steps);
              EXPECT_EQ(sink.occupied_cells, golden.occupied_cells);
            }
#endif
          }
        }
      }
    }
  }
  EXPECT_EQ(row, std::size(kSweepGolden));
}

// InsertBatch defers the CLOCK sweep until an arrival routes into a
// bucket with a pending cell, a period ends, or the batch ends. One
// Insert per record settles its sweep at every record, so it is the
// per-record sweep the deferred one must equal: same image, same sink
// counts, over any split of the stream into batches.
TEST(LtcSweep, DeferredSweepEqualsPerRecordSweep) {
  for (PeriodMode mode : {PeriodMode::kCountBased, PeriodMode::kTimeBased}) {
    for (bool de : {true, false}) {
      for (bool ltr : {true, false}) {
        for (uint32_t d : {1u, 8u, 32u}) {
          for (bool behind : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "time=" << (mode == PeriodMode::kTimeBased)
                         << " de=" << de << " ltr=" << ltr << " d=" << d
                         << " behind_pointer=" << behind);
            LtcConfig config;
            config.memory_bytes = 4 * 1024;  // 256 cells
            config.cells_per_bucket = d;
            config.deviation_eliminator = de;
            config.long_tail_replacement = ltr;
            config.period_mode = mode;
            // 2.56 cells per arrival, or about 100 arrivals per second.
            config.items_per_period = 100;
            config.period_seconds = 1.0;
            config.seed = 5;
            const Ltc shape(config);
            const uint64_t m = shape.num_cells();
            const uint32_t w = shape.num_buckets();
            // A few items per bucket, so a pick can be steered to any
            // bucket.
            std::vector<std::vector<ItemId>> by_bucket(w);
            for (ItemId item = 1; item < 64 * 256; ++item) {
              auto& items = by_bucket[FastRange32(
                  BobHash32(item, static_cast<uint32_t>(config.seed)), w)];
              if (items.size() < 4) items.push_back(item);
            }

            Rng rng(d * 8 + de * 4 + ltr * 2 + behind);
            std::vector<Record> records;
            double time = 0.0;
            for (uint64_t i = 0; i < 3000; ++i) {
              time += rng.UniformDouble() * 0.02;
              // Now and then no arrival for whole periods.
              if (i % 700 == 699) time += 3.0;
              // The slot the pointer targets before this arrival's
              // update, by the formulas the clock uses.
              uint64_t target = i % config.items_per_period * m /
                                config.items_per_period;
              if (mode == PeriodMode::kTimeBased) {
                const double offset = time - std::floor(time);
                target = std::min(
                    m, static_cast<uint64_t>(offset * static_cast<double>(m)));
              }
              ItemId item = 1 + rng.Uniform(rng.Bernoulli(0.5) ? 20 : 400);
              if (behind && target > 0 && rng.Bernoulli(0.8)) {
                // Into the bucket just behind the pointer: its cells
                // are the newest pending ones.
                const auto& items = by_bucket[(target - 1) / d];
                item = items[rng.Uniform(items.size())];
              }
              records.push_back({item, time});
            }

            Ltc reference(config);
#ifdef LTC_METRICS
            LtcMetricsSink reference_sink;
            reference.AttachMetricsSink(&reference_sink);
#endif
            for (const Record& record : records) {
              reference.Insert(record.item, record.time);
            }
            // Batches of random length up to 1, 7 and 64 records, then
            // the whole stream as one batch (0).
            for (size_t split : {1u, 7u, 64u, 0u}) {
              SCOPED_TRACE(testing::Message() << "split=" << split);
              Ltc table(config);
#ifdef LTC_METRICS
              LtcMetricsSink sink;
              table.AttachMetricsSink(&sink);
#endif
              const std::span<const Record> all(records);
              for (size_t off = 0; off < all.size();) {
                const size_t len =
                    split == 0 ? all.size()
                               : std::min(all.size() - off,
                                          1 + rng.Uniform(split));
                table.InsertBatch(all.subspan(off, len));
                off += len;
              }
              EXPECT_EQ(Bytes(table), Bytes(reference));
#ifdef LTC_METRICS
              EXPECT_EQ(sink.clock_steps, reference_sink.clock_steps);
              EXPECT_EQ(sink.occupied_cells, reference_sink.occupied_cells);
              EXPECT_EQ(sink.periods_completed,
                        reference_sink.periods_completed);
              EXPECT_EQ(sink.scan_occupied_scratch,
                        reference_sink.scan_occupied_scratch);
#endif
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ltc
