// Layout-equivalence suite for the SoA bucket probe
// (core/table_layout.h): every vector backend must agree bit-for-bit
// with the scalar reference on every bucket content — matches,
// duplicates, empties, and the d>64 mask-width fallback — and a whole
// table driven under a forced backend must serialize byte-identically
// to the scalar-driven twin. Runs under asan and the LTC_AUDIT build
// like the rest of the unit label.

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/serial.h"
#include "core/ltc.h"
#include "core/table_layout.h"
#include "stream/generators.h"

namespace ltc {
namespace {

std::vector<ProbeBackend> SupportedBackends() {
  std::vector<ProbeBackend> backends = {ProbeBackend::kScalar};
  for (ProbeBackend simd : {ProbeBackend::kSse2, ProbeBackend::kAvx2}) {
    if (SetProbeBackend(simd) == simd) backends.push_back(simd);
  }
  SetProbeBackend(BestSupportedProbeBackend());
  return backends;
}

// Restores the default dispatch after a test that forces a backend, so
// test order can never leak a forced backend into another test.
class TableLayoutTest : public ::testing::Test {
 protected:
  ~TableLayoutTest() override {
    SetProbeBackend(BestSupportedProbeBackend());
  }
};

TEST_F(TableLayoutTest, ProbeFindsLowestMatchAndLowestEmpty) {
  // Hand-built edge cases: leading empty, duplicate IDs, full bucket,
  // all-empty, key-at-every-position.
  const std::vector<ProbeBackend> backends = SupportedBackends();
  struct Case {
    std::vector<uint64_t> ids;
    uint64_t key;
    int32_t match;
    int32_t empty;
  };
  const Case cases[] = {
      {{0, 0, 0, 0}, 7, -1, 0},              // all empty
      {{5, 6, 7, 8}, 7, 2, -1},              // full, key present
      {{5, 6, 9, 8}, 7, -1, -1},             // full, key absent
      {{0, 7, 0, 7}, 7, 1, 0},               // duplicates + empties:
                                             //   both lowest indices win
      {{7, 7, 7, 7}, 7, 0, -1},              // all duplicates
      {{9, 0, 7, 0}, 7, 2, 1},               // interleaved
      {{7}, 7, 0, -1},                       // d = 1
      {{0}, 7, -1, 0},
      {{1, 2, 3}, 7, -1, -1},                // odd d (vector tail)
      {{1, 2, 7}, 7, 2, -1},
      {{0x8000000000000007ULL, 7}, 7, 1, -1},  // high-bit ID (signed
                                               //   compare trap)
  };
  for (const Case& c : cases) {
    for (ProbeBackend backend : backends) {
      BucketProbe probe = internal::ProbeIds(
          c.ids.data(), static_cast<uint32_t>(c.ids.size()), c.key, backend);
      EXPECT_EQ(probe.match, c.match)
          << ProbeBackendName(backend) << " d=" << c.ids.size();
      EXPECT_EQ(probe.empty, c.empty)
          << ProbeBackendName(backend) << " d=" << c.ids.size();
    }
  }
}

TEST_F(TableLayoutTest, RandomizedBucketsAgreeAcrossBackends) {
  // Randomized buckets at every interesting width, including the paper's
  // d range (1..32), vector-boundary widths, and past the 64-cell mask
  // fallback. A small ID alphabet forces frequent duplicates and
  // empties; the scalar result is the reference.
  const std::vector<ProbeBackend> backends = SupportedBackends();
  std::mt19937_64 rng(20260809);
  for (uint32_t d : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 12u, 16u, 31u, 32u, 33u,
                     64u, 65u, 96u}) {
    std::uniform_int_distribution<uint64_t> id_dist(0, 6);
    std::vector<uint64_t> ids(d);
    for (int trial = 0; trial < 200; ++trial) {
      for (auto& id : ids) id = id_dist(rng);
      const uint64_t key = id_dist(rng) == 0 ? 0x12345 : id_dist(rng);
      BucketProbe reference = internal::ProbeIds(ids.data(), d, key,
                                                 ProbeBackend::kScalar);
      for (ProbeBackend backend : backends) {
        BucketProbe probe = internal::ProbeIds(ids.data(), d, key, backend);
        EXPECT_EQ(probe.match, reference.match)
            << ProbeBackendName(backend) << " d=" << d << " trial=" << trial;
        EXPECT_EQ(probe.empty, reference.empty)
            << ProbeBackendName(backend) << " d=" << d << " trial=" << trial;
      }
    }
  }
}

TEST_F(TableLayoutTest, DispatchHonorsSupportedRequestsAndIgnoresOthers) {
  const ProbeBackend best = BestSupportedProbeBackend();
  // Scalar is always available.
  EXPECT_EQ(SetProbeBackend(ProbeBackend::kScalar), ProbeBackend::kScalar);
  EXPECT_EQ(ActiveProbeBackend(), ProbeBackend::kScalar);
  // Requesting the best supported backend activates it; requesting
  // something beyond it leaves the active choice untouched.
  EXPECT_EQ(SetProbeBackend(best), best);
  if (best != ProbeBackend::kAvx2) {
    EXPECT_EQ(SetProbeBackend(ProbeBackend::kAvx2), best);
    EXPECT_EQ(ActiveProbeBackend(), best);
  }
}

TEST_F(TableLayoutTest, BackendNamesAreStable) {
  // The names label bench_speed's probe cases (docs/PERF.md).
  EXPECT_STREQ(ProbeBackendName(ProbeBackend::kScalar), "scalar");
  EXPECT_STREQ(ProbeBackendName(ProbeBackend::kSse2), "sse2");
  EXPECT_STREQ(ProbeBackendName(ProbeBackend::kAvx2), "avx2");
}

TEST_F(TableLayoutTest, CellRefViewsShareTheUnderlyingLanes) {
  TableLayout table(/*num_buckets=*/4, /*cells_per_bucket=*/8);
  EXPECT_EQ(table.num_cells(), 32u);
  BucketView bucket = table.bucket(2);
  CellRef cell = bucket.cell(3);
  cell.set_id(42);
  cell.set_freq(7);
  cell.set_counter(5);
  cell.set_flags(0x3);
  // Flat indexing aliases bucket-major order.
  ConstCellRef flat = std::as_const(table).cell(2 * 8 + 3);
  EXPECT_EQ(flat.id(), 42u);
  EXPECT_EQ(flat.freq(), 7u);
  EXPECT_EQ(flat.counter(), 5u);
  EXPECT_EQ(flat.flags(), 0x3);
  // The probe sees the write through the same lanes.
  BucketProbe probe = bucket.Probe(42);
  EXPECT_EQ(probe.match, 3);
  EXPECT_EQ(probe.empty, 0);
  cell.Clear();
  EXPECT_EQ(table.bucket(2).Probe(42).match, -1);
}

TEST_F(TableLayoutTest, WholeTableIsBackendInvariant) {
  // End-to-end: the same stream driven under each backend must produce a
  // byte-identical checkpoint — the probe choice can never leak into
  // table state. This is the in-repo half of the CI forced-scalar gate
  // (the other half re-runs the differential suite with LTC_PROBE=scalar).
  Stream stream = MakeZipfStream(30'000, 3'000, 1.0, 30, 7);
  LtcConfig config;
  config.memory_bytes = 4 * 1024;  // small table => Case 3 is exercised

  std::string reference;
  for (ProbeBackend backend : SupportedBackends()) {
    ASSERT_EQ(SetProbeBackend(backend), backend);
    Ltc table(config);
    table.InsertBatch(stream.records());
    table.Finalize();
    BinaryWriter writer;
    table.Serialize(writer);
    if (reference.empty()) {
      reference = writer.data();  // scalar comes first in the list
    } else {
      EXPECT_EQ(writer.data(), reference)
          << "backend " << ProbeBackendName(backend)
          << " diverged from scalar";
    }
  }
}

TEST_F(TableLayoutTest, SweepKernelsAgreeAcrossBackends) {
  // The CLOCK sweep's kernel follows the probe backend. Every backend
  // must leave the same lanes and count the same occupied cells, on
  // ranges of every length and offset (the AVX2 kernel's 8-cell steps
  // and its tail). Cells hold reachable states only: an id-0 cell is
  // fully zeroed; other IDs include ones with a zero 32-bit half.
  std::mt19937_64 rng(23);
  TableLayout seed_table(64, 5);  // 320 cells
  const uint64_t kIds[] = {1, uint64_t{1} << 32, 0xFFFFFFFF,
                           0x8000000000000000};
  for (size_t i = 0; i < seed_table.num_cells(); ++i) {
    if (rng() % 3 == 0) continue;  // empty
    CellRef cell = seed_table.cell(i);
    cell.set_id(rng() % 2 ? kIds[rng() % 4] : rng() | 1);
    cell.set_freq(static_cast<uint32_t>(rng() % 50 + 1));
    cell.set_counter(static_cast<uint32_t>(rng() % 50));
    cell.set_flags(static_cast<uint8_t>(rng() % 4));
  }
  for (int trial = 0; trial < 200; ++trial) {
    const size_t begin = rng() % seed_table.num_cells();
    const size_t end = begin + rng() % (seed_table.num_cells() - begin + 1);
    const auto mask = static_cast<uint8_t>(1 + rng() % 3);
    // The sweep, cell by cell.
    TableLayout want = seed_table;
    uint64_t want_occupied = 0;
    for (size_t i = begin; i < end; ++i) {
      CellRef cell = want.cell(i);
      cell.set_counter(cell.counter() +
                       __builtin_popcount(cell.flags() & mask));
      cell.set_flags(static_cast<uint8_t>(cell.flags() & ~mask));
      want_occupied += cell.id() != 0;
    }
    for (ProbeBackend backend : SupportedBackends()) {
      SCOPED_TRACE(testing::Message()
                   << ProbeBackendName(backend) << " [" << begin << ", "
                   << end << ") mask=" << int{mask});
      ASSERT_EQ(SetProbeBackend(backend), backend);
      TableLayout counted = seed_table;
      TableLayout uncounted = seed_table;
      EXPECT_EQ(counted.SweepFlags<true>(begin, end, mask), want_occupied);
      EXPECT_EQ(uncounted.SweepFlags<false>(begin, end, mask), 0u);
      for (const TableLayout* swept : {&counted, &uncounted}) {
        EXPECT_TRUE(std::ranges::equal(swept->counters(), want.counters()));
        EXPECT_TRUE(std::ranges::equal(swept->flags(), want.flags()));
      }
    }
  }
}

}  // namespace
}  // namespace ltc
