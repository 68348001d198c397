// The paged sketch store: page codec byte-identity against the v3
// snapshot, WAL record framing and torn-tail semantics, buffer-pool
// pin/dirty/eviction behavior, and SketchStore end-to-end — including
// the acceptance bar that a memory budget smaller than total sketch
// bytes answers queries bit-identically to an unconstrained run.

#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/serial.h"
#include "core/ltc.h"
#include "snapshot/failpoint_fs.h"
#include "snapshot/fs.h"
#include "store/buffer_pool.h"
#include "store/disk_manager.h"
#include "store/page.h"
#include "store/recovery.h"
#include "store/sketch_store.h"
#include "store/wal.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"

namespace ltc {
namespace store {
namespace {

LtcConfig SmallConfig() {
  LtcConfig config;
  config.memory_bytes = LtcConfig::BytesPerCell() * 8 * 4;  // w=4, d=8
  config.cells_per_bucket = 8;
  config.items_per_period = 1000;
  return config;
}

std::string SerializedBytes(const Ltc& sketch) {
  BinaryWriter writer;
  sketch.Serialize(writer);
  return writer.data();
}

Ltc SketchWithItems(const LtcConfig& config, uint64_t first, uint64_t count) {
  Ltc sketch(config);
  for (uint64_t i = 0; i < count; ++i) {
    sketch.Insert(first + (i % 7));
  }
  return sketch;
}

// Delegates to the real filesystem and records the path of every file
// a mutating call creates or overwrites, so a test can name the files
// one operation rewrote.
class RecordingFs final : public Fs {
 public:
  bool WriteAll(const std::string& path, std::string_view data) override {
    written.push_back(path);
    return SystemFs().WriteAll(path, data);
  }
  bool AppendAll(const std::string& path, std::string_view data) override {
    written.push_back(path);
    return SystemFs().AppendAll(path, data);
  }
  std::optional<std::string> ReadAll(const std::string& path) override {
    return SystemFs().ReadAll(path);
  }
  bool Sync(const std::string& path) override {
    return SystemFs().Sync(path);
  }
  bool SyncDir(const std::string& path) override {
    return SystemFs().SyncDir(path);
  }
  bool Rename(const std::string& from, const std::string& to) override {
    written.push_back(to);
    return SystemFs().Rename(from, to);
  }
  bool Remove(const std::string& path) override {
    return SystemFs().Remove(path);
  }
  bool Exists(const std::string& path) override {
    return SystemFs().Exists(path);
  }
  std::optional<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return SystemFs().ListDir(dir);
  }

  std::vector<std::string> written;
};

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("store_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------- pages

TEST_F(StoreTest, SplitAssembleRoundTripsByteIdentical) {
  Ltc sketch = SketchWithItems(SmallConfig(), 100, 500);
  const std::string payload = SerializedBytes(sketch);
  const size_t m = sketch.num_cells();

  for (size_t page_bytes : {16u, 64u, 4096u}) {
    std::string error;
    const auto pages =
        PageCodec::SplitPayload(payload, m, page_bytes, &error);
    ASSERT_FALSE(pages.empty()) << error;
    EXPECT_EQ(pages.size(), PageCodec::PageCount(m, page_bytes));
    // Page 0 is the config/header region: exactly the bytes before the
    // four SoA lanes (17 bytes per cell).
    EXPECT_EQ(pages[0].size(), payload.size() - 17 * m);
    for (size_t i = 1; i < pages.size(); ++i) {
      EXPECT_LE(pages[i].size(), page_bytes);
      EXPECT_FALSE(pages[i].empty());
    }
    // The tentpole pin: reassembly is byte-identical to the v3 payload.
    EXPECT_EQ(PageCodec::AssemblePayload(pages), payload);
  }
}

TEST_F(StoreTest, SplitPagesAreLaneGranular) {
  Ltc sketch = SketchWithItems(SmallConfig(), 1, 100);
  const std::string payload = SerializedBytes(sketch);
  const size_t m = sketch.num_cells();  // 32 cells
  // page_bytes = 24 does not divide any lane evenly except flags: the
  // ids lane (8*32=256) takes 11 pages, freqs/counters (4*32=128) 6
  // each, flags (32) 2. No page straddles a lane boundary, so lane
  // starts always begin a fresh page.
  const auto pages = PageCodec::SplitPayload(payload, m, 24);
  ASSERT_EQ(pages.size(), 1 + 11 + 6 + 6 + 2);
  EXPECT_EQ(pages[1].size(), 24u);
  EXPECT_EQ(pages[11].size(), 16u);  // ids tail: 256 - 10*24
  EXPECT_EQ(pages[12].size(), 24u);  // freqs lane starts fresh
}

TEST_F(StoreTest, PageFrameRoundTrip) {
  const std::string image = EncodePage(7, 42, "lane bytes");
  const PageDecodeResult decoded = DecodePage(image);
  ASSERT_TRUE(decoded.ok()) << SnapshotErrorName(decoded.error);
  EXPECT_EQ(decoded.page_id, 7u);
  EXPECT_EQ(decoded.lsn, 42u);
  EXPECT_EQ(decoded.payload, "lane bytes");
}

TEST_F(StoreTest, SplitRejectsImpossibleGeometry) {
  std::string error;
  EXPECT_TRUE(PageCodec::SplitPayload("short", 1000, 64, &error).empty());
  EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------------------ WAL

TEST_F(StoreTest, WalRecordRoundTrip) {
  WalRecord record;
  record.lsn = 9;
  record.tenant = 3;
  record.pages.push_back({0, "header page"});
  record.pages.push_back({4, std::string(100, '\x5a')});
  const std::string bytes = EncodeWalRecord(record);

  const WalDecodeResult decoded = DecodeWalRecord(bytes);
  ASSERT_TRUE(decoded.ok()) << SnapshotErrorName(decoded.error);
  EXPECT_EQ(decoded.consumed, bytes.size());
  EXPECT_EQ(decoded.record.lsn, 9u);
  EXPECT_EQ(decoded.record.tenant, 3u);
  ASSERT_EQ(decoded.record.pages.size(), 2u);
  EXPECT_EQ(decoded.record.pages[0].page_id, 0u);
  EXPECT_EQ(decoded.record.pages[0].payload, "header page");
  EXPECT_EQ(decoded.record.pages[1].page_id, 4u);
  EXPECT_EQ(decoded.record.pages[1].payload, std::string(100, '\x5a'));
}

TEST_F(StoreTest, WalReaderTruncatesAtTornTail) {
  WalRecord a{1, 1, {{0, "aaaa"}}};
  WalRecord b{2, 1, {{1, "bbbb"}}};
  WalRecord c{3, 2, {{0, "cccc"}}};
  std::string log = EncodeWalRecord(a) + EncodeWalRecord(b);
  const size_t intact = log.size();
  const std::string third = EncodeWalRecord(c);
  log += third.substr(0, third.size() / 2);  // the torn append

  const WalReadResult walked = ReadWalRecords(log);
  ASSERT_EQ(walked.records.size(), 2u);
  EXPECT_EQ(walked.records[0].lsn, 1u);
  EXPECT_EQ(walked.records[1].lsn, 2u);
  EXPECT_TRUE(walked.torn);
  EXPECT_EQ(walked.valid_bytes, intact);
}

TEST_F(StoreTest, WalReaderCleanEndIsNotTorn) {
  const std::string log =
      EncodeWalRecord({1, 1, {{0, "x"}}}) + EncodeWalRecord({2, 1, {{1, "y"}}});
  const WalReadResult walked = ReadWalRecords(log);
  EXPECT_EQ(walked.records.size(), 2u);
  EXPECT_FALSE(walked.torn);
  EXPECT_EQ(walked.valid_bytes, log.size());
}

// ---------------------------------------------------------- buffer pool

TEST_F(StoreTest, BufferPoolEvictsColdPagesAndReloadsThem) {
  DiskManager disk(SystemFs(), dir_.string());
  BufferPool pool(2, &disk);
  std::string error;
  for (uint32_t page = 0; page < 4; ++page) {
    BufferPool::Frame* frame = pool.Fetch(1, page, true, &error);
    ASSERT_NE(frame, nullptr) << error;
    frame->payload = "page-" + std::to_string(page);
    frame->lsn = page + 1;
    pool.Unpin(frame, /*mark_dirty=*/true);
  }
  EXPECT_LE(pool.resident(), 2u);
  EXPECT_GE(pool.stats().evictions_dirty, 2u);
  // The evicted pages were written back and reload bit-identically.
  for (uint32_t page = 0; page < 4; ++page) {
    BufferPool::Frame* frame = pool.Fetch(1, page, false, &error);
    ASSERT_NE(frame, nullptr) << error;
    EXPECT_EQ(frame->payload, "page-" + std::to_string(page));
    EXPECT_EQ(frame->lsn, page + 1);
    pool.Unpin(frame, false);
  }
}

TEST_F(StoreTest, BufferPoolPinnedFramesAreNeverEvicted) {
  DiskManager disk(SystemFs(), dir_.string());
  BufferPool pool(1, &disk);
  std::string error;
  BufferPool::Frame* pinned = pool.Fetch(1, 0, true, &error);
  ASSERT_NE(pinned, nullptr) << error;
  // The only frame is pinned: a second fetch must fail, not evict.
  EXPECT_EQ(pool.Fetch(1, 1, true, &error), nullptr);
  EXPECT_NE(error.find("pinned"), std::string::npos) << error;
  pool.Unpin(pinned, false);
  BufferPool::Frame* second = pool.Fetch(1, 1, true, &error);
  ASSERT_NE(second, nullptr) << error;
  pool.Unpin(second, false);
}

TEST_F(StoreTest, BufferPoolFlushDirtyWritesBackAndCleans) {
  DiskManager disk(SystemFs(), dir_.string());
  BufferPool pool(4, &disk);
  std::string error;
  BufferPool::Frame* frame = pool.Fetch(9, 2, true, &error);
  ASSERT_NE(frame, nullptr) << error;
  frame->payload = "dirty bytes";
  frame->lsn = 5;
  pool.Unpin(frame, /*mark_dirty=*/true);
  EXPECT_EQ(pool.dirty_count(), 1u);
  ASSERT_TRUE(pool.FlushDirty(&error)) << error;
  EXPECT_EQ(pool.dirty_count(), 0u);

  auto loaded = disk.Load(9, 2, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_TRUE(loaded->found);
  EXPECT_EQ(loaded->payload, "dirty bytes");
  EXPECT_EQ(loaded->lsn, 5u);
}

// ---------------------------------------------------------- sketch store

TEST_F(StoreTest, PutGetRoundTripsBitIdentical) {
  std::string error;
  auto store = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
  ASSERT_NE(store, nullptr) << error;
  Ltc sketch = SketchWithItems(SmallConfig(), 10, 800);
  ASSERT_TRUE(store->Put(1, sketch, &error)) << error;

  auto back = store->Get(1, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(SerializedBytes(*back), SerializedBytes(sketch));
  EXPECT_EQ(back->TopK(5).size(), sketch.TopK(5).size());
}

TEST_F(StoreTest, UnchangedPutWritesNothing) {
  std::string error;
  auto store = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
  ASSERT_NE(store, nullptr) << error;
  Ltc sketch = SketchWithItems(SmallConfig(), 10, 300);
  ASSERT_TRUE(store->Put(1, sketch, &error)) << error;
  const uint64_t wal_bytes_after_first = store->stats().wal_bytes;
  ASSERT_TRUE(store->Put(1, sketch, &error)) << error;
  EXPECT_EQ(store->stats().wal_bytes, wal_bytes_after_first);
  EXPECT_EQ(store->stats().clean_puts, 1u);
}

TEST_F(StoreTest, IncrementalPutLogsOnlyChangedPages) {
  SketchStoreOptions options;
  options.page_bytes = 64;
  std::string error;
  auto store = SketchStore::Open(SystemFs(), dir_.string(), options, &error);
  ASSERT_NE(store, nullptr) << error;

  Ltc sketch = SketchWithItems(SmallConfig(), 10, 500);
  ASSERT_TRUE(store->Put(1, sketch, &error)) << error;
  const uint64_t full_image_bytes = store->stats().wal_bytes;

  // A single extra arrival touches one cell: the delta record must be
  // much smaller than the full image (one page per lane at most, plus
  // the header page).
  sketch.Insert(10);
  ASSERT_TRUE(store->Put(1, sketch, &error)) << error;
  const uint64_t delta_bytes = store->stats().wal_bytes - full_image_bytes;
  EXPECT_LT(delta_bytes, full_image_bytes / 2)
      << "incremental Put logged " << delta_bytes << " of "
      << full_image_bytes;
}

TEST_F(StoreTest, CheckpointDirtyWritesBackOnlyTheChangedTenantsPages) {
  // The O(dirty) claim in exact counts: with every tenant checkpointed,
  // changing one tenant makes the next checkpoint write back exactly
  // that tenant's changed pages and no other tenant's page file.
  SketchStoreOptions options;
  options.page_bytes = 64;  // many pages per tenant; the budget holds all
  RecordingFs fs;
  std::string error;
  auto store = SketchStore::Open(fs, dir_.string(), options, &error);
  ASSERT_NE(store, nullptr) << error;

  const uint64_t kTenants = 4;
  std::vector<Ltc> sketches;
  for (uint64_t t = 0; t < kTenants; ++t) {
    sketches.push_back(SketchWithItems(SmallConfig(), 100 * t + 1, 400));
    ASSERT_TRUE(store->Put(t, sketches[t], &error)) << error;
  }
  ASSERT_TRUE(store->CheckpointDirty(&error)) << error;

  const uint64_t kChanged = 2;
  const std::string before = SerializedBytes(sketches[kChanged]);
  sketches[kChanged].Insert(100 * kChanged + 1);
  const std::string after = SerializedBytes(sketches[kChanged]);
  const size_t cells = sketches[kChanged].num_cells();
  const auto old_pages =
      PageCodec::SplitPayload(before, cells, options.page_bytes, &error);
  const auto new_pages =
      PageCodec::SplitPayload(after, cells, options.page_bytes, &error);
  ASSERT_EQ(old_pages.size(), new_pages.size()) << error;
  uint64_t changed_pages = 0;
  for (size_t i = 0; i < new_pages.size(); ++i) {
    if (old_pages[i] != new_pages[i]) ++changed_pages;
  }
  ASSERT_GT(changed_pages, 0u);

  ASSERT_TRUE(store->Put(kChanged, sketches[kChanged], &error)) << error;
  const uint64_t stored_before = store->pool().stats().pages_stored;
  fs.written.clear();
  ASSERT_TRUE(store->CheckpointDirty(&error)) << error;
  const uint64_t stored = store->pool().stats().pages_stored - stored_before;

  EXPECT_EQ(stored, changed_pages);
  EXPECT_LE(stored, store->PageCountOf(kChanged));
  std::set<std::pair<uint64_t, uint32_t>> rewritten;
  for (const std::string& path : fs.written) {
    uint64_t tenant = 0;
    uint32_t page = 0;
    if (DiskManager::ParsePageName(
            std::filesystem::path(path).filename().string(), &tenant,
            &page)) {
      EXPECT_EQ(tenant, kChanged) << "checkpoint rewrote " << path;
      rewritten.insert({tenant, page});
    }
  }
  EXPECT_EQ(rewritten.size(), changed_pages);
}

TEST_F(StoreTest, TinyBudgetAnswersIdenticallyToUnconstrained) {
  // The acceptance bar: many tenants under a budget smaller than total
  // sketch bytes behave bit-identically to an unconstrained run.
  const std::filesystem::path tiny_dir = dir_ / "tiny";
  const std::filesystem::path big_dir = dir_ / "big";
  std::filesystem::create_directories(tiny_dir);
  std::filesystem::create_directories(big_dir);

  SketchStoreOptions tiny_options;
  tiny_options.page_bytes = 64;
  tiny_options.mem_budget_bytes = 64 * 3;  // three frames for ~20 pages
  SketchStoreOptions big_options;
  big_options.page_bytes = 64;
  big_options.mem_budget_bytes = 64 << 20;

  std::string error;
  auto tiny = SketchStore::Open(SystemFs(), tiny_dir.string(), tiny_options,
                                &error);
  ASSERT_NE(tiny, nullptr) << error;
  auto big =
      SketchStore::Open(SystemFs(), big_dir.string(), big_options, &error);
  ASSERT_NE(big, nullptr) << error;

  const uint64_t kTenants = 4;
  std::vector<Ltc> oracles;
  for (uint64_t t = 0; t < kTenants; ++t) {
    oracles.push_back(Ltc(SmallConfig()));
  }
  for (int round = 0; round < 3; ++round) {
    for (uint64_t t = 0; t < kTenants; ++t) {
      for (int i = 0; i < 200; ++i) {
        // +1: ItemId 0 is the reserved empty-cell marker.
        oracles[t].Insert(1000 * t + (i % (5 + t)) + 1);
      }
      ASSERT_TRUE(tiny->Put(t, oracles[t], &error)) << error;
      ASSERT_TRUE(big->Put(t, oracles[t], &error)) << error;
    }
  }
  EXPECT_GT(tiny->pool().stats().evictions_dirty +
                tiny->pool().stats().evictions_clean,
            0u)
      << "budget was not actually constraining";
  for (uint64_t t = 0; t < kTenants; ++t) {
    auto from_tiny = tiny->Get(t, &error);
    ASSERT_TRUE(from_tiny.has_value()) << error;
    auto from_big = big->Get(t, &error);
    ASSERT_TRUE(from_big.has_value()) << error;
    const std::string oracle_bytes = SerializedBytes(oracles[t]);
    EXPECT_EQ(SerializedBytes(*from_tiny), oracle_bytes) << "tenant " << t;
    EXPECT_EQ(SerializedBytes(*from_big), oracle_bytes) << "tenant " << t;
    // And the queries the store exists for agree too.
    const auto tiny_top = from_tiny->TopK(5);
    const auto big_top = from_big->TopK(5);
    ASSERT_EQ(tiny_top.size(), big_top.size());
    for (size_t i = 0; i < tiny_top.size(); ++i) {
      EXPECT_EQ(tiny_top[i].item, big_top[i].item);
      EXPECT_EQ(tiny_top[i].significance, big_top[i].significance);
    }
  }
}

TEST_F(StoreTest, ReopenAfterCheckpointServesSameBytes) {
  std::string error;
  Ltc sketch = SketchWithItems(SmallConfig(), 42, 600);
  {
    auto store = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Put(5, sketch, &error)) << error;
    ASSERT_TRUE(store->CheckpointDirty(&error)) << error;
    EXPECT_FALSE(SystemFs().Exists((dir_ / "wal.log").string()));
  }
  auto reopened = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_FALSE(reopened->recovery().wal_found);
  auto back = reopened->Get(5, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(SerializedBytes(*back), SerializedBytes(sketch));
}

TEST_F(StoreTest, ReopenWithoutCheckpointReplaysWal) {
  std::string error;
  Ltc sketch = SketchWithItems(SmallConfig(), 42, 600);
  {
    auto store = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Put(5, sketch, &error)) << error;
    // No checkpoint: the only durable copy of the update is the WAL.
  }
  auto reopened = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_TRUE(reopened->recovery().wal_found);
  EXPECT_GT(reopened->recovery().deltas_applied, 0u);
  auto back = reopened->Get(5, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(SerializedBytes(*back), SerializedBytes(sketch));
}

TEST_F(StoreTest, GarbageWalTailIsEndOfLogNotAnError) {
  std::string error;
  Ltc sketch = SketchWithItems(SmallConfig(), 7, 400);
  {
    auto store = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Put(1, sketch, &error)) << error;
  }
  // A torn append: garbage after the last intact record.
  ASSERT_TRUE(
      SystemFs().AppendAll((dir_ / "wal.log").string(), "torn-garbage"));

  auto reopened = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_TRUE(reopened->recovery().torn_tail);
  auto back = reopened->Get(1, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(SerializedBytes(*back), SerializedBytes(sketch));
}

TEST_F(StoreTest, TornWriteCrashFaultIsEndOfLogNotAnError) {
  // The FailpointFs torn-sector fault: a WAL append persists a strict
  // prefix and the process dies. RecoveryManager must treat the torn
  // record as end-of-log — the interrupted Put simply never happened.
  FailpointFs fs(SystemFs());
  std::string error;
  Ltc sketch = SketchWithItems(SmallConfig(), 7, 400);
  auto store = SketchStore::Open(fs, dir_.string(), {}, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->Put(1, sketch, &error)) << error;
  const std::string acked = SerializedBytes(sketch);

  sketch.Insert(7);
  fs.Arm(FailpointFs::Failure::kTornWriteCrash, fs.mutating_ops(),
         /*seed=*/17);
  EXPECT_FALSE(store->Put(1, sketch, &error));
  EXPECT_TRUE(fs.crashed());

  // "Reboot" on the clean filesystem.
  auto reopened = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
  ASSERT_NE(reopened, nullptr)
      << "a torn tail must not fail recovery: " << error;
  EXPECT_TRUE(reopened->recovery().torn_tail);
  auto back = reopened->Get(1, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(SerializedBytes(*back), acked);
}

TEST_F(StoreTest, RecoveryHealsFlippedPageFileFromWal) {
  std::string error;
  Ltc sketch = SketchWithItems(SmallConfig(), 3, 500);
  {
    auto store = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Put(2, sketch, &error)) << error;
    // Write the pages back but KEEP the WAL (no checkpoint).
    ASSERT_TRUE(store->EvictTenant(2, &error)) << error;
  }
  // Media corruption on one page image.
  const std::string victim = (dir_ / "t2.p1.pg").string();
  auto bytes = SystemFs().ReadAll(victim);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[bytes->size() / 2] ^= 0x01;
  ASSERT_TRUE(SystemFs().WriteAll(victim, *bytes));

  auto reopened = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->recovery().corrupt_pages, 1u);
  EXPECT_GT(reopened->recovery().deltas_applied, 0u);
  auto back = reopened->Get(2, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(SerializedBytes(*back), SerializedBytes(sketch));
}

TEST_F(StoreTest, GeometryChangeIsRejected) {
  std::string error;
  auto store = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->Put(1, Ltc(SmallConfig()), &error)) << error;

  LtcConfig bigger = SmallConfig();
  bigger.memory_bytes *= 4;
  EXPECT_FALSE(store->Put(1, Ltc(bigger), &error));
  EXPECT_NE(error.find("geometry"), std::string::npos) << error;
}

TEST_F(StoreTest, UnknownTenantIsATypedError) {
  std::string error;
  auto store = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_FALSE(store->Get(99, &error).has_value());
  EXPECT_NE(error.find("unknown tenant"), std::string::npos);
}

TEST_F(StoreTest, StoreMetricsAreExposed) {
  std::string error;
  auto store = SketchStore::Open(SystemFs(), dir_.string(), {}, &error);
  ASSERT_NE(store, nullptr) << error;
  telemetry::MetricsRegistry registry;
  ASSERT_TRUE(store->Put(1, SketchWithItems(SmallConfig(), 1, 200), &error))
      << error;
  ASSERT_TRUE(store->CheckpointDirty(&error)) << error;
  store->Collect(registry);
  const std::string text = telemetry::ExpositionText(registry);
  for (const char* family :
       {"ltc_store_pages_in_total", "ltc_store_pages_out_total",
        "ltc_store_page_hits_total", "ltc_store_page_misses_total",
        "ltc_store_evictions_total", "ltc_store_wal_records_total",
        "ltc_store_wal_bytes_total", "ltc_store_checkpoints_total",
        "ltc_store_replay_deltas_total", "ltc_store_replay_torn_tails_total",
        "ltc_store_corrupt_pages_total", "ltc_store_tenants",
        "ltc_store_frames_resident", "ltc_store_frames_dirty",
        "ltc_store_checkpoint_duration_usec",
        "ltc_store_checkpoint_dirty_pages"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
}

}  // namespace
}  // namespace store
}  // namespace ltc
