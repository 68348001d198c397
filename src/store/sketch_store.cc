#include "store/sketch_store.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/serial.h"
#include "store/page.h"
#include "store/wal.h"
#include "telemetry/trace.h"

namespace ltc {
namespace store {

SketchStore::SketchStore(Fs& fs, const std::string& dir,
                         const SketchStoreOptions& options)
    : options_(options), disk_(fs, dir) {
  size_t frames = options_.page_bytes == 0
                      ? 1
                      : options_.mem_budget_bytes / options_.page_bytes;
  if (frames < 1) frames = 1;
  pool_ = std::make_unique<BufferPool>(frames, &disk_);
}

std::unique_ptr<SketchStore> SketchStore::Open(
    Fs& fs, const std::string& dir, const SketchStoreOptions& options,
    std::string* error) {
  if (options.page_bytes == 0) {
    if (error != nullptr) *error = "page_bytes must be > 0";
    return nullptr;
  }
  if (!fs.ListDir(dir).has_value()) {
    if (error != nullptr) {
      *error = "store directory '" + dir + "' does not exist";
    }
    return nullptr;
  }
  std::unique_ptr<SketchStore> self(new SketchStore(fs, dir, options));
  RecoveryManager recovery(self->disk_);
  if (!recovery.Run(&self->recovery_, error)) return nullptr;
  self->next_lsn_ = self->recovery_.max_lsn + 1;
  for (const auto& [tenant, pages] : self->recovery_.tenant_pages) {
    uint32_t max_page = 0;
    for (uint32_t page : pages) max_page = std::max(max_page, page);
    // Geometry holes (a missing page file with no delta in the log)
    // surface as typed Get() errors, not silent truncation.
    self->tenant_pages_[tenant] = max_page + 1;
  }
  return self;
}

bool SketchStore::Poisoned(std::string* error) const {
  if (!poisoned_) return false;
  if (error != nullptr) {
    *error = "store poisoned: in-memory frames lag the WAL after a failed "
             "commit; reopen the store to recover";
  }
  return true;
}

bool SketchStore::Put(uint64_t tenant, const Ltc& sketch,
                      std::string* error) {
  telemetry::Span span("store.put");
  span.AddAttr("tenant", tenant);
  if (Poisoned(error)) return false;
  BinaryWriter writer;
  sketch.Serialize(writer);
  std::vector<std::string> pages = PageCodec::SplitPayload(
      writer.data(), sketch.num_cells(), options_.page_bytes, error);
  if (pages.empty()) return false;
  auto known = tenant_pages_.find(tenant);
  if (known != tenant_pages_.end() && known->second != pages.size()) {
    if (error != nullptr) {
      *error = "tenant " + std::to_string(tenant) + " has " +
               std::to_string(known->second) + " pages; this sketch needs " +
               std::to_string(pages.size()) +
               " (a tenant's geometry is fixed at first Put)";
    }
    return false;
  }

  // Pass 1 — diff against the current images to find the dirty set.
  // Nothing is modified yet: a failure below leaves the store exactly
  // as it was.
  std::vector<uint32_t> dirty;
  for (uint32_t i = 0; i < pages.size(); ++i) {
    BufferPool::Frame* frame =
        pool_->Fetch(tenant, i, /*create_if_absent=*/true, error);
    if (frame == nullptr) return false;
    // Same page COUNT does not imply same cell count (different lane
    // sizes can slice into equally many pages), so page sizes are the
    // real geometry check: equal sizes on every page forces equal lane
    // bytes, which forces equal m.
    if (known != tenant_pages_.end() && !frame->payload.empty() &&
        frame->payload.size() != pages[i].size()) {
      const size_t existing_bytes = frame->payload.size();
      pool_->Unpin(frame, /*mark_dirty=*/false);
      if (error != nullptr) {
        *error = "tenant " + std::to_string(tenant) + " page " +
                 std::to_string(i) + " holds " +
                 std::to_string(existing_bytes) +
                 " bytes; this sketch needs " +
                 std::to_string(pages[i].size()) +
                 " (a tenant's geometry is fixed at first Put)";
      }
      return false;
    }
    const bool changed = frame->payload != pages[i];
    pool_->Unpin(frame, /*mark_dirty=*/false);
    if (changed) dirty.push_back(i);
  }
  if (dirty.empty()) {
    tenant_pages_[tenant] = static_cast<uint32_t>(pages.size());
    ++stats_.puts;
    ++stats_.clean_puts;
    return true;
  }
  span.AddAttr("dirty_pages", dirty.size());

  // Log-before-dirty: ONE record carrying every changed page, durable
  // before any frame changes. Whole-record CRC framing makes the Put
  // atomic across a crash — recovery sees all of it or none of it.
  WalRecord record;
  record.lsn = next_lsn_;
  record.tenant = tenant;
  record.pages.reserve(dirty.size());
  for (uint32_t i : dirty) {
    WalPageDelta delta;
    delta.page_id = i;
    delta.payload = pages[i];
    record.pages.push_back(std::move(delta));
  }
  const std::string bytes = EncodeWalRecord(record);
  const std::string wal_path = disk_.WalPath();
  {
    telemetry::Span append_span("wal.append");
    append_span.AddAttr("bytes", bytes.size());
    if (!disk_.fs().AppendAll(wal_path, bytes)) {
      if (error != nullptr) {
        *error = "cannot append to WAL '" + wal_path + "'";
      }
      return false;
    }
  }
  {
    // The record is durable once the log and, the first time, its
    // directory entry are synced.
    telemetry::Span sync_span("wal.sync");
    if (!disk_.fs().Sync(wal_path)) {
      if (error != nullptr) {
        *error = "cannot fsync WAL '" + wal_path + "'";
      }
      return false;
    }
    if (!wal_dir_synced_) {
      if (!disk_.fs().SyncDir(disk_.dir())) {
        if (error != nullptr) {
          *error = "cannot fsync store directory '" + disk_.dir() + "'";
        }
        return false;
      }
      wal_dir_synced_ = true;
    }
  }

  // Pass 2 — commit to the pool. The record is durable, so a failure
  // here cannot lose data, but it can leave memory behind the log:
  // fail closed until a reopen replays it.
  for (uint32_t i : dirty) {
    BufferPool::Frame* frame =
        pool_->Fetch(tenant, i, /*create_if_absent=*/true, error);
    if (frame == nullptr) {
      poisoned_ = true;
      if (error != nullptr) {
        *error = "commit interrupted (" + *error +
                 "); store poisoned — reopen to recover from the WAL";
      }
      return false;
    }
    frame->payload = pages[i];
    frame->lsn = record.lsn;
    pool_->Unpin(frame, /*mark_dirty=*/true);
  }
  ++next_lsn_;
  tenant_pages_[tenant] = static_cast<uint32_t>(pages.size());
  ++stats_.puts;
  ++stats_.wal_records;
  stats_.wal_bytes += bytes.size();
  return true;
}

std::optional<Ltc> SketchStore::Get(uint64_t tenant, std::string* error) {
  telemetry::Span span("store.get");
  span.AddAttr("tenant", tenant);
  if (Poisoned(error)) return std::nullopt;
  auto known = tenant_pages_.find(tenant);
  if (known == tenant_pages_.end()) {
    if (error != nullptr) {
      *error = "unknown tenant " + std::to_string(tenant);
    }
    return std::nullopt;
  }
  std::string payload;
  for (uint32_t i = 0; i < known->second; ++i) {
    BufferPool::Frame* frame =
        pool_->Fetch(tenant, i, /*create_if_absent=*/false, error);
    if (frame == nullptr) return std::nullopt;
    payload += frame->payload;
    pool_->Unpin(frame, /*mark_dirty=*/false);
  }
  BinaryReader reader(payload);
  std::optional<Ltc> sketch = Ltc::Deserialize(reader);
  if (!sketch.has_value() || !reader.AtEnd()) {
    if (error != nullptr) {
      *error = "tenant " + std::to_string(tenant) +
               ": assembled pages do not form a valid sketch image";
    }
    return std::nullopt;
  }
  ++stats_.gets;
  return sketch;
}

bool SketchStore::EvictTenant(uint64_t tenant, std::string* error) {
  if (Poisoned(error)) return false;
  if (tenant_pages_.count(tenant) == 0) {
    if (error != nullptr) {
      *error = "unknown tenant " + std::to_string(tenant);
    }
    return false;
  }
  return pool_->DropTenant(tenant, error);
}

bool SketchStore::CheckpointDirty(std::string* error) {
  telemetry::Span span("store.checkpoint");
  if (Poisoned(error)) return false;
  const auto start = std::chrono::steady_clock::now();
  const size_t dirty_pages = pool_->dirty_count();
  span.AddAttr("dirty_pages", dirty_pages);
  if (!pool_->FlushDirty(error)) return false;
  // Every logged delta is now in a durable page file; retire the log.
  const std::string wal_path = disk_.WalPath();
  if (disk_.fs().Exists(wal_path)) {
    if (!disk_.fs().Remove(wal_path)) {
      if (error != nullptr) {
        *error = "cannot remove checkpointed WAL '" + wal_path + "'";
      }
      return false;
    }
    if (!disk_.fs().SyncDir(disk_.dir())) {
      if (error != nullptr) {
        *error = "cannot fsync store directory '" + disk_.dir() + "'";
      }
      return false;
    }
    wal_dir_synced_ = false;
  }
  ++stats_.checkpoints;
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto usec =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  checkpoint_duration_usec_.Record(usec > 0 ? static_cast<uint64_t>(usec) : 0);
  checkpoint_dirty_pages_.Record(dirty_pages);
  return true;
}

std::vector<uint64_t> SketchStore::Tenants() const {
  std::vector<uint64_t> tenants;
  tenants.reserve(tenant_pages_.size());
  for (const auto& [tenant, pages] : tenant_pages_) tenants.push_back(tenant);
  return tenants;
}

uint32_t SketchStore::PageCountOf(uint64_t tenant) const {
  auto it = tenant_pages_.find(tenant);
  return it == tenant_pages_.end() ? 0 : it->second;
}

void SketchStore::Collect(telemetry::MetricsRegistry& registry) const {
  const BufferPool::Stats& pool = pool_->stats();
  registry
      .CounterOf("ltc_store_pages_in_total",
                 "Page images loaded from page files into the buffer pool")
      .SetFromSample(pool.pages_loaded);
  registry
      .CounterOf("ltc_store_pages_out_total",
                 "Page images written back to page files (evictions + "
                 "checkpoints)")
      .SetFromSample(pool.pages_stored);
  registry
      .CounterOf("ltc_store_page_hits_total",
                 "Buffer-pool fetches served by a resident frame")
      .SetFromSample(pool.hits);
  registry
      .CounterOf("ltc_store_page_misses_total",
                 "Buffer-pool fetches that went to disk (or created a fresh "
                 "page)")
      .SetFromSample(pool.misses);
  const char* evictions_help =
      "Frames the CLOCK hand evicted, by whether a write-back was owed";
  registry
      .CounterOf("ltc_store_evictions_total", evictions_help,
                 {{"kind", "clean"}})
      .SetFromSample(pool.evictions_clean);
  registry
      .CounterOf("ltc_store_evictions_total", evictions_help,
                 {{"kind", "dirty"}})
      .SetFromSample(pool.evictions_dirty);
  registry
      .CounterOf("ltc_store_wal_records_total",
                 "Atomic multi-page records appended to the write-ahead log")
      .SetFromSample(stats_.wal_records);
  registry
      .CounterOf("ltc_store_wal_bytes_total",
                 "Bytes appended to the write-ahead log")
      .SetFromSample(stats_.wal_bytes);
  registry
      .CounterOf("ltc_store_checkpoints_total",
                 "CheckpointDirty calls that flushed and truncated the WAL")
      .SetFromSample(stats_.checkpoints);
  const char* replay_help =
      "WAL page deltas at the last Open, by replay outcome";
  registry
      .CounterOf("ltc_store_replay_deltas_total", replay_help,
                 {{"outcome", "applied"}})
      .SetFromSample(recovery_.deltas_applied);
  registry
      .CounterOf("ltc_store_replay_deltas_total", replay_help,
                 {{"outcome", "stale"}})
      .SetFromSample(recovery_.deltas_stale);
  registry
      .CounterOf("ltc_store_replay_torn_tails_total",
                 "WAL tails truncated at a bad frame during recovery")
      .SetFromSample(recovery_.torn_tail ? 1 : 0);
  registry
      .CounterOf("ltc_store_corrupt_pages_total",
                 "Page files that failed frame checks during recovery")
      .SetFromSample(recovery_.corrupt_pages);
  registry
      .GaugeOf("ltc_store_tenants", "Tenant sketches the store currently hosts")
      .Set(static_cast<double>(tenant_pages_.size()));
  registry
      .GaugeOf("ltc_store_frames_resident",
               "Page frames resident in the buffer pool")
      .Set(static_cast<double>(pool_->resident()));
  registry
      .GaugeOf("ltc_store_frames_dirty", "Resident frames owing a write-back")
      .Set(static_cast<double>(pool_->dirty_count()));
  registry
      .HistogramOf("ltc_store_checkpoint_duration_usec",
                   "Latency of incremental checkpoints (flush dirty + "
                   "truncate WAL) in microseconds")
      .SetFromSample(checkpoint_duration_usec_);
  registry
      .HistogramOf("ltc_store_checkpoint_dirty_pages",
                   "Dirty pages each incremental checkpoint had to write back")
      .SetFromSample(checkpoint_dirty_pages_);
}

}  // namespace store
}  // namespace ltc
