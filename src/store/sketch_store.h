// SketchStore — the front door of the crash-safe, larger-than-RAM,
// multi-tenant sketch store (ROADMAP item 4; docs/DURABILITY.md "Paged
// store, WAL, and incremental checkpoints").
//
// One store directory hosts N independent tenant sketches (numeric
// tenant ids — per-customer / per-API-key sketch families). Each
// sketch lives as CRC-framed page files (store/page.h) behind a
// CLOCK-evicting buffer pool under a configurable memory budget, so
// total sketch bytes can exceed RAM: cold tenants' pages spill to
// disk and page back in on demand, bit-identically.
//
// Durability contract — the log-before-dirty rule:
//
//   Put() serializes the sketch, splits it into pages, and diffs them
//   against the resident/on-disk images. The changed pages are
//   appended to the WAL as ONE record and fsynced BEFORE any in-memory
//   frame is updated or marked dirty. Page-file write-back (eviction,
//   CheckpointDirty) therefore never persists bytes the log does not
//   already carry, and a kill at ANY operation recovers every tenant
//   to either its pre-Put or post-Put image — never a mix
//   (tests/store_crash_test.cc sweeps every kill point).
//
// CheckpointDirty() write-backs only dirty frames and then truncates
// the WAL: O(dirty) instead of the monolithic snapshot's O(table)
// (tests/store_test.cc pins the exact page count).

#ifndef LTC_STORE_SKETCH_STORE_H_
#define LTC_STORE_SKETCH_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ltc.h"
#include "snapshot/fs.h"
#include "store/buffer_pool.h"
#include "store/disk_manager.h"
#include "store/recovery.h"
#include "telemetry/metrics.h"

namespace ltc {
namespace store {

struct SketchStoreOptions {
  /// Data-page payload size. Smaller pages mean finer dirty tracking
  /// (cheaper incremental checkpoints) but more frames and files.
  size_t page_bytes = 4096;

  /// Buffer-pool budget; the pool holds budget / page_bytes frames
  /// (at least one). May be far smaller than total sketch bytes.
  size_t mem_budget_bytes = size_t{64} << 20;
};

class SketchStore {
 public:
  struct Stats {
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t wal_records = 0;
    uint64_t wal_bytes = 0;
    uint64_t checkpoints = 0;
    uint64_t clean_puts = 0;  // Puts that changed no page (no log write)
  };

  /// Opens (and crash-recovers) the store in `dir`, which must exist.
  /// Replays the WAL over the page files first — see store/recovery.h.
  /// nullptr + `error` on I/O failure.
  static std::unique_ptr<SketchStore> Open(Fs& fs, const std::string& dir,
                                           const SketchStoreOptions& options,
                                           std::string* error);

  /// Upserts the tenant's sketch. Only changed pages are logged and
  /// dirtied; an unchanged sketch writes nothing. A tenant's geometry
  /// (page count) is fixed at first Put.
  bool Put(uint64_t tenant, const Ltc& sketch, std::string* error);

  /// Reassembles the tenant's sketch from resident frames and page
  /// files. nullopt + `error` for unknown tenants, missing/corrupt
  /// pages, or a payload Deserialize rejects.
  std::optional<Ltc> Get(uint64_t tenant, std::string* error);

  /// Writes back the tenant's dirty frames and drops all its frames —
  /// the explicit make-this-tenant-cold hammer.
  bool EvictTenant(uint64_t tenant, std::string* error);

  /// Incremental checkpoint: write back every dirty frame, then
  /// truncate the WAL. O(dirty), not O(table).
  bool CheckpointDirty(std::string* error);

  bool Contains(uint64_t tenant) const {
    return tenant_pages_.count(tenant) > 0;
  }
  std::vector<uint64_t> Tenants() const;

  /// Pages the tenant occupies (0 when unknown).
  uint32_t PageCountOf(uint64_t tenant) const;

  /// Publishes the ltc_store_* families (docs/TELEMETRY.md) from the
  /// store's own counters: its Stats, the buffer pool's Stats, the
  /// RecoveryReport of the last Open, occupancy gauges and the
  /// checkpoint histograms. Call it from the thread that drives the
  /// store; it is not thread-safe, like the store itself.
  void Collect(telemetry::MetricsRegistry& registry) const;

  const Stats& stats() const { return stats_; }
  const RecoveryReport& recovery() const { return recovery_; }
  const BufferPool& pool() const { return *pool_; }

 private:
  SketchStore(Fs& fs, const std::string& dir,
              const SketchStoreOptions& options);

  /// Sets `error` and returns true when a partially-applied commit
  /// left memory behind the WAL (reopen to recover).
  bool Poisoned(std::string* error) const;

  SketchStoreOptions options_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
  std::map<uint64_t, uint32_t> tenant_pages_;
  RecoveryReport recovery_;
  uint64_t next_lsn_ = 1;
  bool wal_dir_synced_ = false;  // wal.log's dirent made durable yet?
  bool poisoned_ = false;
  Stats stats_;

  telemetry::Histogram checkpoint_duration_usec_;
  telemetry::Histogram checkpoint_dirty_pages_;
};

}  // namespace store
}  // namespace ltc

#endif  // LTC_STORE_SKETCH_STORE_H_
