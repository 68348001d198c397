// Epoch/double-buffered read snapshots — the stall-free read seam
// between a live ingest path and concurrent queriers (docs/SERVING.md).
//
// The LTC family is single-writer by design: tables are fed by their
// owning threads and may only be queried at quiescent barriers
// (IngestPipeline::Flush). A network front end, though, must answer
// point queries continuously while ingest runs. ReadSnapshotHub closes
// that gap without adding a single lock to the write path:
//
//   publisher (producer thread, at a Flush/batch barrier)
//     deep-copies the quiescent table into the INACTIVE slot and flips
//     the active-slot index — one release store.
//
//   readers (any thread, any number)
//     pin the active slot with a per-slot reader count, query the
//     immutable image, unpin. No mutex, no writer interaction: a
//     reader can never block ingest, and ingest can never tear a read.
//
// Two slots suffice because publishes are serialized on one thread: the
// publisher reuses the slot that readers abandoned one generation ago.
// If a straggling reader still pins that slot, Publish waits for it at
// most `publish_wait_usec` of wall time and then SKIPS (keeping the
// previous snapshot current) — the writer's wait for readers is bounded
// in time; snapshot freshness is best-effort at the configured cadence.
//
// Consistency model: every image is a bit-identical copy of the sketch
// at a Flush() barrier, so every answer served from it equals the
// answer a sequential run of the same stream prefix would give
// (pinned by tests/read_snapshot_test.cc).

#ifndef LTC_CORE_READ_SNAPSHOT_H_
#define LTC_CORE_READ_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/significance_estimator.h"

namespace ltc {

/// One published image: an immutable deep copy of an estimator at a
/// quiescent barrier, plus where in the stream that barrier was.
struct ReadSnapshot {
  uint64_t seq = 0;      // publish sequence number, 1-based
  uint64_t records = 0;  // stream records applied at the barrier
  std::unique_ptr<const SignificanceEstimator> table;
};

/// Single-publisher / multi-reader snapshot exchange. Publish is called
/// from ONE thread (the ingest producer, at barriers); Acquire is safe
/// from any number of threads concurrently.
class ReadSnapshotHub {
 public:
  /// `publish_wait_usec`: how long (wall time, microseconds) Publish
  /// waits for a straggling reader to unpin the stale slot before
  /// skipping the publish; 0 skips at once. The wait follows WaitStep's
  /// rule (common/clock.h). Point queries release in microseconds, so
  /// the default never skips in practice.
  explicit ReadSnapshotHub(uint64_t publish_wait_usec = 500'000)
      : wait_usec_(publish_wait_usec) {}

  ReadSnapshotHub(const ReadSnapshotHub&) = delete;
  ReadSnapshotHub& operator=(const ReadSnapshotHub&) = delete;

  /// A pinned reference to the currently published snapshot. Holding a
  /// Ref keeps exactly one slot from being recycled — keep it only for
  /// the duration of one query, never across blocking work.
  class Ref {
   public:
    Ref() = default;
    Ref(Ref&& other) noexcept
        : hub_(other.hub_), slot_(other.slot_), snapshot_(other.snapshot_) {
      other.hub_ = nullptr;
      other.snapshot_ = nullptr;
    }
    Ref& operator=(Ref&& other) noexcept {
      if (this != &other) {
        Release();
        hub_ = other.hub_;
        slot_ = other.slot_;
        snapshot_ = other.snapshot_;
        other.hub_ = nullptr;
        other.snapshot_ = nullptr;
      }
      return *this;
    }
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;
    ~Ref() { Release(); }

    /// Null before the first Publish.
    explicit operator bool() const { return snapshot_ != nullptr; }
    const ReadSnapshot* operator->() const { return snapshot_; }
    const ReadSnapshot& operator*() const { return *snapshot_; }

   private:
    friend class ReadSnapshotHub;
    Ref(const ReadSnapshotHub* hub, uint32_t slot, const ReadSnapshot* s)
        : hub_(hub), slot_(slot), snapshot_(s) {}
    void Release();

    const ReadSnapshotHub* hub_ = nullptr;
    uint32_t slot_ = 0;
    const ReadSnapshot* snapshot_ = nullptr;
  };

  /// Publishes a new image. Call only from the single publisher thread,
  /// only at a quiescent barrier (the copy must not race the writer —
  /// take it under Flush()). Returns false when a straggling reader
  /// kept the stale slot pinned for the whole `publish_wait_usec`; the
  /// previous snapshot then simply stays current (counted in
  /// SkippedPublishes).
  bool Publish(std::unique_ptr<const SignificanceEstimator> table,
               uint64_t records);

  /// Pins and returns the current snapshot; a null Ref before the first
  /// Publish. Lock-free: one fetch_add + one recheck load per call.
  Ref Acquire() const;

  /// Sequence number of the newest published snapshot (0 = none yet).
  uint64_t PublishedSeq() const {
    return seq_.load(std::memory_order_relaxed);
  }

  /// Publishes abandoned because a reader pinned the stale slot.
  uint64_t SkippedPublishes() const {
    return skipped_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    mutable std::atomic<uint32_t> readers{0};
    ReadSnapshot snapshot;  // publisher-written only while the slot is
                            // inactive and reader-free
  };

  Slot slots_[2];
  std::atomic<int32_t> active_{-1};  // -1 = nothing published yet
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> skipped_{0};
  uint64_t wait_usec_;
};

}  // namespace ltc

#endif  // LTC_CORE_READ_SNAPSHOT_H_
