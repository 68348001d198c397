// Structure-of-arrays storage for the lossy table, behind a cell-access
// API that keeps every caller off the raw lanes.
//
// The paper's per-insert cost is dominated by comparing an arriving ID
// against the d cells of its routed bucket (§III-B Cases 1–3). With the
// former array-of-structs layout (one 17-byte logical Cell per slot) that
// probe walked a strided pointer chain; here each field lives in its own
// contiguous lane, bucket-major:
//
//   ids:      [b0c0 b0c1 .. b0c(d-1) | b1c0 ..]   8 B per cell
//   freqs:    [        same order         ]        4 B
//   counters: [        same order         ]        4 B
//   flags:    [        same order         ]        1 B
//
// so a bucket's d IDs are one dense 8·d-byte run and the probe becomes a
// handful of vector compares (SSE2/AVX2, runtime-dispatched, scalar
// fallback). Callers never index the lanes directly: TableLayout hands
// out BucketView / CellRef accessors, and Ltc's audit, merge and clone
// go through them. The CLOCK sweep is TableLayout's own lane-wise
// kernel, SweepFlags. The one exception is serialization, which copies
// each whole lane in bulk through the lane accessors: the v3 checkpoint
// image is these four lanes back to back.
//
// Probe semantics (identical across every backend, pinned by
// tests/table_layout_test.cc): `match` is the LOWEST cell index whose ID
// equals the key, `empty` the LOWEST index whose ID is zero; -1 when
// absent. ID zero is the reserved empty marker (core/ltc.h), so a pure
// ID compare is exact — Ltc's structural invariant forces id==0 cells to
// be fully zeroed, making "id == 0" and "IsEmpty" the same predicate on
// every reachable table state.

#ifndef LTC_CORE_TABLE_LAYOUT_H_
#define LTC_CORE_TABLE_LAYOUT_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stream/stream.h"

namespace ltc {

/// Which implementation services bucket probes. Resolution order:
/// LTC_PROBE env override (scalar|sse2|avx2), else the best the CPU
/// supports, else scalar. An unsupported request silently degrades to
/// the best supported backend so a stale env var can never crash.
enum class ProbeBackend : uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Human-readable backend name ("scalar" / "sse2" / "avx2"), used to
/// label bench_speed's probe cases and its JSON context (docs/PERF.md).
const char* ProbeBackendName(ProbeBackend backend);

/// The most capable backend this CPU can run.
ProbeBackend BestSupportedProbeBackend();

/// The backend probes currently dispatch to (resolved on first use).
ProbeBackend ActiveProbeBackend();

/// Forces the dispatch to `backend` if supported (bench A/B runs, the
/// layout-equivalence test); returns the backend actually active after
/// the call. Not thread-safe against in-flight probes on other threads;
/// switch only while tables are quiescent.
ProbeBackend SetProbeBackend(ProbeBackend backend);

/// Result of probing one bucket for a key: lowest matching cell index
/// and lowest empty (id==0) cell index, -1 each when absent.
struct BucketProbe {
  int32_t match = -1;
  int32_t empty = -1;
};

namespace internal {
/// Raw probe entry point, exported for the layout-equivalence test
/// (which pins every backend against the scalar reference). `ids` is a
/// bucket's contiguous ID lane of `d` entries.
BucketProbe ProbeIds(const uint64_t* ids, uint32_t d, uint64_t key,
                     ProbeBackend backend);
}  // namespace internal

/// Read-only view of one cell: four lane pointers, no layout arithmetic
/// at the call site.
class ConstCellRef {
 public:
  ConstCellRef(const uint64_t* id, const uint32_t* freq,
               const uint32_t* counter, const uint8_t* flags)
      : id_(id), freq_(freq), counter_(counter), flags_(flags) {}

  uint64_t id() const { return *id_; }
  uint32_t freq() const { return *freq_; }
  uint32_t counter() const { return *counter_; }
  uint8_t flags() const { return *flags_; }

 private:
  const uint64_t* id_;
  const uint32_t* freq_;
  const uint32_t* counter_;
  const uint8_t* flags_;
};

/// Mutable view of one cell. Cheap to copy (it is the SoA replacement
/// for `Cell&`); converts implicitly to ConstCellRef like T* -> const T*.
class CellRef {
 public:
  CellRef(uint64_t* id, uint32_t* freq, uint32_t* counter, uint8_t* flags)
      : id_(id), freq_(freq), counter_(counter), flags_(flags) {}

  uint64_t id() const { return *id_; }
  uint32_t freq() const { return *freq_; }
  uint32_t counter() const { return *counter_; }
  uint8_t flags() const { return *flags_; }

  void set_id(uint64_t v) { *id_ = v; }
  void set_freq(uint32_t v) { *freq_ = v; }
  void set_counter(uint32_t v) { *counter_ = v; }
  void set_flags(uint8_t v) { *flags_ = v; }

  /// Resets the cell to the canonical empty state (all lanes zero).
  void Clear() {
    *id_ = 0;
    *freq_ = 0;
    *counter_ = 0;
    *flags_ = 0;
  }

  // NOLINTNEXTLINE(google-explicit-constructor): mirrors T* -> const T*.
  operator ConstCellRef() const { return {id_, freq_, counter_, flags_}; }

 private:
  uint64_t* id_;
  uint32_t* freq_;
  uint32_t* counter_;
  uint8_t* flags_;
};

/// Read-only view of one bucket: the lane segments of its d cells.
class ConstBucketView {
 public:
  ConstBucketView(const uint64_t* ids, const uint32_t* freqs,
                  const uint32_t* counters, const uint8_t* flags, uint32_t d)
      : ids_(ids), freqs_(freqs), counters_(counters), flags_(flags), d_(d) {}

  uint32_t size() const { return d_; }

  ConstCellRef cell(uint32_t i) const {
    assert(i < d_);
    return {ids_ + i, freqs_ + i, counters_ + i, flags_ + i};
  }

  /// The vectorized bucket probe: one compare of `key` (and the empty
  /// marker 0) against the whole ID lane.
  BucketProbe Probe(ItemId key) const;

 private:
  const uint64_t* ids_;
  const uint32_t* freqs_;
  const uint32_t* counters_;
  const uint8_t* flags_;
  uint32_t d_;
};

/// Mutable view of one bucket.
class BucketView {
 public:
  BucketView(uint64_t* ids, uint32_t* freqs, uint32_t* counters,
             uint8_t* flags, uint32_t d)
      : ids_(ids), freqs_(freqs), counters_(counters), flags_(flags), d_(d) {}

  uint32_t size() const { return d_; }

  CellRef cell(uint32_t i) const {
    assert(i < d_);
    return {ids_ + i, freqs_ + i, counters_ + i, flags_ + i};
  }

  BucketProbe Probe(ItemId key) const { return AsConst().Probe(key); }

  ConstBucketView AsConst() const {
    return {ids_, freqs_, counters_, flags_, d_};
  }

  operator ConstBucketView() const { return AsConst(); }  // NOLINT

 private:
  uint64_t* ids_;
  uint32_t* freqs_;
  uint32_t* counters_;
  uint8_t* flags_;
  uint32_t d_;
};

/// The SoA cell store: w buckets × d cells, one lane per field.
class TableLayout {
 public:
  TableLayout() = default;
  TableLayout(uint32_t num_buckets, uint32_t cells_per_bucket)
      : num_buckets_(num_buckets), cells_per_bucket_(cells_per_bucket) {
    const size_t m =
        static_cast<size_t>(num_buckets) * cells_per_bucket;
    ids_.assign(m, 0);
    freqs_.assign(m, 0);
    counters_.assign(m, 0);
    flags_.assign(m, 0);
  }

  uint32_t num_buckets() const { return num_buckets_; }
  uint32_t cells_per_bucket() const { return cells_per_bucket_; }
  size_t num_cells() const { return ids_.size(); }

  BucketView bucket(uint32_t b) {
    const size_t base = BaseOf(b);
    return {ids_.data() + base, freqs_.data() + base,
            counters_.data() + base, flags_.data() + base,
            cells_per_bucket_};
  }
  ConstBucketView bucket(uint32_t b) const {
    const size_t base = BaseOf(b);
    return {ids_.data() + base, freqs_.data() + base,
            counters_.data() + base, flags_.data() + base,
            cells_per_bucket_};
  }

  /// Flat cell access for whole-table walks; index order matches
  /// bucket-major cell order (bucket b's cells occupy indices
  /// [b·d, (b+1)·d)).
  CellRef cell(size_t index) {
    assert(index < ids_.size());
    return {ids_.data() + index, freqs_.data() + index,
            counters_.data() + index, flags_.data() + index};
  }
  ConstCellRef cell(size_t index) const {
    assert(index < ids_.size());
    return {ids_.data() + index, freqs_.data() + index,
            counters_.data() + index, flags_.data() + index};
  }

  /// Whole lanes, bucket-major, for bulk (de)serialization.
  std::span<uint64_t> ids() { return ids_; }
  std::span<uint32_t> freqs() { return freqs_; }
  std::span<uint32_t> counters() { return counters_; }
  std::span<uint8_t> flags() { return flags_; }
  std::span<const uint64_t> ids() const { return ids_; }
  std::span<const uint32_t> freqs() const { return freqs_; }
  std::span<const uint32_t> counters() const { return counters_; }
  std::span<const uint8_t> flags() const { return flags_; }

  /// True iff bucket b holds the same cells, lane for lane, in this
  /// table and in `other` (which must have the same geometry).
  bool SameBucket(const TableLayout& other, uint32_t b) const;

  /// The CLOCK sweep kernel (§III-B), for Ltc's pointer advance and its
  /// Finalize: every cell in [begin, end) gains one persistency credit
  /// per bit of `mask` its flags hold, and those bits are cleared. With
  /// kCountOccupied it also returns how many of those cells are
  /// occupied (nonzero ID), for the metrics sink's occupancy sample;
  /// else 0. The ID lane alone decides: Ltc's structural invariant
  /// keeps id-0 cells fully zeroed, and a sweep never flags one.
  /// Branch-free over the lanes; the AVX2 probe backend selects an
  /// AVX2 kernel, every other backend the portable loop, which the
  /// compiler vectorizes. Both give the same cells and count.
  template <bool kCountOccupied>
  uint64_t SweepFlags(size_t begin, size_t end, uint8_t mask);

  /// Software-prefetches bucket b's ID lane (the probe's first touch)
  /// and counter lanes. InsertBatch calls this a few records ahead —
  /// the batch already knows the upcoming hashes, so the routed bucket
  /// is warm by the time its probe issues.
  void PrefetchBucket(uint32_t b) const {
#if defined(__GNUC__) || defined(__clang__)
    const size_t base = BaseOf(b);
    __builtin_prefetch(ids_.data() + base, /*rw=*/0, /*locality=*/1);
    __builtin_prefetch(freqs_.data() + base, /*rw=*/1, /*locality=*/1);
#else
    (void)b;
#endif
  }

 private:
  size_t BaseOf(uint32_t b) const {
    assert(b < num_buckets_);
    return static_cast<size_t>(b) * cells_per_bucket_;
  }

  uint32_t num_buckets_ = 0;
  uint32_t cells_per_bucket_ = 0;
  std::vector<uint64_t> ids_;
  std::vector<uint32_t> freqs_;
  std::vector<uint32_t> counters_;
  std::vector<uint8_t> flags_;
};

}  // namespace ltc

#endif  // LTC_CORE_TABLE_LAYOUT_H_
