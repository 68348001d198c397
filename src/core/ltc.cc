#include "core/ltc.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/bob_hash.h"
#include "common/hash.h"

// Hot-path metrics hooks (core/ltc_metrics_sink.h). Compiled only under
// LTC_METRICS so the zero-metrics build is the exact uninstrumented
// code; with the option on, each site is one predicted-not-taken branch
// until a sink is attached. bench_speed's BM_LtcSink cases measure both.
#ifdef LTC_METRICS
#define LTC_METRICS_HOOK(...)        \
  do {                               \
    if (metrics_ != nullptr) {       \
      __VA_ARGS__                    \
    }                                \
  } while (0)
#else
#define LTC_METRICS_HOOK(...) ((void)0)
#endif

namespace ltc {

std::optional<std::string> LtcConfig::Validate() const {
  if (cells_per_bucket == 0) return "cells_per_bucket must be >= 1";
  // Finite weights keep every significance a number, so RanksBefore
  // is a strict total order over a bucket's cells.
  if (!std::isfinite(alpha) || alpha < 0.0) return "alpha must be finite, >= 0";
  if (!std::isfinite(beta) || beta < 0.0) return "beta must be finite, >= 0";
  if (alpha == 0.0 && beta == 0.0) {
    return "alpha and beta cannot both be 0";
  }
  if (period_mode == PeriodMode::kCountBased) {
    if (items_per_period == 0) return "items_per_period must be >= 1";
  } else {
    // !(x > 0) also rejects NaN.
    if (!(period_seconds > 0.0)) return "period_seconds must be > 0";
  }
  return std::nullopt;
}

Ltc::Ltc(const LtcConfig& config) : config_(config) {
  if (auto problem = config.Validate()) {
    throw std::invalid_argument("LtcConfig: " + *problem);
  }
  size_t w = config.memory_bytes /
             (LtcConfig::BytesPerCell() * config.cells_per_bucket);
  num_buckets_ = static_cast<uint32_t>(std::max<size_t>(1, w));
  table_ = TableLayout(num_buckets_, config.cells_per_bucket);
  ResetClockStepper();
}

uint32_t Ltc::BucketOf(ItemId item) const {
  return FastRange32(BobHash32(item, static_cast<uint32_t>(config_.seed)),
                     num_buckets_);
}

void Ltc::ResetClockStepper() {
  if (config_.period_mode != PeriodMode::kCountBased) return;
  const uint64_t m = table_.num_cells();
  const uint64_t n = config_.items_per_period;
  clock_step_div_ = m / n;
  clock_step_mod_ = m % n;
  clock_acc_ = (items_seen_ * m) % n;
  clock_target_ = items_seen_ * m / n;
}

uint8_t Ltc::CurrentFlagMask() const {
  if (!config_.deviation_eliminator) return 0x1;
  return static_cast<uint8_t>(1u << (current_period_ & 1));
}

uint8_t Ltc::ScanFlagMask() const {
  if (!config_.deviation_eliminator) return 0x1;
  // During period p the sweep credits the PREVIOUS period's flag (§III-C);
  // with parity flags that is the bit of opposite parity. In period 0 the
  // opposite-parity bit has never been set, so the sweep is a no-op, as it
  // should be.
  return static_cast<uint8_t>(1u << ((current_period_ & 1) ^ 1));
}

void Ltc::ScanTo(uint64_t target_slot) {
  assert(target_slot <= table_.num_cells());
  if (target_slot <= scan_cursor_) return;
  const uint8_t mask = ScanFlagMask();
#ifdef LTC_METRICS
  // The instrumented sweep is the same pass with the occupancy count
  // on, chosen once per ScanTo; it reads the ID lane alone. Occupancy
  // sampling rides the sweep: every period visits all m slots exactly
  // once, however InsertBatch strides them, so the scratch total at
  // the period boundary is a full occupancy sample.
  if (metrics_ != nullptr) {
    metrics_->clock_steps += target_slot - scan_cursor_;
    metrics_->scan_occupied_scratch +=
        table_.SweepFlags<true>(scan_cursor_, target_slot, mask);
    scan_cursor_ = target_slot;
    return;
  }
#endif
  table_.SweepFlags<false>(scan_cursor_, target_slot, mask);
  scan_cursor_ = target_slot;
}

void Ltc::CompletePeriod() {
  ScanTo(table_.num_cells());
  scan_cursor_ = 0;
  ++current_period_;
  LTC_METRICS_HOOK(
      ++metrics_->periods_completed;
      metrics_->occupied_cells = metrics_->scan_occupied_scratch;
      metrics_->scan_occupied_scratch = 0;);
}

uint64_t Ltc::AdvanceTimeClock(double time) {
  assert(config_.period_mode == PeriodMode::kTimeBased);
  const uint64_t m = table_.num_cells();
  // Time-based (§III-B "when the period is defined by time"): the pointer
  // tracks absolute time, so an arrival gap of (x−y) advances it by
  // (x−y)/t·m slots, completing full sweeps over any skipped periods.
  // The clock never runs backwards: a regressing timestamp is clamped to
  // the latest one seen (pinned by period_edge_test; previously this was
  // an assert, which release builds skipped right into a negative-offset
  // cast).
  if (time < last_time_) time = last_time_;
  last_time_ = time;
  const double t = config_.period_seconds;
  while (time >= (static_cast<double>(current_period_) + 1.0) * t) {
    CompletePeriod();
  }
  double offset = time - static_cast<double>(current_period_) * t;
  auto target = static_cast<uint64_t>(offset / t * static_cast<double>(m));
  return std::min(target, m);
}

uint64_t Ltc::AdvanceCountClock() {
  // The pointer's position after this arrival is ⌊items_seen·m/n⌋
  // within the period, maintained incrementally.
  const uint64_t n = config_.items_per_period;
  if (++items_seen_ >= n) {
    CompletePeriod();
    items_seen_ = 0;
    clock_acc_ = 0;
    clock_target_ = 0;
    return 0;
  }
  clock_target_ += clock_step_div_;
  clock_acc_ += clock_step_mod_;
  if (clock_acc_ >= n) {
    clock_acc_ -= n;
    ++clock_target_;
  }
  return clock_target_;
}

void Ltc::PlaceItem(BucketView bucket, uint32_t cell_index, ItemId item) {
  uint32_t init_freq = 1;
  uint32_t init_counter = 0;
  switch (config_.EffectiveInitPolicy()) {
    case InitPolicy::kOne:
    case InitPolicy::kMinPlusOne:  // handled in UpdateBucket; unreachable
      break;
    case InitPolicy::kLongTail: {
      // Long-tail Replacement (§III-D): the expelled minimum's true value
      // is approximately the bucket's (old) second-smallest value − 1, so
      // the newcomer — which in Case I earned its slot by arriving that
      // many times — starts there instead of at 1.
      uint32_t min_freq = 0;
      uint32_t min_counter = 0;
      bool have_other = false;
      const uint32_t d = bucket.size();
      for (uint32_t i = 0; i < d; ++i) {
        if (i == cell_index) continue;
        ConstCellRef other = bucket.cell(i);
        if (IsEmpty(other)) continue;
        if (!have_other) {
          min_freq = other.freq();
          min_counter = other.counter();
          have_other = true;
        } else {
          min_freq = std::min(min_freq, other.freq());
          min_counter = std::min(min_counter, other.counter());
        }
      }
      if (have_other) {
        init_freq = min_freq > 1 ? min_freq - 1 : 1;
        init_counter = min_counter > 0 ? min_counter - 1 : 0;
        LTC_METRICS_HOOK(++metrics_->longtail_replacements;);
      }
      break;
    }
  }
  CellRef cell = bucket.cell(cell_index);
  cell.set_id(item);
  cell.set_freq(init_freq);
  cell.set_counter(init_counter);
  cell.set_flags(CurrentFlagMask());
}

void Ltc::UpdateBucket(ItemId item, uint32_t bucket_index) {
  assert(item != 0 && "ItemId 0 is reserved for empty cells");
  assert(bucket_index == BucketOf(item));
  BucketView bucket = table_.bucket(bucket_index);
  // The hot probe: one vector compare of the arriving ID (and the empty
  // marker) against the bucket's contiguous ID lane. ID zero is the
  // reserved empty marker and empty cells are fully zeroed (structural
  // invariant), so the ID-only compare is exactly the old
  // "id == item && !IsEmpty" / "IsEmpty" pair.
  const BucketProbe probe = bucket.Probe(item);

  if (probe.match >= 0) {
    // Case 1: tracked — bump frequency, mark "appeared this period".
    CellRef cell = bucket.cell(static_cast<uint32_t>(probe.match));
    cell.set_freq(cell.freq() + 1);
    cell.set_flags(static_cast<uint8_t>(cell.flags() | CurrentFlagMask()));
    LTC_METRICS_HOOK(++metrics_->inserts_tracked;);
  } else if (probe.empty >= 0) {
    // Case 2: free slot — admit with initial values (1, 0).
    CellRef cell = bucket.cell(static_cast<uint32_t>(probe.empty));
    cell.set_id(item);
    cell.set_freq(1);
    cell.set_counter(0);
    cell.set_flags(CurrentFlagMask());
    LTC_METRICS_HOOK(++metrics_->inserts_admitted;);
  } else {
    // Case 3: full bucket — Significance Decrementing on the smallest
    // cell; the newcomer is admitted only if that empties it. The FP
    // significance min-scan stays scalar: it runs only on the full-bucket
    // path, and its compare order must match the AoS seed bit-for-bit.
    const uint32_t d = bucket.size();
    uint32_t smallest = 0;
    double smallest_sig = SignificanceOf(bucket.cell(0));
    for (uint32_t i = 1; i < d; ++i) {
      double sig = SignificanceOf(bucket.cell(i));
      if (sig < smallest_sig) {
        smallest_sig = sig;
        smallest = i;
      }
    }
    CellRef cell = bucket.cell(smallest);
    LTC_METRICS_HOOK(++metrics_->inserts_decremented;);
    if (config_.EffectiveInitPolicy() == InitPolicy::kMinPlusOne) {
      // Space-Saving's takeover (§I): no decrementing — the newcomer
      // replaces the minimum outright and inherits its value + 1.
      cell.set_id(item);
      cell.set_freq(cell.freq() + 1);
      cell.set_flags(CurrentFlagMask());
      LTC_METRICS_HOOK(++metrics_->expulsions;);
    } else {
      LTC_METRICS_HOOK(++metrics_->significance_decrements;);
      if (cell.counter() > 0) cell.set_counter(cell.counter() - 1);
      if (cell.freq() > 0) cell.set_freq(cell.freq() - 1);
      if (SignificanceOf(cell) == 0.0) {
        LTC_METRICS_HOOK(++metrics_->expulsions;);
        cell.Clear();
        PlaceItem(bucket, smallest, item);
      }
    }
  }
}

void Ltc::InsertBatch(std::span<const Record> records) {
  // Must leave the table in exactly the state one bucket-update plus
  // clock-advance per record would (pinned by tests/ingest_pipeline_test,
  // the differential oracle and the LtcSweep suite): same bucket
  // updates, same clock advances, in the same order. The wins over a
  // naive loop: the count-based CLOCK step is an incremental add
  // (ResetClockStepper documents the invariant), each record's routed
  // bucket is prefetched kPrefetchAhead records before its probe issues
  // (the batch already knows the next hashes, so the bucket lanes are
  // warm when the vector compare needs them), and the sweep is
  // deferred. Each item is hashed exactly once (the ring carries the
  // result).
  //
  // The deferred sweep: the pointer's target moves on every record, but
  // the slots it passed, [scan_cursor_, target), stay pending until an
  // arrival routes into a bucket with a cell among them, a period ends,
  // or the batch ends. Only an update writes cells, and none has
  // touched a pending cell, so sweeping them late gives the same cells
  // and the same sink counts as sweeping them on time, in one longer
  // SweepFlags call instead of one short call per record.
  const size_t count = records.size();
  if (count == 0) return;

  constexpr size_t kPrefetchAhead = 8;
  uint32_t bucket_ring[kPrefetchAhead];
  const size_t ahead = std::min(kPrefetchAhead, count);
  for (size_t i = 0; i < ahead; ++i) {
    bucket_ring[i] = BucketOf(records[i].item);
    table_.PrefetchBucket(bucket_ring[i]);
  }

  const bool time_based = config_.period_mode == PeriodMode::kTimeBased;
  const uint64_t d = config_.cells_per_bucket;
  uint64_t target = scan_cursor_;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t bucket = bucket_ring[i % kPrefetchAhead];
    if (i + ahead < count) {
      const uint32_t next = BucketOf(records[i + ahead].item);
      bucket_ring[(i + ahead) % kPrefetchAhead] = next;
      table_.PrefetchBucket(next);
    }
    // Time-based pacing moves the clock before the update, so the flag
    // lands in this arrival's period; count-based pacing after it.
    if (time_based) target = AdvanceTimeClock(records[i].time);
    const uint64_t first = bucket * d;
    if (first < target && first + d > scan_cursor_) ScanTo(target);
    UpdateBucket(records[i].item, bucket);
    if (!time_based) target = AdvanceCountClock();
#ifdef LTC_AUDIT
    ScanTo(target);
    AuditAfterInsert(records[i].item);
#endif
  }
  ScanTo(target);
}

void Ltc::Finalize() {
  // Credit every pending flag: the previous-period flag of cells the sweep
  // has not reached this period, plus the current period's flag (a period
  // is only credited by the NEXT period's sweep, which will never run).
  // The mask is every flag bit the scheme uses (CheckInvariants allows
  // no others), so every flag ends cleared.
  table_.SweepFlags<false>(0, table_.num_cells(),
                           config_.deviation_eliminator ? 0x3 : 0x1);
}

bool Ltc::IsTracked(ItemId item) const {
  if (item == 0) return false;  // the empty marker is never tracked
  ConstBucketView bucket = table_.bucket(BucketOf(item));
  return bucket.Probe(item).match >= 0;
}

double Ltc::QuerySignificance(ItemId item) const {
  if (item == 0) return 0.0;
  ConstBucketView bucket = table_.bucket(BucketOf(item));
  const BucketProbe probe = bucket.Probe(item);
  if (probe.match < 0) return 0.0;
  return SignificanceOf(bucket.cell(static_cast<uint32_t>(probe.match)));
}

uint64_t Ltc::EstimateFrequency(ItemId item) const {
  if (item == 0) return 0;
  ConstBucketView bucket = table_.bucket(BucketOf(item));
  const BucketProbe probe = bucket.Probe(item);
  if (probe.match < 0) return 0;
  return bucket.cell(static_cast<uint32_t>(probe.match)).freq();
}

uint64_t Ltc::EstimatePersistency(ItemId item) const {
  if (item == 0) return 0;
  ConstBucketView bucket = table_.bucket(BucketOf(item));
  const BucketProbe probe = bucket.Probe(item);
  if (probe.match < 0) return 0;
  return bucket.cell(static_cast<uint32_t>(probe.match)).counter();
}

std::vector<Ltc::Report> Ltc::TopK(size_t k) const {
  std::vector<Report> all;
  const size_t m = table_.num_cells();
  all.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    ConstCellRef cell = table_.cell(i);
    if (!IsEmpty(cell)) {
      all.push_back(
          {cell.id(), cell.freq(), cell.counter(), SignificanceOf(cell)});
    }
  }
  RankReports(&all, k);
  return all;
}

std::vector<Ltc::Report> Ltc::ItemsAbove(double threshold) const {
  std::vector<Report> all;
  const size_t m = table_.num_cells();
  for (size_t i = 0; i < m; ++i) {
    ConstCellRef cell = table_.cell(i);
    if (IsEmpty(cell)) continue;
    double sig = SignificanceOf(cell);
    if (sig >= threshold) {
      all.push_back({cell.id(), cell.freq(), cell.counter(), sig});
    }
  }
  RankReports(&all, all.size());
  return all;
}

std::vector<Ltc::Report> Ltc::SnapshotTopK(size_t k) const {
  const uint8_t pending_mask = config_.deviation_eliminator ? 0x3 : 0x1;
  std::vector<Report> all;
  const size_t m = table_.num_cells();
  all.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    ConstCellRef cell = table_.cell(i);
    if (IsEmpty(cell)) continue;
    uint64_t credited =
        cell.counter() + static_cast<uint64_t>(__builtin_popcount(
                             cell.flags() & pending_mask));
    all.push_back({cell.id(), cell.freq(), credited,
                   config_.alpha * cell.freq() + config_.beta * credited});
  }
  RankReports(&all, k);
  return all;
}

Ltc::TableStats Ltc::ComputeStats() const {
  TableStats stats;
  double sig_sum = 0.0;
  for (uint32_t b = 0; b < num_buckets_; ++b) {
    ConstBucketView bucket = table_.bucket(b);
    bool full = true;
    for (uint32_t i = 0; i < bucket.size(); ++i) {
      ConstCellRef cell = bucket.cell(i);
      if (IsEmpty(cell)) {
        ++stats.empty_cells;
        full = false;
      } else {
        ++stats.occupied_cells;
        sig_sum += SignificanceOf(cell);
        stats.max_frequency =
            std::max<uint64_t>(stats.max_frequency, cell.freq());
        stats.max_persistency =
            std::max<uint64_t>(stats.max_persistency, cell.counter());
      }
    }
    if (full) ++stats.full_buckets;
  }
  if (stats.occupied_cells > 0) {
    // One guard covers both ratios: occupied_cells > 0 implies a
    // non-empty table, so neither denominator can be zero, and an empty
    // table keeps the zero-initialized values instead of producing NaN.
    stats.occupancy =
        static_cast<double>(stats.occupied_cells) / table_.num_cells();
    stats.avg_significance = sig_sum / stats.occupied_cells;
  }
  return stats;
}

bool Ltc::CanMergeWith(const Ltc& other) const {
  return num_buckets_ == other.num_buckets_ &&
         config_.cells_per_bucket == other.config_.cells_per_bucket &&
         config_.seed == other.config_.seed &&
         config_.alpha == other.config_.alpha &&
         config_.beta == other.config_.beta &&
         config_.deviation_eliminator == other.config_.deviation_eliminator;
}

bool Ltc::MergeBucket(BucketView mine, ConstBucketView theirs,
                      MergeScratch& scratch) const {
  const uint32_t d = mine.size();
  MergeCell* cells = scratch.cells.data();
  for (uint32_t i = 0; i < d; ++i) LoadMergeCell(mine.cell(i), cells[i]);
  // A probe of my ID lane names the slot a matching cell of theirs adds
  // into. Bucket IDs are unique (CheckInvariants), so only their cells
  // need matching, and each matches at most one of mine. A one-word
  // sketch of my IDs spares most of their cells the probe.
  const auto sketch_bit = [](ItemId id) {
    return uint64_t{1} << (id * uint64_t{0x9E3779B97F4A7C15} >> 58);
  };
  uint64_t my_ids = 0;
  for (uint32_t i = 0; i < d; ++i) my_ids |= sketch_bit(cells[i].id);
  uint32_t n = d;
  bool matched = false;
  for (uint32_t j = 0; j < d; ++j) {
    ConstCellRef cell = theirs.cell(j);
    if (cell.id() == 0) continue;
    const int32_t at = (my_ids & sketch_bit(cell.id())) != 0
                           ? mine.Probe(cell.id()).match
                           : -1;
    if (at < 0) {
      LoadMergeCell(cell, cells[n++]);
      continue;
    }
    matched = true;
    MergeCell& into = cells[at];
    into.freq += cell.freq();
    into.counter += cell.counter();
    into.flags |= cell.flags();
    into.significance = SignificanceOf(into);
  }
  // Keep the d best occupants by RanksBefore, best first.
  uint32_t* order = scratch.order.data();
  uint32_t kept = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const MergeCell& cell = cells[i];
    if (cell.id == 0) continue;
    if (kept == d && !RanksBefore(cell, cells[order[d - 1]])) continue;
    uint32_t pos = kept < d ? kept++ : d - 1;
    for (; pos > 0 && RanksBefore(cell, cells[order[pos - 1]]); --pos) {
      order[pos] = order[pos - 1];
    }
    order[pos] = i;
  }
  for (uint32_t i = 0; i < d; ++i) {
    if (i < kept) {
      StoreCell(cells[order[i]], mine.cell(i));
    } else {
      mine.cell(i).Clear();
    }
  }
  return matched;
}

void Ltc::MergeScalarsFrom(const Ltc& other) {
  // Summed counters can legitimately span both inputs' histories; widen
  // the per-table persistency cap accordingly (see CheckInvariants).
  merged_history_periods_ += other.current_period_ +
                             other.merged_history_periods_ + 1;
  current_period_ = std::max(current_period_, other.current_period_);
}

bool Ltc::MergeFrom(const Ltc& other) {
  if (!CanMergeWith(other)) return false;
  MergeScratch scratch(config_.cells_per_bucket);
  for (uint32_t b = 0; b < num_buckets_; ++b) {
    MergeBucket(table_.bucket(b), other.table_.bucket(b), scratch);
  }
  MergeScalarsFrom(other);
  return true;
}

Ltc::CellLanes Ltc::LanesOf() const {
  return {reinterpret_cast<const char*>(table_.ids().data()),
          reinterpret_cast<const char*>(table_.freqs().data()),
          reinterpret_cast<const char*>(table_.counters().data()),
          reinterpret_cast<const char*>(table_.flags().data())};
}

uint32_t Ltc::LoadBucket(uint32_t b, MergeCell* cells,
                         ItemId* occupants) const {
  const uint32_t d = config_.cells_per_bucket;
  ConstBucketView bucket = table_.bucket(b);
  uint32_t n = 0;
  for (uint32_t i = 0; i < d; ++i) {
    LoadMergeCell(bucket.cell(i), cells[i]);
    if (cells[i].id == 0) {
      // Empty cells rank last, among themselves by index: significance
      // -1 is below every occupant's, and the index stands in for the ID.
      cells[i] = {-1.0, i, 0, 0, 0};
      continue;
    }
    occupants[n++] = cells[i].id;
  }
  return n;
}

uint32_t Ltc::CopyBucketIn(const CellLanes& image, uint32_t b,
                           MergeCell* cells, ItemId* fresh) {
  const uint32_t d = config_.cells_per_bucket;
  const size_t base = size_t{b} * d;
  BucketView bucket = table_.bucket(b);
  // Updates and admissions write a cell in place, so most cells keep
  // their ID. The cells whose ID changed are listed, new IDs in `fresh`
  // and old ones in `gone`, without a branch.
  ItemId* gone = fresh + d;
  uint32_t moved = 0;
  for (uint32_t i = 0; i < d; ++i) {
    MergeCell& cell = cells[i];
    cell = {0.0, image.id(base + i), image.freq(base + i),
            image.counter(base + i), image.flag(base + i)};
    cell.significance = SignificanceOf(cell);
    CellRef into = bucket.cell(i);
    fresh[moved] = cell.id;
    gone[moved] = into.id();
    moved += cell.id != into.id();
    StoreCell(cell, into);
    if (cell.id == 0) cell = {-1.0, i, 0, 0, 0};  // as LoadBucket
  }
  // A new ID the old bucket held sat in another cell whose ID changed.
  uint32_t n = 0;
  for (uint32_t k = 0; k < moved; ++k) {
    const ItemId id = fresh[k];
    if (id != 0 && std::find(gone, gone + moved, id) == gone + moved) {
      fresh[n++] = id;
    }
  }
  return n;
}

uint32_t Ltc::RankCells(const MergeCell* cells, uint32_t d,
                        uint32_t* order) {
  uint32_t occupied = 0;
  for (uint32_t i = 0; i < d; ++i) occupied += cells[i].significance >= 0.0;
  // Insertion sort from the bucket's previous order, which a push
  // mostly leaves in place; a new lane's zeros become 0..d-1 first.
  if (d > 1 && order[0] == order[1]) std::iota(order, order + d, 0u);
  for (uint32_t i = 1; i < d; ++i) {
    const uint32_t at = order[i];
    uint32_t pos = i;
    for (; pos > 0 && RanksBefore(cells[at], cells[order[pos - 1]]); --pos) {
      order[pos] = order[pos - 1];
    }
    order[pos] = at;
  }
  return occupied;
}

bool Ltc::SourcesShareAnId(std::span<const RankedSource> sources,
                           uint32_t b) const {
  // A sketch of the IDs of the sources read so far filters the exact
  // compare: only an ID whose bit is already set is probed for in the
  // earlier sources. IDs within one bucket are unique, so a source is
  // not compared with itself.
  IdSketch seen;
  for (size_t s = 0; s < sources.size(); ++s) {
    ConstBucketView theirs = sources[s].table->table_.bucket(b);
    IdSketch added;
    for (uint32_t i = 0; i < theirs.size(); ++i) {
      const ItemId id = theirs.cell(i).id();
      if (id == 0) continue;
      if (seen.MayHold(id)) {
        for (size_t t = 0; t < s; ++t) {
          if (sources[t].table->table_.bucket(b).Probe(id).match >= 0) {
            return true;
          }
        }
      }
      added.Add(id);
    }
    seen.Add(added);
  }
  return false;
}

bool Ltc::PusherSharesAnId(std::span<const RankedSource> sources,
                           size_t pusher, uint32_t b,
                           std::span<const ItemId> ids) {
  for (const ItemId id : ids) {
    for (size_t s = 0; s < sources.size(); ++s) {
      if (s != pusher &&
          sources[s].table->table_.bucket(b).Probe(id).match >= 0) {
        return true;
      }
    }
  }
  return false;
}

bool Ltc::RefoldAgainstPusher(const PushedRun& run, uint8_t slot, bool alone,
                              uint32_t b, FoldState& state,
                              MergeScratch& scratch) {
  const uint32_t d = config_.cells_per_bucket;
  BucketView bucket = table_.bucket(b);
  uint8_t* tags = state.tags.data() + size_t{b} * d;
  // The cutoff test. A full old bucket may have left cells of the other
  // sources out, each ranked after its d-th cell; the result is exact
  // only if it is full too and its own d-th cell ranks at or before
  // that one. With no other source, nothing was left out.
  const bool cut = !alone && bucket.cell(d - 1).id() != 0;
  MergeCell old_last{};
  if (cut) LoadMergeCell(bucket.cell(d - 1), old_last);
  // The other sources' share of the old bucket, best first: the old
  // bucket is ranked, so dropping the pusher's cells keeps the order.
  // Every cell is loaded and the kept ones advance the end.
  MergeCell* cells = scratch.cells.data();
  uint8_t* cell_tags = scratch.tags.data();
  uint32_t kept = 0;
  for (uint32_t i = 0; i < d; ++i) {
    ConstCellRef cell = bucket.cell(i);
    LoadMergeCell(cell, cells[kept]);
    cell_tags[kept] = tags[i];
    kept += static_cast<uint32_t>((cell.id() != 0) & (tags[i] != slot));
  }
  const uint32_t n = std::min(d, kept + run.size);
  if (cut && n < d) return false;
  // Then the pusher's run, from d + 1 on. Each run ends in a marker at
  // significance -1, which ranks after every occupant, so a spent run's
  // head is never taken.
  const MergeCell end{-1.0, 0, 0, 0, 0};
  cells[kept] = end;
  const uint32_t ours = d + 1;
  for (uint32_t k = 0; k < run.size; ++k) {
    cells[ours + k] = run.cells[run.order[k]];
    cell_tags[ours + k] = slot;
  }
  cells[ours + run.size] = end;
  // The two-way merge: each step stores the better of the two heads.
  // The head is picked by index, so the step compiles to a conditional
  // move rather than a branch the compare's coin flip would mispredict.
  uint32_t from_rest = 0;
  uint32_t from_run = ours;
  uint32_t last = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const bool take_rest = RanksBefore(cells[from_rest], cells[from_run]);
    last = take_rest ? from_rest : from_run;
    StoreCell(cells[last], bucket.cell(i));
    tags[i] = cell_tags[last];
    from_rest += take_rest;
    from_run += !take_rest;
  }
  for (uint32_t i = n; i < d; ++i) bucket.cell(i).Clear();
  return !cut || !RanksBefore(old_last, cells[last]);
}

void Ltc::RefoldAllSources(std::span<const RankedSource> sources, uint32_t b,
                           MergeScratch& scratch, uint8_t* tags) {
  const uint32_t d = config_.cells_per_bucket;
  const size_t base = size_t{b} * d;
  const size_t n = sources.size();
  BucketView bucket = table_.bucket(b);
  // Per source: how much of its ranked run is taken, and the next cell
  // of it, loaded. A spent run's head ranks below every occupant
  // (significances are >= 0), so it is never taken.
  std::span<MergeCell> heads(scratch.heads);
  std::span<uint32_t> taken(scratch.taken);
  const MergeCell spent{-1.0, 0, 0, 0, 0};
  std::fill(taken.begin(), taken.end(), 0u);
  const auto load_head = [&](size_t s) {
    heads[s] = spent;
    if (taken[s] == d) return;
    const RankedSource& source = sources[s];
    ConstCellRef cell =
        source.table->table_.cell(base + source.rank[base + taken[s]]);
    if (cell.id() != 0) LoadMergeCell(cell, heads[s]);
  };
  for (size_t s = 0; s < n; ++s) load_head(s);
  uint32_t kept = 0;
  for (; kept < d; ++kept) {
    size_t best = 0;
    for (size_t s = 1; s < n; ++s) {
      best = RanksBefore(heads[s], heads[best]) ? s : best;
    }
    if (heads[best].id == 0) break;
    StoreCell(heads[best], bucket.cell(kept));
    if (tags != nullptr) tags[kept] = sources[best].slot;
    ++taken[best];
    load_head(best);
  }
  for (uint32_t i = kept; i < d; ++i) bucket.cell(i).Clear();
}

uint64_t Ltc::RefoldBucket(std::span<const RankedSource> sources, uint32_t b,
                           FoldState* state, size_t pusher,
                           const PushedRun& run, std::span<const ItemId> fresh,
                           MergeScratch& scratch) {
  const uint32_t d = config_.cells_per_bucket;
  uint8_t* tags =
      state != nullptr ? state->tags.data() + size_t{b} * d : nullptr;
  bool shared;
  if (state != nullptr && state->disjoint[b]) {
    shared = PusherSharesAnId(sources, pusher, b, fresh);
    if (!shared && RefoldAgainstPusher(run, sources[pusher].slot,
                                       sources.size() == 1, b, *state,
                                       scratch)) {
      ++state->paths.two_way;
      return 0;
    }
  } else {
    shared = SourcesShareAnId(sources, b);
  }
  if (!shared) {
    RefoldAllSources(sources, b, scratch, tags);
    if (state != nullptr) {
      state->disjoint[b] = 1;
      ++state->paths.n_way;
    }
    return 0;
  }
  // MergeFrom's own steps, each counted when it adds a shared ID.
  BucketView bucket = table_.bucket(b);
  for (uint32_t i = 0; i < d; ++i) bucket.cell(i).Clear();
  uint64_t matched_steps = 0;
  for (const RankedSource& source : sources) {
    matched_steps +=
        MergeBucket(bucket, source.table->table_.bucket(b), scratch);
  }
  if (state != nullptr) {
    state->disjoint[b] = 0;
    ++state->paths.stepwise;
  }
  return matched_steps;
}

void Ltc::RefoldScalars(std::span<const RankedSource> sources) {
  current_period_ = 0;
  merged_history_periods_ = 0;
  for (const RankedSource& source : sources) MergeScalarsFrom(*source.table);
}

uint64_t Ltc::RefoldPush(std::span<const RankedSource> sources,
                         std::span<const uint32_t> buckets, FoldState* state,
                         size_t pusher, const PushedSource& pushed,
                         std::string_view image) {
  Ltc& table = *pushed.table;
  assert(sources[pusher].table == &table);
  const uint32_t d = config_.cells_per_bucket;
  MergeScratch scratch(d, sources.size());
  const CellLanes lanes =
      image.empty() ? CellLanes{} : LanesOf(image, table.num_cells());
  if (!image.empty()) table.CopyScalarsIn(image);
  uint64_t matched_steps = 0;
  for (uint32_t b : buckets) {
    MergeCell* cells = scratch.run.data();
    ItemId* fresh = scratch.ids.data();
    const uint32_t fresh_count = image.empty()
                                     ? table.LoadBucket(b, cells, fresh)
                                     : table.CopyBucketIn(lanes, b, cells, fresh);
    uint32_t* order = pushed.rank.data() + size_t{b} * d;
    const PushedRun run{cells, order, RankCells(cells, d, order)};
    matched_steps += RefoldBucket(sources, b, state, pusher, run,
                                  {fresh, fresh_count}, scratch);
  }
  RefoldScalars(sources);
  return matched_steps;
}

std::vector<uint32_t> Ltc::ChangedBuckets(const Ltc& other) const {
  std::vector<uint32_t> changed;
  for (uint32_t b = 0; b < num_buckets_; ++b) {
    if (!table_.SameBucket(other.table_, b)) changed.push_back(b);
  }
  return changed;
}

namespace {
constexpr uint32_t kLtcMagic = 0x4c544331;  // "LTC1"
// v2: explicit format version after the magic (v1 had none); cells as a
//     bucket-major array-of-structs (id, freq, counter, flags per cell).
// v3: cells as lane-major SoA (all ids, all freqs, all counters, all
//     flags), matching TableLayout so checkpoint images mirror the
//     in-memory page shape. Deserialize still accepts v2 images.
constexpr uint32_t kLtcFormatVersionAos = 2;
constexpr uint32_t kLtcFormatVersion = 3;
// The v3 image: the header (magic, version, config), five u64/double
// scalars and the cell count, then the four lanes (8 + 4 + 4 + 1 bytes
// per cell).
constexpr size_t kLtcHeaderBytes = 64;
constexpr size_t kLtcScalarBytes = 6 * 8;
constexpr size_t kLtcBytesPerCellImage = 8 + 4 + 4 + 1;
}  // namespace

void Ltc::SerializeHeader(BinaryWriter& writer) const {
  PutVersionedMagic(writer, kLtcMagic, kLtcFormatVersion);
  writer.PutU64(config_.memory_bytes);
  writer.PutU32(config_.cells_per_bucket);
  writer.PutDouble(config_.alpha);
  writer.PutDouble(config_.beta);
  writer.PutU8(config_.long_tail_replacement ? 1 : 0);
  writer.PutU8(static_cast<uint8_t>(config_.init_policy));
  writer.PutU8(config_.deviation_eliminator ? 1 : 0);
  writer.PutU8(config_.period_mode == PeriodMode::kTimeBased ? 1 : 0);
  writer.PutU64(config_.items_per_period);
  writer.PutDouble(config_.period_seconds);
  writer.PutU64(config_.seed);
}

size_t Ltc::SerializedBytes() const {
  return kLtcHeaderBytes + kLtcScalarBytes +
         table_.num_cells() * kLtcBytesPerCellImage;
}

void Ltc::Serialize(BinaryWriter& writer) const {
  [[maybe_unused]] const size_t start = writer.size();
  SerializeHeader(writer);
  assert(writer.size() - start == kLtcHeaderBytes);

  writer.PutU64(items_seen_);
  writer.PutU64(current_period_);
  writer.PutU64(scan_cursor_);
  writer.PutDouble(last_time_);
  writer.PutU64(merged_history_periods_);

  // One bulk copy per lane: the lanes are the v3 image, in the host's
  // byte order exactly as PutU64/PutU32/PutU8 would write them.
  writer.PutU64(table_.num_cells());
  writer.PutBytes(table_.ids().data(), table_.ids().size_bytes());
  writer.PutBytes(table_.freqs().data(), table_.freqs().size_bytes());
  writer.PutBytes(table_.counters().data(), table_.counters().size_bytes());
  writer.PutBytes(table_.flags().data(), table_.flags().size_bytes());
  assert(writer.size() - start == SerializedBytes());
}

uint64_t Ltc::CounterCap(const LtcConfig& config, uint64_t period,
                         uint64_t merged_history_periods) {
  // Persistency can never exceed the number of periods touched so far —
  // plus whatever history merged-in peers contributed. Under the basic
  // single-flag scheme a period can be credited twice (the 2× deviation
  // of §III-C), so the cap doubles.
  uint64_t cap = period + 1 + merged_history_periods;
  if (!config.deviation_eliminator) cap *= 2;
  return cap;
}

bool Ltc::ClockStateHolds(const LtcConfig& config, uint64_t m,
                          uint64_t items_seen, uint64_t period,
                          uint64_t scan_cursor, double last_time) {
  // The expressions mirror the insert path's exactly, so the comparison
  // is exact.
  if (scan_cursor > m) return false;
  if (config.period_mode == PeriodMode::kCountBased) {
    return items_seen < config.items_per_period &&
           scan_cursor == items_seen * m / config.items_per_period;
  }
  const double t = config.period_seconds;
  const double period_start = static_cast<double>(period) * t;
  const double period_end = (static_cast<double>(period) + 1.0) * t;
  if (!(last_time >= period_start) || !(last_time < period_end)) {
    return false;
  }
  const double offset = last_time - period_start;
  const auto target =
      static_cast<uint64_t>(offset / t * static_cast<double>(m));
  return scan_cursor == std::min(target, m);
}

Ltc::CellLanes Ltc::LanesOf(std::string_view image, size_t num_cells) {
  const char* ids = image.data() + kLtcHeaderBytes + kLtcScalarBytes;
  const char* freqs = ids + num_cells * sizeof(uint64_t);
  const char* counters = freqs + num_cells * sizeof(uint32_t);
  return {ids, freqs, counters, counters + num_cells * sizeof(uint32_t)};
}

Ltc::ImageUpdate Ltc::CheckImage(std::string_view image,
                                 std::vector<uint32_t>& changed) const {
  changed.clear();
  BinaryWriter header;
  SerializeHeader(header);
  if (image.substr(0, kLtcHeaderBytes) != header.data()) {
    return ImageUpdate::kNewHeader;
  }
  // Same config, so the same geometry: Deserialize accepts exactly this
  // many bytes (fewer fail its reads, more fail AtEnd).
  const size_t m = table_.num_cells();
  if (image.size() != SerializedBytes()) return ImageUpdate::kCorrupt;
  BinaryReader reader(image.substr(kLtcHeaderBytes));
  const uint64_t items_seen = reader.GetU64();
  const uint64_t period = reader.GetU64();
  const uint64_t scan_cursor = reader.GetU64();
  const double last_time = reader.GetDouble();
  const uint64_t merged_history = reader.GetU64();
  const uint64_t num_cells = reader.GetU64();
  if (num_cells != m || !ClockStateHolds(config_, m, items_seen, period,
                                         scan_cursor, last_time)) {
    return ImageUpdate::kCorrupt;
  }
  const uint64_t cap = CounterCap(config_, period, merged_history);
  // An unchanged bucket passed every check when it was written, under
  // the old cap; a lower cap must see its counters again.
  const bool check_all =
      cap < CounterCap(config_, current_period_, merged_history_periods_);

  const uint32_t d = config_.cells_per_bucket;
  const CellLanes theirs = LanesOf(image, m);
  const CellLanes mine = LanesOf();
  const auto same_lane = [&](const char* a, const char* b, size_t width,
                             size_t base) {
    return std::memcmp(a + base * width, b + base * width, d * width) == 0;
  };
  for (uint32_t b = 0; b < num_buckets_; ++b) {
    const size_t base = size_t{b} * d;
    // Arrivals move frequencies first, so that lane most often differs.
    const bool same =
        same_lane(theirs.freqs, mine.freqs, sizeof(uint32_t), base) &&
        same_lane(theirs.ids, mine.ids, sizeof(uint64_t), base) &&
        same_lane(theirs.counters, mine.counters, sizeof(uint32_t), base) &&
        same_lane(theirs.flags, mine.flags, sizeof(uint8_t), base);
    if (same && !check_all) continue;
    if (!BucketHolds(theirs, b, cap, table_.ids().data())) {
      return ImageUpdate::kCorrupt;
    }
    if (!same) changed.push_back(b);
  }
  return ImageUpdate::kUpdated;
}

void Ltc::CopyScalarsIn(std::string_view image) {
  BinaryReader reader(image.substr(kLtcHeaderBytes));
  items_seen_ = reader.GetU64();
  current_period_ = reader.GetU64();
  scan_cursor_ = reader.GetU64();
  last_time_ = reader.GetDouble();
  merged_history_periods_ = reader.GetU64();
  ResetClockStepper();
}

std::optional<Ltc> Ltc::Deserialize(BinaryReader& reader) {
  const uint32_t magic = reader.GetU32();
  const uint32_t version = reader.GetU32();
  if (reader.failed() || magic != kLtcMagic ||
      (version != kLtcFormatVersionAos && version != kLtcFormatVersion)) {
    return std::nullopt;
  }
  LtcConfig config;
  config.memory_bytes = reader.GetU64();
  config.cells_per_bucket = reader.GetU32();
  config.alpha = reader.GetDouble();
  config.beta = reader.GetDouble();
  config.long_tail_replacement = reader.GetU8() != 0;
  uint8_t policy = reader.GetU8();
  if (policy > static_cast<uint8_t>(InitPolicy::kMinPlusOne)) {
    return std::nullopt;
  }
  config.init_policy = static_cast<InitPolicy>(policy);
  config.deviation_eliminator = reader.GetU8() != 0;
  config.period_mode =
      reader.GetU8() != 0 ? PeriodMode::kTimeBased : PeriodMode::kCountBased;
  config.items_per_period = reader.GetU64();
  config.period_seconds = reader.GetDouble();
  config.seed = reader.GetU64();
  if (reader.failed() || config.Validate().has_value()) return std::nullopt;

  // Geometry sanity BEFORE allocating: the config implies the exact
  // cell count (the same arithmetic as the constructor), and every
  // serialized cell costs 17 bytes, so an image whose remaining input
  // cannot hold its own cell arrays is corrupt. Without this gate a
  // flipped memory_bytes byte turns into a near-2^64 allocation —
  // checkpoints reach here only behind a CRC frame, but PUSH_SKETCH
  // payloads arrive raw off the network.
  const size_t implied_w = config.memory_bytes /
                           (LtcConfig::BytesPerCell() *
                            config.cells_per_bucket);
  const uint64_t implied_cells =
      static_cast<uint64_t>(
          static_cast<uint32_t>(std::max<size_t>(1, implied_w))) *
      config.cells_per_bucket;
  if (implied_cells > reader.Remaining() / kLtcBytesPerCellImage) {
    return std::nullopt;
  }

  Ltc table(config);
  table.items_seen_ = reader.GetU64();
  table.current_period_ = reader.GetU64();
  table.scan_cursor_ = reader.GetU64();
  table.last_time_ = reader.GetDouble();
  table.merged_history_periods_ = reader.GetU64();

  uint64_t num_cells = reader.GetU64();
  if (reader.failed() || num_cells != table.table_.num_cells() ||
      table.scan_cursor_ > num_cells) {
    return std::nullopt;
  }
  if (version == kLtcFormatVersionAos) {
    // v2 back-compat shim: the AoS image interleaves the four fields per
    // cell; land them in the SoA lanes cell by cell.
    for (uint64_t i = 0; i < num_cells; ++i) {
      CellRef cell = table.table_.cell(i);
      cell.set_id(reader.GetU64());
      cell.set_freq(reader.GetU32());
      cell.set_counter(reader.GetU32());
      cell.set_flags(reader.GetU8());
    }
  } else {
    TableLayout& lanes = table.table_;
    reader.GetBytes(lanes.ids().data(), lanes.ids().size_bytes());
    reader.GetBytes(lanes.freqs().data(), lanes.freqs().size_bytes());
    reader.GetBytes(lanes.counters().data(), lanes.counters().size_bytes());
    reader.GetBytes(lanes.flags().data(), lanes.flags().size_bytes());
  }
  table.ResetClockStepper();
  if (reader.failed() || !table.CheckInvariants()) return std::nullopt;

  // Clock-state consistency: the pacing relations the clock advance
  // maintains hold at every instant (Finalize touches only flags), so a
  // checkpoint that breaks them is corrupt.
  if (!ClockStateHolds(config, num_cells, table.items_seen_,
                       table.current_period_, table.scan_cursor_,
                       table.last_time_)) {
    return std::nullopt;
  }
  return table;
}

#ifdef LTC_AUDIT
namespace {

// Diagnostic context appended to every audit failure so a violation is
// actionable without a debugger.
std::string AuditContext(ItemId item, uint64_t period, uint64_t cursor,
                         uint64_t items_seen) {
  return " [item=" + std::to_string(item) +
         " period=" + std::to_string(period) +
         " cursor=" + std::to_string(cursor) +
         " items_seen=" + std::to_string(items_seen) + "]";
}

}  // namespace

void Ltc::AuditAfterInsert(ItemId item) {
  const uint64_t m = table_.num_cells();
  auto context = [&] {
    return AuditContext(item, current_period_, scan_cursor_, items_seen_);
  };

  if (!CheckInvariants()) {
    AuditFail("Ltc", "structural", "CheckInvariants failed" + context());
  }

  // CLOCK pointer pacing (§III-B): the pointer must sit exactly where the
  // fractional-step formula places it, so each period sweeps exactly m
  // slots. The expected value is recomputed from first principles (the
  // division the hot path replaced with an incremental stepper), so this
  // also audits the stepper's Bresenham invariant on every insert.
  if (config_.period_mode == PeriodMode::kCountBased) {
    if (items_seen_ >= config_.items_per_period) {
      AuditFail("Ltc", "clock-pacing",
                "items_seen did not wrap at period end" + context());
    }
    uint64_t expected = items_seen_ * m / config_.items_per_period;
    if (scan_cursor_ != expected) {
      AuditFail("Ltc", "clock-pacing",
                "cursor " + std::to_string(scan_cursor_) + " != expected " +
                    std::to_string(expected) + context());
    }
    if (clock_target_ != expected ||
        clock_acc_ != items_seen_ * m % config_.items_per_period) {
      AuditFail("Ltc", "clock-pacing",
                "incremental stepper diverged from i*m/n (target=" +
                    std::to_string(clock_target_) + " acc=" +
                    std::to_string(clock_acc_) + ")" + context());
    }
  } else {
    // Same float expressions as AdvanceTimeClock, so equality is exact.
    const double t = config_.period_seconds;
    const double period_start = static_cast<double>(current_period_) * t;
    const double period_end =
        (static_cast<double>(current_period_) + 1.0) * t;
    if (last_time_ >= period_end ||
        (current_period_ > 0 && last_time_ < period_start)) {
      AuditFail("Ltc", "clock-pacing",
                "time " + std::to_string(last_time_) +
                    " outside current period" + context());
    }
    double offset = last_time_ - period_start;
    auto target = static_cast<uint64_t>(offset / t * static_cast<double>(m));
    uint64_t expected = std::min(target, m);
    if (scan_cursor_ != expected) {
      AuditFail("Ltc", "clock-pacing",
                "cursor " + std::to_string(scan_cursor_) + " != expected " +
                    std::to_string(expected) + context());
    }
  }

  // The period the arrival was flagged under. In count-based mode the
  // clock advances AFTER the bucket update, so an arrival that completed
  // a period carries the previous period's flag.
  uint64_t insert_period = current_period_;
  if (config_.period_mode == PeriodMode::kCountBased && items_seen_ == 0 &&
      current_period_ > 0) {
    insert_period = current_period_ - 1;
  }
  const uint8_t insert_mask =
      config_.deviation_eliminator
          ? static_cast<uint8_t>(1u << (insert_period & 1))
          : uint8_t{0x1};

  // Bucket-local integrity + per-cell checks over the whole table, all
  // through the BucketView seam (the audit must not bypass the layout
  // API it is auditing). The O(m) cost is the point of an audit build: a
  // violation is caught on the exact insert that introduced it.
  for (uint32_t b = 0; b < num_buckets_; ++b) {
    ConstBucketView bucket = table_.bucket(b);
    const uint32_t d = bucket.size();
    for (uint32_t i = 0; i < d; ++i) {
      ConstCellRef cell = bucket.cell(i);
      if (IsEmpty(cell)) continue;
      if (BucketOf(cell.id()) != b) {
        AuditFail("Ltc", "bucket-integrity",
                  "occupant " + std::to_string(cell.id()) +
                      " does not hash to bucket " + std::to_string(b) +
                      context());
      }
      for (uint32_t j = i + 1; j < d; ++j) {
        ConstCellRef later = bucket.cell(j);
        if (!IsEmpty(later) && later.id() == cell.id()) {
          AuditFail("Ltc", "bucket-integrity",
                    "duplicate occupant " + std::to_string(cell.id()) +
                        " in bucket " + std::to_string(b) + context());
        }
      }
      if (cell.id() == item && !(cell.flags() & insert_mask) &&
          cell.counter() == 0) {
        // Parity-flag consistency (§III-C): the arrival must leave a
        // trace — either its period flag is still pending, or the sweep
        // already passed the cell and converted it into a credit (which
        // the same insert's clock advance may legitimately do, e.g. under
        // the single-flag scheme or on a period rollover).
        AuditFail("Ltc", "parity-flags",
                  "inserted item lost its period flag (flags=" +
                      std::to_string(cell.flags()) + ")" + context());
      }
      if (audit_oracle_ != nullptr &&
          config_.EffectiveInitPolicy() == InitPolicy::kOne) {
        // No overestimation (Theorem IV.1). Frequency is one-sided for
        // the basic initializer regardless of the flag scheme; the
        // persistency bound additionally needs the Deviation Eliminator
        // (the single-flag scheme may credit one period twice, §III-C).
        uint64_t true_freq = audit_oracle_->TrueFrequency(cell.id());
        if (cell.freq() > true_freq) {
          AuditFail("Ltc", "no-overestimation",
                    "frequency " + std::to_string(cell.freq()) +
                        " > true " + std::to_string(true_freq) +
                        " for item " + std::to_string(cell.id()) +
                        context());
        }
        if (config_.deviation_eliminator) {
          uint64_t pending = static_cast<uint64_t>(
              __builtin_popcount(cell.flags() & ScanFlagMask())) +
              static_cast<uint64_t>(
                  __builtin_popcount(cell.flags() & CurrentFlagMask()));
          uint64_t true_pers = audit_oracle_->TruePersistency(cell.id());
          if (cell.counter() + pending > true_pers) {
            AuditFail("Ltc", "no-overestimation",
                      "persistency " + std::to_string(cell.counter()) +
                          "+" + std::to_string(pending) + " pending > true " +
                          std::to_string(true_pers) + " for item " +
                          std::to_string(cell.id()) + context());
          }
        }
      }
    }
  }
}
#endif  // LTC_AUDIT

bool Ltc::BucketHolds(const CellLanes& cells, uint32_t b, uint64_t cap,
                      const uint64_t* held) const {
  const uint8_t allowed = config_.deviation_eliminator ? 0x3 : 0x1;
  const uint32_t d = config_.cells_per_bucket;
  const size_t base = size_t{b} * d;
  // A one-word sketch of the IDs met so far: a clear bit proves an ID
  // met for the first time.
  uint64_t seen = 0;
  for (size_t at = base; at < base + d; ++at) {
    const ItemId id = cells.id(at);
    const uint8_t flags = cells.flag(at);
    const uint32_t counter = cells.counter(at);
    if ((flags & ~allowed) != 0 || counter > cap) return false;
    if (id == 0) {
      if (cells.freq(at) != 0 || counter != 0 || flags != 0) return false;
      continue;
    }
    // Bucket integrity: every occupant must hash to the bucket it sits
    // in, and appear there only once. Catches corrupt checkpoints at
    // Deserialize time (which calls this) before any query trusts them.
    // An ID held in the same cell of `held` passed the route check.
    if ((held == nullptr || held[at] != id) && BucketOf(id) != b) {
      return false;
    }
    const uint64_t bit = uint64_t{1} << (IdSketch::BitOf(id) & 63);
    if ((seen & bit) != 0) {
      for (size_t j = base; j < at; ++j) {
        if (cells.id(j) == id) return false;
      }
    }
    seen |= bit;
  }
  return true;
}

bool Ltc::CheckInvariants() const {
  const uint64_t cap =
      CounterCap(config_, current_period_, merged_history_periods_);
  const CellLanes lanes = LanesOf();
  for (uint32_t b = 0; b < num_buckets_; ++b) {
    if (!BucketHolds(lanes, b, cap)) return false;
  }
  return scan_cursor_ <= table_.num_cells();
}

}  // namespace ltc
