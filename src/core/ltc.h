// LTC (Long-Tail CLOCK) — the paper's primary contribution (§III).
//
// A lossy table of w buckets × d cells tracks the items most likely to be
// *significant*, where significance s = α·frequency + β·persistency
// (Eq. 1). Three mechanisms cooperate:
//
//  * Significance Decrementing (§III-B): an unmatched arrival into a full
//    bucket decrements the least-significant cell; the cell's occupant is
//    expelled only when its significance reaches 0, at which point the
//    newcomer takes the slot. This is what makes the estimate one-sided
//    (no overestimation, Theorem IV.1).
//
//  * A modified CLOCK (§III-B, Fig. 3): every cell doubles as a time slot
//    on a clock face. A pointer sweeps all m = w·d slots exactly once per
//    period (fractional step m/n per arrival, or (x−y)/t·m for time-based
//    periods) and lazily converts per-period "appeared" flags into +1
//    persistency — so an item appearing many times in one period still
//    gains exactly 1, matching the definition of persistency.
//
//  * Optimization I, Deviation Eliminator (§III-C): one flag cannot
//    distinguish the current from the previous period, inflating
//    persistency by up to 2× the truth; two parity flags (even/odd
//    periods) remove the deviation with no refresh pass.
//
//  * Optimization II, Long-tail Replacement (§III-D): a newcomer that
//    fought its way in has, with high probability under a long-tail
//    distribution, a true value close to the old minimum — so its fields
//    are initialized to the bucket's second-smallest values − 1 instead
//    of 1.
//
// Both optimizations are config flags so the paper's ablations (Fig. 8,
// Fig. 11) run against this one implementation.

#ifndef LTC_CORE_LTC_H_
#define LTC_CORE_LTC_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/serial.h"
#include "core/audit.h"
#include "core/significance_estimator.h"
#include "core/table_layout.h"
#include "stream/stream.h"

#ifdef LTC_METRICS
#include "core/ltc_metrics_sink.h"
#endif

namespace ltc {

/// How the CLOCK pointer paces itself (§III-B "Persistency Incrementing").
enum class PeriodMode {
  kCountBased,  // a period is a fixed number of arrivals; step = m/n
  kTimeBased,   // a period is a fixed time span; step = (x−y)/t · m
};

/// What happens when an arrival misses a full bucket (Case 3). The paper
/// motivates Long-tail Replacement against two alternatives; all three
/// are implemented so the ablation is a config flag (DESIGN.md §5.4,
/// bench_ablation_init).
enum class InitPolicy {
  kOne,         // basic version (§III-B): decrement the smallest; admit at
                //   (1, 0) when it empties — underestimates
  kLongTail,    // §III-D: decrement; admit at second-smallest − 1 — the
                //   paper's contribution
  kMinPlusOne,  // Space-Saving's strategy (§I): NO decrementing — replace
                //   the smallest immediately, inheriting its value + 1 —
                //   large overestimation on long-tail data
};

struct LtcConfig {
  /// Total memory budget; the bucket count w is derived as
  /// memory_bytes / (BytesPerCell · cells_per_bucket), min 1.
  size_t memory_bytes = 64 * 1024;

  /// d, cells per bucket. The paper evaluates d ∈ {1..32} and defaults to
  /// 8 (§V-C).
  uint32_t cells_per_bucket = 8;

  /// Significance weights (Eq. 1), finite and >= 0, not both 0. α=1,β=0
  /// degenerates to frequent items; α=0,β=1 to persistent items.
  double alpha = 1.0;
  double beta = 1.0;

  /// Optimization II (§III-D). On by default as in §V-D. Convenience
  /// shorthand: long_tail_replacement=false means init_policy=kOne.
  bool long_tail_replacement = true;

  /// Admission initializer; see InitPolicy. Only consulted when
  /// long_tail_replacement is true (false forces kOne).
  InitPolicy init_policy = InitPolicy::kLongTail;

  /// The initializer actually in effect.
  InitPolicy EffectiveInitPolicy() const {
    return long_tail_replacement ? init_policy : InitPolicy::kOne;
  }

  /// Optimization I (§III-C). On by default as in §V-E.
  bool deviation_eliminator = true;

  PeriodMode period_mode = PeriodMode::kCountBased;

  /// n, arrivals per period (count-based mode).
  uint64_t items_per_period = 10'000;

  /// t, seconds per period (time-based mode).
  double period_seconds = 1.0;

  uint64_t seed = 0;

  /// Model memory per cell: 8B ID + 4B frequency + 4B persistency counter
  /// incl. the two flag bits (§III-A, Fig. 1).
  static constexpr size_t BytesPerCell() { return 16; }

  /// Checks the configuration for values no table can run on: negative
  /// or non-finite α/β (or both zero), zero cells_per_bucket, a
  /// non-positive period length in the active pacing mode. Returns
  /// std::nullopt when valid, else a description of the first problem.
  /// The Ltc constructor calls this and throws std::invalid_argument on
  /// failure; Deserialize calls it to reject corrupt checkpoints.
  std::optional<std::string> Validate() const;
};

class Ltc final : public SignificanceEstimator {
 public:
  /// One reported item (the shared report type of the estimator family).
  using Report = SignificanceReport;

  /// Throws std::invalid_argument when `config.Validate()` rejects.
  explicit Ltc(const LtcConfig& config);

  // Insert(item, time) is inherited from SignificanceEstimator: it wraps
  // the single arrival as a one-record batch, so InsertBatch below is the
  // only ingestion path (and the SIMD bucket probe has exactly one call
  // site). In count-based mode `time` is ignored; in time-based mode the
  // clock never runs backwards — a timestamp earlier than the latest one
  // seen is clamped to it (the arrival is processed as if it happened
  // "now"), so mildly out-of-order feeds degrade gracefully instead of
  // corrupting the CLOCK. See docs/TESTING.md "Time-based edge cases".

  /// The single ingestion path: identical table state to one Insert per
  /// record. The count-based CLOCK step runs as an incremental add (no
  /// per-record multiply/divide), each record's routed bucket is
  /// software-prefetched a few records ahead of its probe, and the
  /// sweep of the slots the pointer passes is deferred until an arrival
  /// routes into one of them, a period ends, or the batch ends. The
  /// parallel IngestPipeline drains its per-shard rings through this.
  void InsertBatch(std::span<const Record> records) override;

  /// Credits all still-pending period flags. Call once after the stream
  /// ends and before querying; mid-stream estimates lag by up to one
  /// period of persistency otherwise. Idempotent only if no Insert
  /// intervenes.
  void Finalize() override;

  /// Estimated significance α·f̂ + β·p̂; 0 when the item is not tracked
  /// (the paper's "did not appear" answer).
  double QuerySignificance(ItemId item) const override;

  /// Estimated frequency / persistency; 0 when untracked.
  uint64_t EstimateFrequency(ItemId item) const override;
  uint64_t EstimatePersistency(ItemId item) const override;

  bool IsTracked(ItemId item) const;

  /// The k tracked items of largest significance, descending (ties broken
  /// by item ID for determinism).
  std::vector<Report> TopK(size_t k) const override;

  /// Mid-stream top-k WITHOUT mutating the table: reports each cell as if
  /// its pending period flags had already been credited (what Finalize
  /// would produce), so live dashboards don't lag by up to one period.
  std::vector<Report> SnapshotTopK(size_t k) const;

  /// Threshold (φ-heavy-hitter style) query: every tracked item whose
  /// significance is at least `threshold`, descending. The one-sided
  /// guarantee carries over: with LTR off, every returned item truly has
  /// s >= threshold (no false positives); items whose estimate decayed
  /// below the threshold can be missed.
  std::vector<Report> ItemsAbove(double threshold) const;

  uint32_t num_buckets() const { return num_buckets_; }
  uint32_t cells_per_bucket() const { return config_.cells_per_bucket; }
  size_t num_cells() const { return table_.num_cells(); }
  const LtcConfig& config() const { return config_; }
  uint64_t current_period() const { return current_period_; }

  /// Model memory actually allocated (w·d cells). The SoA lanes sum to
  /// BytesPerCell() per cell, so this is unchanged from the AoS layout.
  size_t MemoryBytes() const override {
    return table_.num_cells() * LtcConfig::BytesPerCell();
  }

  /// Structural invariants, used by tests: empty cells fully zeroed, no
  /// flag bits outside the active scheme, counter ≤ elapsed periods + 1.
  bool CheckInvariants() const;

  /// Checkpointing: writes config, cells and CLOCK state (versioned).
  /// A deserialized table continues the stream exactly where the original
  /// left off.
  void Serialize(BinaryWriter& writer) const;
  static std::optional<Ltc> Deserialize(BinaryReader& reader);

  /// Read-snapshot seam (docs/SERVING.md): a bit-identical deep copy
  /// with the transient audit/metrics attachments detached, safe to
  /// hand to concurrent readers (via ReadSnapshotHub) while this table
  /// keeps ingesting. Call only while the table is quiescent.
  Ltc CloneAtBarrier() const {
    Ltc copy(*this);
    copy.DetachTransientsForClone();
    return copy;
  }

  /// Drops the non-owning attachments a clone must not share with the
  /// live table's feeder thread (audit oracle, metrics sink).
  void DetachTransientsForClone() {
#ifdef LTC_AUDIT
    audit_oracle_ = nullptr;
#endif
#ifdef LTC_METRICS
    metrics_ = nullptr;
#endif
  }

  /// Operational introspection for dashboards and capacity planning.
  struct TableStats {
    size_t occupied_cells = 0;
    size_t empty_cells = 0;
    double occupancy = 0.0;      // occupied / total
    size_t full_buckets = 0;     // buckets with no empty cell
    double avg_significance = 0.0;  // over occupied cells
    uint64_t max_frequency = 0;
    uint64_t max_persistency = 0;
  };
  TableStats ComputeStats() const;

  /// True iff `other` has identical geometry, hashing and significance
  /// weights, so MergeFrom is meaningful.
  bool CanMergeWith(const Ltc& other) const;

  /// Folds another table (e.g. from a peer aggregating a disjoint
  /// substream slice, §I Use Case 3) into this one: bucket-wise, matching
  /// IDs add their fields, and each bucket keeps its d most significant
  /// occupants. Exact when the substreams were item-partitioned (no item
  /// in both); the usual lossy-table approximation otherwise. Call
  /// Finalize() on both sides first so no period flags are pending.
  /// Returns false — leaving this table untouched — when
  /// !CanMergeWith(other): a shape mismatch is a caller error the
  /// aggregation tier surfaces as a typed response, never UB.
  [[nodiscard]] bool MergeFrom(const Ltc& other);

  /// One input of RefoldPush: a table and its rank lane, num_cells()
  /// entries laid out like the table (bucket b's entries at [b·d,
  /// (b+1)·d)): the bucket's cell indices, occupied cells best first by
  /// (significance desc, id asc), then its empty cells. RefoldPush
  /// brings the pushing source's lane up to date; every other source's
  /// lane must be what an earlier RefoldPush with it as the pusher left.
  /// The two-way path (FoldState) also needs a slot no other source has.
  struct RankedSource {
    const Ltc* table;
    std::span<const uint32_t> rank;
    uint8_t slot = 0;
  };

  /// Buckets refolded per path, summed over RefoldPush calls.
  struct RefoldPaths {
    uint64_t two_way = 0;   // the pushing source's run against the rest
    uint64_t n_way = 0;     // every source's ranked run
    uint64_t stepwise = 0;  // MergeFrom's steps: a shared ID
  };

  /// What the fold remembers between RefoldPush calls so that a
  /// bucket changed by one source refolds against that source alone.
  /// `disjoint[b]` is set when no ID occupies bucket b in two sources;
  /// then `tags` names, for each occupied cell of the bucket, the slot
  /// of the source the cell came from. A fresh state belongs to an
  /// empty fold: every bucket disjoint, no cell to tag.
  struct FoldState {
    explicit FoldState(const Ltc& fold)
        : disjoint(fold.num_buckets(), 1), tags(fold.num_cells(), 0) {}
    std::vector<uint8_t> disjoint;  // one per bucket
    std::vector<uint8_t> tags;      // one per cell of the fold
    RefoldPaths paths;
  };

  /// The writable side of the pushing source in RefoldPush: the table
  /// and rank lane that sources[pusher] views.
  struct PushedSource {
    Ltc* table;
    std::span<uint32_t> rank;
  };

  /// The aggregation tier's incremental fold (server/aggregator.h), one
  /// walk over `buckets`. Precondition: this table equals a fresh
  /// Ltc(config()) folded with MergeFrom over a list of tables that
  /// differs from `sources`, once the push is applied, only in the
  /// cells of `buckets` (a source new to the list counts as empty).
  /// Afterwards it equals the fold over `sources`, byte for byte:
  /// MergeFrom is bucket-local, so each listed bucket is refolded
  /// across every source, the rest are already right, and the table
  /// scalars MergeFrom accumulates (period, merged history) are
  /// recomputed from all sources.
  ///
  /// The pushing source is brought up to date in the same walk. A
  /// non-empty `image` must have passed pushed.table->CheckImage naming
  /// `buckets`: its scalars and each listed bucket's cells are copied
  /// into pushed.table. An empty one means the table already holds its
  /// new cells. Each significance is computed once, and the bucket is
  /// re-ranked into pushed.rank by insertion sort from the lane's
  /// earlier order (zeros for a new lane), so a bucket that barely
  /// changed costs about d compares.
  ///
  /// A listed bucket whose sources hold no ID in common, which is every
  /// bucket when the sources saw disjoint items, is the top d of all
  /// their occupants, in an order no source order changes. It is written
  /// straight into the bucket by one of two merges of ranked runs:
  ///
  ///  * two-way, when `state` is given and the bucket was disjoint: the
  ///    list differed only in source `pusher`, whose IDs are probed
  ///    for in the other sources' buckets; only the IDs the pushed
  ///    bucket did not hold before are probed (the others were in it at
  ///    the last fold, which found the bucket disjoint), and an empty
  ///    `image` counts every ID as new. The old bucket less the
  ///    pusher's tagged cells is merged with the pusher's run, by a
  ///    branch-free select of the better head. The result stands when
  ///    the pusher is the only source, when the old bucket was not
  ///    full, or when its new d-th cell ranks at or before the old
  ///    d-th: every other source's cell the old bucket left out ranks
  ///    after the old d-th, so none of them can enter. Else:
  ///  * N-way, over every source's run; a 256-bit sketch of the IDs,
  ///    then an exact compare, finds the shared IDs first unless the
  ///    two-way check already ruled them out.
  ///
  /// A bucket with a shared ID takes MergeFrom's own steps, source by
  /// source; a step adds the matching fields and re-ranks every cell.
  /// Returns the number of steps that added a shared ID, as MergeFrom
  /// would have met them in the listed buckets. With `state`, the
  /// pusher's run is used only if `state` is what the previous call
  /// over the old list left, and the call counts its buckets per path
  /// into state->paths. Every source must satisfy CanMergeWith(*this).
  uint64_t RefoldPush(std::span<const RankedSource> sources,
                      std::span<const uint32_t> buckets, FoldState* state,
                      size_t pusher, const PushedSource& pushed,
                      std::string_view image);

  /// The buckets whose cells differ, lane by lane, between this table
  /// and `other`, ascending. `other` must satisfy CanMergeWith(*this).
  std::vector<uint32_t> ChangedBuckets(const Ltc& other) const;

  /// What CheckImage found in an image.
  enum class ImageUpdate {
    kUpdated,    // valid; `changed` lists the buckets that move
    kCorrupt,    // same header, but Deserialize would reject the image
    kNewHeader,  // the image's config bytes differ: use Deserialize
  };

  /// Judges an image (a Serialize output) that carries this table's
  /// exact header, the same format version and config bytes, as
  /// Deserialize (with AtEnd) would, and writes nothing. One pass reads
  /// the image's lanes where they lie and diffs them against the table
  /// bucket by bucket. Every check Deserialize runs is run on the new
  /// scalars and on each changed bucket; unchanged buckets passed them
  /// when they were written, so only a lower counter cap makes them be
  /// checked again, and an ID the table holds in the same cell is known
  /// to route there. Lanes are read with memcpy: in a network frame
  /// they start at any offset. `changed` receives the buckets that
  /// differ, ascending.
  ImageUpdate CheckImage(std::string_view image,
                         std::vector<uint32_t>& changed) const;

  /// Exact size of Serialize's output for this table.
  size_t SerializedBytes() const;

#ifdef LTC_AUDIT
  /// Attaches a ground-truth oracle for the after-insert audit hook (see
  /// core/audit.h). The oracle must outlive the table and must observe
  /// every arrival before the matching Insert. nullptr detaches; the
  /// structural checks (pacing, flags, bucket integrity) still run.
  /// Not serialized; a deserialized table starts detached.
  void AttachAuditOracle(const AuditOracle* oracle) {
    audit_oracle_ = oracle;
  }
#endif

#ifdef LTC_METRICS
  /// Attaches a hot-path metrics sink (core/ltc_metrics_sink.h,
  /// published via telemetry/ltc_collectors.h). The sink must outlive
  /// the table; nullptr detaches. The table writes it inline from
  /// whichever thread inserts, so read it only while the table is
  /// quiescent. Not serialized; a deserialized table starts detached.
  void AttachMetricsSink(LtcMetricsSink* sink) { metrics_ = sink; }
#endif

 private:
  // Cell flag bits (stored in the layout's flags lane): bit0 is the
  // even-period flag, bit1 the odd-period flag. The basic (single-flag)
  // scheme uses bit0 only.

  double SignificanceOf(ConstCellRef cell) const {
    return config_.alpha * cell.freq() + config_.beta * cell.counter();
  }
  bool IsEmpty(ConstCellRef cell) const {
    return cell.id() == 0 && SignificanceOf(cell) == 0.0;
  }

  uint8_t CurrentFlagMask() const;
  uint8_t ScanFlagMask() const;

  /// Advances the CLOCK pointer to `target_slot` within the current
  /// period, sweeping every slot it passes (§III-B Persistency
  /// Incrementing; §III-C variant checks the previous-period flag).
  void ScanTo(uint64_t target_slot);

  /// Ends the current period: sweeps the rest of its slots, so every
  /// pending one is settled under this period's mask, and starts the
  /// next period with the pointer at slot 0.
  void CompletePeriod();

  /// Moves time forward in time-based mode: completes any finished
  /// periods and returns the pointer's target within the current one.
  /// The caller sweeps up to the target (InsertBatch defers that).
  uint64_t AdvanceTimeClock(double time);

  /// The count-based clock step after one arrival: completes the period
  /// on its n-th arrival, else steps the incremental target. Returns
  /// the pointer's new target; the caller sweeps up to it.
  uint64_t AdvanceCountClock();

  /// The bucket update of one arrival (Cases 1–3 of §III-B), without the
  /// CLOCK advance. `bucket` is BucketOf(item), precomputed by
  /// InsertBatch so the routed bucket can be prefetched ahead of the
  /// probe (each item is hashed exactly once).
  void UpdateBucket(ItemId item, uint32_t bucket);

  /// Inserts item into cell `cell_index` of `bucket`, honouring
  /// Long-tail Replacement when enabled: fields start at the bucket's
  /// second-smallest values − 1 (§III-D), else at (1, 0).
  void PlaceItem(BucketView bucket, uint32_t cell_index, ItemId item);

  uint32_t BucketOf(ItemId item) const;

  /// One cell of the merge scratch, its significance computed once.
  struct MergeCell {
    double significance;
    ItemId id;
    uint32_t freq;
    uint32_t counter;
    uint8_t flags;
  };
  /// The rank order of merged cells and of the rank lanes: significance
  /// desc, then id asc. Over unique IDs it is strict and total, so a
  /// ranking does not depend on input order.
  static bool RanksBefore(const MergeCell& x, const MergeCell& y) {
    // Bitwise, not short-circuit: no branch to mispredict.
    return (x.significance > y.significance) |
           ((x.significance == y.significance) & (x.id < y.id));
  }
  double SignificanceOf(const MergeCell& cell) const {
    return config_.alpha * cell.freq + config_.beta * cell.counter;
  }
  void LoadMergeCell(ConstCellRef cell, MergeCell& into) const {
    into = {0.0, cell.id(), cell.freq(), cell.counter(), cell.flags()};
    into.significance = SignificanceOf(into);
  }

  /// Writes a merged cell's fields into a table cell.
  static void StoreCell(const MergeCell& from, CellRef into) {
    into.set_id(from.id);
    into.set_freq(from.freq);
    into.set_counter(from.counter);
    into.set_flags(from.flags);
  }

  /// Working space of the merge kernels, allocated once per fold.
  struct MergeScratch {
    explicit MergeScratch(uint32_t d, size_t sources = 0)
        : cells(2 * size_t{d} + 2),
          order(d),
          tags(2 * size_t{d} + 2),
          run(d),
          ids(2 * size_t{d}),
          heads(sources),
          taken(sources) {}
    // MergeBucket: my d cells, then their unmatched. The two-way merge:
    // the old bucket's cells of the other sources, then the pushed run,
    // each with an end marker.
    std::vector<MergeCell> cells;
    std::vector<uint32_t> order;   // ranked indices into cells, best first
    std::vector<uint8_t> tags;     // the two-way merge: each cell's slot
    std::vector<MergeCell> run;    // the pushed bucket, cell by cell
    std::vector<ItemId> ids;       // the pushed IDs the share check probes,
                                   // then CopyBucketIn's replaced IDs
    std::vector<MergeCell> heads;  // N-way: each source's next cell
    std::vector<uint32_t> taken;   // N-way: how much of each run is taken
  };

  /// MergeFrom's kernel, one bucket: folds `theirs` into `mine`.
  /// Matching IDs add their fields, and `mine` keeps its d most
  /// significant occupants, best first, then empty cells. Returns
  /// whether some ID of theirs matched one of mine.
  bool MergeBucket(BucketView mine, ConstBucketView theirs,
                   MergeScratch& scratch) const;

  /// The four lanes of a table or of a v3 image, read with memcpy, so a
  /// lane may start at any offset.
  struct CellLanes {
    const char* ids;
    const char* freqs;
    const char* counters;
    const char* flags;

    template <typename T>
    static T Load(const char* lane, size_t i) {
      T value;
      std::memcpy(&value, lane + i * sizeof(T), sizeof(T));
      return value;
    }
    uint64_t id(size_t i) const { return Load<uint64_t>(ids, i); }
    uint32_t freq(size_t i) const { return Load<uint32_t>(freqs, i); }
    uint32_t counter(size_t i) const { return Load<uint32_t>(counters, i); }
    uint8_t flag(size_t i) const { return Load<uint8_t>(flags, i); }
  };
  CellLanes LanesOf() const;
  /// The lanes of a v3 image of a table with `num_cells` cells.
  static CellLanes LanesOf(std::string_view image, size_t num_cells);

  /// Bucket b's cells in rank form, in cell order: each occupant with
  /// its significance, each empty cell as {-1, its index}, which ranks
  /// after every occupant. Writes the occupants' IDs to `occupants`
  /// and returns how many there are.
  uint32_t LoadBucket(uint32_t b, MergeCell* cells, ItemId* occupants) const;

  /// Copies bucket b of a checked image into the table and loads the
  /// new cells as LoadBucket does. Writes to `fresh` (2·d entries, the
  /// second half scratch) the new IDs the old bucket did not hold, and
  /// returns how many there are.
  uint32_t CopyBucketIn(const CellLanes& image, uint32_t b, MergeCell* cells,
                        ItemId* fresh);

  /// RefoldPush's ranking: reorders `order`, one bucket's d cell indices
  /// (zeros for a new lane), by RanksBefore over LoadBucket's `cells`,
  /// insertion-sorting from the previous order. Returns the number of
  /// occupants.
  static uint32_t RankCells(const MergeCell* cells, uint32_t d,
                            uint32_t* order);

  /// The pushing source's bucket, ranked: cells[order[0..size)] are its
  /// occupants best first.
  struct PushedRun {
    const MergeCell* cells = nullptr;
    const uint32_t* order = nullptr;
    uint32_t size = 0;
  };

  /// RefoldPush's kernel, one bucket (see there). `run` and `fresh`
  /// are read only when the bucket takes the two-way path: the pusher's
  /// ranked bucket, and the IDs in it to check against the other
  /// sources. Returns the steps that added a shared ID.
  uint64_t RefoldBucket(std::span<const RankedSource> sources, uint32_t b,
                        FoldState* state, size_t pusher, const PushedRun& run,
                        std::span<const ItemId> fresh, MergeScratch& scratch);

  /// A 256-bit filter of the IDs in one bucket: bit = top byte of a
  /// multiplicative hash of the ID. A clear bit proves an ID absent.
  struct IdSketch {
    uint64_t words[4] = {};

    static uint32_t BitOf(ItemId id) {
      return static_cast<uint32_t>(id * uint64_t{0x9E3779B97F4A7C15} >> 56);
    }
    void Add(ItemId id) {
      const uint32_t bit = BitOf(id);
      words[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
    void Add(const IdSketch& other) {
      for (int w = 0; w < 4; ++w) words[w] |= other.words[w];
    }
    bool MayHold(ItemId id) const {
      const uint32_t bit = BitOf(id);
      return (words[bit >> 6] >> (bit & 63)) & 1;
    }
  };

  /// Whether some ID occupies bucket b in two of `sources`.
  bool SourcesShareAnId(std::span<const RankedSource> sources,
                        uint32_t b) const;

  /// Whether one of `ids` occupies bucket b in a source other than
  /// `pusher`.
  static bool PusherSharesAnId(std::span<const RankedSource> sources,
                               size_t pusher, uint32_t b,
                               std::span<const ItemId> ids);

  /// RefoldPush's two-way path for bucket b (see there): false when
  /// the cutoff test fails, and then the bucket must be refolded N-way.
  /// `alone`: the pusher is the only source, so no cutoff test is needed.
  bool RefoldAgainstPusher(const PushedRun& run, uint8_t slot, bool alone,
                           uint32_t b, FoldState& state,
                           MergeScratch& scratch);

  /// RefoldPush's N-way path: bucket b becomes the top d of the
  /// sources' ranked runs. `tags` (null, or bucket b's d tags) receives
  /// each kept cell's source slot.
  void RefoldAllSources(std::span<const RankedSource> sources, uint32_t b,
                        MergeScratch& scratch, uint8_t* tags);

  /// Recomputes the scalars MergeFrom accumulates from `sources`.
  void RefoldScalars(std::span<const RankedSource> sources);

  /// Copies a checked image's scalars into the table.
  void CopyScalarsIn(std::string_view image);

  /// The counter cap CheckInvariants enforces, for a table with these
  /// scalars: counter <= elapsed periods + merged history (doubled
  /// under the single-flag scheme), in wrapping u64 arithmetic.
  static uint64_t CounterCap(const LtcConfig& config, uint64_t period,
                             uint64_t merged_history_periods);

  /// CheckInvariants for bucket b, whose cells `cells` holds at
  /// [b·d, (b+1)·d). `held` (null, or this table's ID lane, which
  /// passed) spares the route check of an ID it holds in the same cell.
  bool BucketHolds(const CellLanes& cells, uint32_t b, uint64_t cap,
                   const uint64_t* held = nullptr) const;

  /// Deserialize's clock-state consistency check: the pacing relations
  /// the clock advance maintains hold for these scalars in a table of
  /// `m` cells.
  static bool ClockStateHolds(const LtcConfig& config, uint64_t m,
                              uint64_t items_seen, uint64_t period,
                              uint64_t scan_cursor, double last_time);

  /// Serialize's leading bytes: magic, format version and config.
  void SerializeHeader(BinaryWriter& writer) const;

  /// The table-scalar half of MergeFrom: period and merged history.
  void MergeScalarsFrom(const Ltc& other);

  /// Recomputes the count-based CLOCK stepper (the Bresenham state
  /// below) from items_seen_; called on construction and deserialize.
  void ResetClockStepper();

#ifdef LTC_AUDIT
  /// Runs after every record of InsertBatch, once the pending sweep is
  /// settled: no-overestimation vs. the attached oracle, CLOCK pointer
  /// pacing, parity-flag consistency, bucket-local integrity. Reports
  /// through AuditFail on violation.
  void AuditAfterInsert(ItemId item);
#endif

  LtcConfig config_;
  uint32_t num_buckets_;
  TableLayout table_;  // SoA cell store, bucket-major (core/table_layout.h)

  uint64_t items_seen_ = 0;       // arrivals in the current period
  uint64_t current_period_ = 0;
  uint64_t merged_history_periods_ = 0;  // extra periods from MergeFrom
  uint64_t scan_cursor_ = 0;      // next slot the pointer will scan, in [0, m]
  double last_time_ = 0.0;        // previous arrival's timestamp (time mode)

  // Count-based CLOCK stepper: the pointer target ⌊items_seen·m/n⌋ is
  // maintained incrementally (Bresenham-style) so the per-arrival
  // multiply/divide is hoisted out of the insert path. Invariant:
  // clock_target_ == items_seen_·m/n and clock_acc_ == (items_seen_·m)%n.
  // Derived state — recomputed by ResetClockStepper, never serialized.
  uint64_t clock_step_div_ = 0;  // m / n
  uint64_t clock_step_mod_ = 0;  // m % n
  uint64_t clock_acc_ = 0;       // running remainder, in [0, n)
  uint64_t clock_target_ = 0;    // current scan target, in [0, m]

#ifdef LTC_AUDIT
  const AuditOracle* audit_oracle_ = nullptr;  // transient, not serialized
#endif
#ifdef LTC_METRICS
  LtcMetricsSink* metrics_ = nullptr;  // transient, not serialized
#endif
};

}  // namespace ltc

#endif  // LTC_CORE_LTC_H_
