// Hash-partitioned LTC for multi-core / distributed ingestion.
//
// The paper's congestion use case (§I Use Case 3) wants persistent flows
// identified "all over the data center" — i.e. many vantage points, one
// answer. ShardedLtc partitions items across S independent LTC tables
// (budget split evenly) by an item hash that is independent of the
// per-table bucket hash. Because an item always lands in the same shard,
// every per-item guarantee of a single table carries over verbatim, and
// the global top-k is the k best of the union of per-shard reports.
//
// Threading: the class itself is not synchronized; the intended parallel
// pattern is one thread per shard, each feeding shard(i) with the records
// the router assigns to it. ingest/ingest_pipeline.h packages exactly
// that — a router thread hashing records into per-shard SPSC rings, one
// worker per shard draining in batches — and
// tests/ingest_pipeline_test.cc pins that its final state is identical to
// sequential Insert calls. Each shard's table sits in its own slot of
// whole 128-byte blocks: a worker writes its table's clock scalars on
// every record, and unpadded they shared a line (or the prefetcher's
// 128-byte line pair) with the next table's vptr and config, which the
// other worker reads on every record (docs/PERF.md "Shard tables on
// their own lines").

#ifndef LTC_CORE_SHARDED_LTC_H_
#define LTC_CORE_SHARDED_LTC_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/serial.h"
#include "core/ltc.h"
#include "core/significance_estimator.h"

namespace ltc {

class ShardedLtc final : public SignificanceEstimator {
 public:
  /// \param config      per-table configuration; memory_bytes is the
  ///                    TOTAL budget, split evenly across shards
  /// \param num_shards  S >= 1
  ShardedLtc(const LtcConfig& config, uint32_t num_shards);

  /// Which shard an item belongs to (stable, seed-derived).
  uint32_t ShardOf(ItemId item) const;

  /// Routes to the owning shard. Not thread-safe; for parallel ingestion
  /// feed each shard from its own thread via shard(), or use
  /// ingest::IngestPipeline.
  void Insert(ItemId item, double time = 0.0) override;

  /// Routed batch insertion: records are partitioned into per-shard runs
  /// (preserving each shard's arrival order, so the result is identical
  /// to one Insert per record) and each shard consumes its run through
  /// Ltc::InsertBatch's hoisted loop.
  void InsertBatch(std::span<const Record> records) override;

  void Finalize() override;

  /// Global top-k: the k most significant entries of the shard union.
  std::vector<Ltc::Report> TopK(size_t k) const override;

  double QuerySignificance(ItemId item) const override;
  uint64_t EstimateFrequency(ItemId item) const override;
  uint64_t EstimatePersistency(ItemId item) const override;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  Ltc& shard(uint32_t i) { return shards_[i].table; }
  const Ltc& shard(uint32_t i) const { return shards_[i].table; }

  size_t MemoryBytes() const override;

  /// True iff every shard's structural invariants hold.
  bool CheckInvariants() const;

  /// Checkpointing: serializes the router seed and every shard.
  void Serialize(BinaryWriter& writer) const;
  static std::optional<ShardedLtc> Deserialize(BinaryReader& reader);

  /// Read-snapshot seam (docs/SERVING.md): a bit-identical deep copy of
  /// the whole sharded table, with the transient audit/metrics
  /// attachments detached (they belong to the live table's feeder
  /// threads). Call only at a quiescent barrier — after
  /// IngestPipeline::Flush()/Stop(), or from the single feeding thread
  /// — then hand the clone to a ReadSnapshotHub so concurrent readers
  /// query the frozen image while ingest continues on the live table.
  ShardedLtc CloneAtBarrier() const;

#ifdef LTC_AUDIT
  /// Attaches a per-shard ground-truth oracle (see core/audit.h). Each
  /// shard paces its CLOCK on its own substream, so in count-based mode
  /// the truth must be computed with the per-shard period length — build
  /// the oracle from shard(i).config(), not from the global config.
  void AttachAuditOracle(uint32_t shard_index, const AuditOracle* oracle) {
    shard(shard_index).AttachAuditOracle(oracle);
  }
#endif

#ifdef LTC_METRICS
  /// Attaches a hot-path metrics sink to one shard (one sink per shard —
  /// the sink is written by whichever thread feeds that shard, so sharing
  /// a sink across shards would race). See core/ltc_metrics_sink.h.
  void AttachMetricsSink(uint32_t shard_index, LtcMetricsSink* sink) {
    shard(shard_index).AttachMetricsSink(sink);
  }
#endif

 private:
  ShardedLtc() = default;  // Deserialize constructs piecewise

  // 128, not 64: the adjacent-line prefetcher fetches lines in pairs.
  static constexpr size_t kShardAlignment = 128;
  struct alignas(kShardAlignment) ShardSlot {
    Ltc table;
  };
  static_assert(alignof(ShardSlot) == kShardAlignment &&
                sizeof(ShardSlot) % kShardAlignment == 0);

  uint64_t route_seed_ = 0;
  std::vector<ShardSlot> shards_;
  // Per-shard routing runs reused across InsertBatch calls (capacity is
  // retained, so steady-state batches allocate nothing).
  std::vector<std::vector<Record>> batch_runs_;
};

}  // namespace ltc

#endif  // LTC_CORE_SHARDED_LTC_H_
