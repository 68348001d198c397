// Parallel ingestion engine for ShardedLtc — the FeedParallel pattern the
// sharded header promises, packaged as a component (docs/INGEST.md).
//
//   producer thread                     worker threads (one per shard)
//   Push / PushBatch ──route by hash──▶ SPSC ring ──drain in batches──▶
//                                       shard(i).InsertBatch(...)
//
// One router (the caller's thread) hashes each record to its owning shard
// with ShardedLtc::ShardOf and appends it to that shard's bounded SPSC
// ring; one worker per shard drains its ring in batches through the
// Ltc::InsertBatch fast path. Because routing preserves each shard's
// arrival order and shards are independent tables, the final state is
// item-for-item identical to sequential ShardedLtc::Insert of the same
// stream — parallelism buys throughput, never a different answer
// (pinned by tests/ingest_pipeline_test.cc).
//
// Backpressure on a full ring is configurable: kBlock (the producer
// waits for the worker to make room; it loses records only when that
// wait expires) or kDrop (the record is counted and discarded — bounded
// producer latency under overload, like a NIC queue). kBlock's wait is
// BOUNDED: a lane that makes no progress for `stall_timeout_usec` of
// wall time latches stalled() and its stuck records are counted as
// dropped, instead of wedging the producer forever.
//
// Worker lifetime (docs/INGEST.md "Failure handling & degradation"):
// each lane keeps the one worker the constructor spawned until Stop(),
// so every shard table has exactly one writer, the premise of both the
// no-overestimation guarantee and the bit-identity above. Nothing
// replaces a worker that stops draining: its lane shows as a stall
// (bounded waits expire, stalled() latches, StallDetail names the
// backlog) until it drains again and a Flush() completes, or until
// Stop() applies the leftover backlog inline. health() summarises this
// as Healthy / Degraded (a lane is shedding) / Stalled.
//
// Overload shedding (opt-in, kBlock only): when a lane's queue depth
// stays above the high watermark for `sustain` consecutive pushes (a
// Push call, or one PushBatch slice routed to that lane), the
// producer switches that lane to counted probabilistic admission —
// admit one record in `admit_one_in`, never spin — until depth holds
// below the low watermark. Every shed record is counted
// (pushed = enqueued + dropped + shed, always).
//
// Durability: attach a SnapshotStore and call Checkpoint() at whatever
// cadence the caller keeps (ltc_cli: every --checkpoint-every records)
// to persist the sink — each checkpoint rides the Flush() barrier
// (flush → serialize → atomic save → resume feeding; workers never
// restart). A checkpoint is one attempt: the stall bound owns the wait
// for a slow lane, and the store's own retry policy owns re-attempts of
// the write. See docs/DURABILITY.md.
//
// Threading contract: Push / PushBatch / Flush / Stop / Checkpoint must
// all be called from ONE producer thread. Queries on the ShardedLtc are
// only safe after Flush() (all queued records applied, memory-visible)
// or Stop(). health(), stalled(), the stats accessors and Collect() are
// safe from any thread.

#ifndef LTC_INGEST_INGEST_PIPELINE_H_
#define LTC_INGEST_INGEST_PIPELINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/read_snapshot.h"
#include "core/sharded_ltc.h"
#include "ingest/spsc_ring.h"
#include "telemetry/metrics.h"

namespace ltc {

class SnapshotStore;

/// What the router does when a shard's ring is full.
enum class BackpressureMode {
  kBlock,  // wait for the worker to free space; counted drops on a stall
  kDrop,   // discard the record and count it; bounded producer latency
};

/// The pipeline's summarized condition. Ordered by severity: the metric
/// gauge exports the enum value, so alerts can threshold on it.
enum class IngestHealth {
  kHealthy = 0,   // no shedding, no latched stall
  kDegraded = 1,  // a lane is shedding
  kStalled = 2,   // a bounded wait expired, no complete Flush() since
};

/// "healthy" / "degraded" / "stalled".
const char* IngestHealthName(IngestHealth health);

/// Producer-side overload shedding knobs (see IngestConfig::shed).
struct ShedPolicy {
  /// Master switch; shedding applies only under kBlock backpressure
  /// (kDrop already has bounded producer latency).
  bool enabled = false;

  /// Queue-depth fractions of ring capacity. Depth at or above high for
  /// `sustain` consecutive pushes starts shedding; depth at or below
  /// low for `sustain` consecutive pushes ends it (hysteresis).
  double high_watermark = 0.9;
  double low_watermark = 0.5;

  /// Consecutive per-lane push observations (one per Push, one per
  /// PushBatch slice that routes records to the lane) required to flip
  /// state — one transient full ring does not start a shed.
  uint32_t sustain = 3;

  /// While shedding, admit one record in this many (and only when the
  /// ring has room right now); the rest are counted as shed.
  uint32_t admit_one_in = 8;
};

struct IngestConfig {
  /// Per-shard ring capacity in records (rounded up to a power of two).
  size_t ring_capacity = 1 << 14;

  /// Worker drain granularity: how many records a worker pops and hands
  /// to Ltc::InsertBatch at once.
  size_t drain_batch = 512;

  BackpressureMode backpressure = BackpressureMode::kBlock;

  /// Escape hatch for kBlock push waits and Flush() waits: once a lane
  /// has made NO progress for this long (wall time, microseconds), the
  /// wait gives up, stalled() latches true and (for a blocked push) the
  /// stuck records are counted as dropped. A dead worker thus surfaces
  /// as an observable error instead of an infinite producer wait. Lane
  /// progress (records the ring accepts or the worker applies) restarts
  /// the bound, so only silence counts.
  uint64_t stall_timeout_usec = 2'000'000;

  /// Overload shedding under sustained queue pressure (off by default).
  ShedPolicy shed;
};

/// Per-shard operational counters (see IngestPipeline::ShardStatsOf).
struct IngestShardStats {
  uint64_t enqueued = 0;     // records accepted into the ring
  uint64_t dropped = 0;      // records discarded (kDrop, or a kBlock stall)
  uint64_t shed = 0;         // records rejected by overload shedding
  uint64_t drained = 0;      // records applied to the shard table
  uint64_t batches = 0;      // InsertBatch calls the worker issued
  uint64_t flushes = 0;      // Flush() waits this lane completed
  bool shedding = false;     // lane currently in probabilistic admission
  size_t queue_depth = 0;    // ring occupancy at sampling time (racy)
  size_t ring_capacity = 0;
};

class IngestPipeline {
 public:
  /// Spawns one worker thread per shard of `sink`; each runs until
  /// Stop(). The sink must outlive the pipeline, and nothing else may
  /// touch it until Flush()/Stop().
  explicit IngestPipeline(ShardedLtc& sink, const IngestConfig& config = {});

  /// Stops and joins the workers (all accepted records are applied).
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Routes one record to its shard's ring. Producer thread only.
  void Push(ItemId item, double time = 0.0);

  /// Routes a run of records, streaming it in fixed-size slices: each
  /// slice is partitioned into per-shard runs and enqueued before the
  /// next is routed, so every ring fills while the batch is still being
  /// routed and each ring is published to once per slice instead of once
  /// per record — feed the pipeline in batches whenever the stream
  /// allows. Shedding observes each lane's depth once per slice. Under
  /// kBlock, once a lane's bounded wait expires, the rest of that lane's
  /// records in this batch are counted as dropped without waiting again.
  void PushBatch(std::span<const Record> records);

  /// Records PushBatch routes per slice. Small next to the default ring
  /// (16K records per lane), so a full ring stalls the producer for at
  /// most one slice while the other rings keep their workers busy.
  static constexpr size_t kPushSlice = 4096;

  /// Blocks until every accepted record has been applied to its shard
  /// table (and is memory-visible to this thread). The pipeline stays
  /// usable: Push may resume after Flush — that is how mid-stream
  /// snapshots are taken (flush, query, keep feeding). The wait is
  /// bounded (see IngestConfig::stall_timeout_usec): returns false when
  /// a stalled worker kept records from draining, true when every
  /// accepted record is applied. A complete Flush() clears stalled().
  bool Flush();

  /// Attaches a read-snapshot hub (docs/SERVING.md): every successful
  /// Flush() barrier then publishes a bit-identical clone of the sink
  /// into the hub, so concurrent readers (the query server) always see
  /// a consistent flush-boundary image without ever touching the live
  /// tables. The hub must outlive the pipeline (or be detached with
  /// nullptr first). Producer thread only.
  void AttachReadSnapshotHub(ReadSnapshotHub* hub) { snapshot_hub_ = hub; }

  /// Attaches the checkpoint sink that Checkpoint() saves into. The
  /// store must outlive the pipeline (or be detached with nullptr
  /// first). Producer thread only. The pipeline never checkpoints on
  /// its own: the caller decides the cadence.
  void AttachSnapshotStore(SnapshotStore* store) { snapshot_store_ = store; }

  /// Takes a checkpoint NOW: one Flush(), one serialization of the sink
  /// and one SnapshotStore::Save, which re-attempts the write per the
  /// store's own retry policy. Returns false (with `error` naming the
  /// stalled shards and their queue depths, or the save failure) when
  /// the flush stalled or the save failed — the previously persisted
  /// snapshots are untouched either way. Producer thread only.
  bool Checkpoint(std::string* error = nullptr);

  /// Checkpoints successfully taken / failed since construction, and
  /// the store sequence number of the newest one (0 = none yet).
  uint64_t CheckpointsTaken() const {
    return checkpoints_taken_.load(std::memory_order_relaxed);
  }
  uint64_t CheckpointFailures() const {
    return checkpoint_failures_.load(std::memory_order_relaxed);
  }
  uint64_t LastCheckpointSeq() const { return last_checkpoint_seq_; }

  /// Latched true once any bounded wait expired (dead/stuck worker);
  /// cleared by the next Flush() that applies every accepted record.
  bool stalled() const { return stalled_.load(std::memory_order_acquire); }

  /// Current condition: Stalled while the stall latch is set, Degraded
  /// while any lane sheds, Healthy otherwise. Any thread.
  IngestHealth health() const;

  /// Total records rejected by overload shedding across shards.
  uint64_t TotalShed() const;

  /// Fault-injection seam: HangWorkerForTest(shard, suspended) on every
  /// lane. Any thread.
  void SuspendWorkersForTest(bool suspended);

  /// Fault-injection seam: the shard's worker exits its loop at the next
  /// iteration, as if the thread died. Nothing replaces it: the lane
  /// stalls until Stop() applies its backlog inline. Any thread.
  void KillWorkerForTest(uint32_t shard);

  /// Fault-injection seam: the shard's worker spins without applying
  /// anything (a hung or descheduled thread) until released with
  /// hung=false or Stop(). Any thread.
  void HangWorkerForTest(uint32_t shard, bool hung);

  /// Flushes, stops and joins all workers. Idempotent; called by the
  /// destructor. After Stop() the pipeline accepts no more records.
  void Stop();

  /// Total records accepted across shards (excludes drops and sheds).
  uint64_t TotalEnqueued() const;

  /// Total records discarded by kDrop backpressure or a stalled kBlock
  /// push.
  uint64_t TotalDropped() const;

  /// Throws std::out_of_range when `shard` >= num_shards().
  IngestShardStats ShardStatsOf(uint32_t shard) const;

  /// Publishes the ltc_ingest_* families (docs/TELEMETRY.md) into
  /// `registry` from the pipeline's own counters: per-shard
  /// enqueued / dropped / shed / drained / batches / flushes,
  /// queue-depth and ring-capacity gauges, the stalled and health gauges,
  /// the checkpoint totals and the Flush()/Checkpoint() latency
  /// histograms. Every family appears even before any traffic. Any
  /// thread, at any time: every counter it reads is atomic.
  void Collect(telemetry::MetricsRegistry& registry) const;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(lanes_.size());
  }

 private:
  // One shard's lane: its ring, its worker, and its counters, grouped by
  // writer so each writing thread owns its cache lines.
  struct Lane {
    explicit Lane(size_t ring_capacity) : ring(ring_capacity) {}

    SpscRing ring;

    // Producer-written.
    alignas(64) std::atomic<uint64_t> enqueued{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint64_t> flushes{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<bool> shedding{false};
    uint64_t shed_tick = 0;     // admission counter (producer only)
    uint32_t over_streak = 0;   // consecutive pushes above high (producer)
    uint32_t under_streak = 0;  // consecutive pushes below low (producer)
    bool gave_up = false;  // kBlock wait expired in this PushBatch (producer)
    size_t high_threshold = 0;  // records; fixed after construction
    size_t low_threshold = 0;

    // Worker-written, plus the test seams the worker polls.
    alignas(64) std::atomic<uint64_t> drained{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<bool> kill{false};
    std::atomic<bool> hung{false};

    std::thread worker;
  };

  void WorkerLoop(uint32_t shard_index);

  // Pushes one shard's routed run, honouring backpressure; the records
  // not accepted are counted as dropped or shed. Returns false when a
  // kBlock wait expired (stall latched).
  bool PushRun(Lane& lane, std::span<const Record> run);
  void PushRunShedding(Lane& lane, std::span<const Record> run);
  void UpdateShedState(Lane& lane);

  // "shard 1: queue_depth 64/64, drained 100/164; shard 3: ..." for
  // every lane with an undrained backlog.
  std::string StallDetail() const;

  bool AnyShedding() const;

  ShardedLtc& sink_;
  IngestConfig config_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // stable addresses for threads
  std::vector<std::vector<Record>> route_runs_;  // PushBatch scratch
  std::atomic<bool> stop_{false};
  std::atomic<bool> stalled_{false};  // latched by expired bounded waits
  bool stopped_ = false;  // producer-side latch; Stop is idempotent

  // Read-snapshot publishing (producer thread only).
  ReadSnapshotHub* snapshot_hub_ = nullptr;

  // Checkpoint state (producer-written; the totals are atomic so that
  // Collect may read them from any thread).
  SnapshotStore* snapshot_store_ = nullptr;
  std::atomic<uint64_t> checkpoints_taken_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
  uint64_t last_checkpoint_seq_ = 0;

  // Barrier latencies (producer-recorded, published by Collect).
  telemetry::Histogram flush_duration_usec_;
  telemetry::Histogram checkpoint_duration_usec_;
};

}  // namespace ltc

#endif  // LTC_INGEST_INGEST_PIPELINE_H_
