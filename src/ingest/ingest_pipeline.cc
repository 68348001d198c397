#include "ingest/ingest_pipeline.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/clock.h"
#include "snapshot/snapshot_store.h"
#include "telemetry/trace.h"

namespace ltc {

const char* IngestHealthName(IngestHealth health) {
  switch (health) {
    case IngestHealth::kHealthy:
      return "healthy";
    case IngestHealth::kDegraded:
      return "degraded";
    case IngestHealth::kStalled:
      return "stalled";
  }
  return "unknown";
}

IngestPipeline::IngestPipeline(ShardedLtc& sink, const IngestConfig& config)
    : sink_(sink), config_(config) {
  assert(config_.drain_batch >= 1);
  const uint32_t shards = sink.num_shards();
  lanes_.reserve(shards);
  route_runs_.assign(shards, {});
  for (uint32_t s = 0; s < shards; ++s) {
    lanes_.push_back(std::make_unique<Lane>(config_.ring_capacity));
    Lane& lane = *lanes_.back();
    // Shed watermarks in records, against the ACTUAL (rounded) capacity.
    const double cap = static_cast<double>(lane.ring.capacity());
    lane.high_threshold = std::max<size_t>(
        1, std::min(lane.ring.capacity(),
                    static_cast<size_t>(cap * config_.shed.high_watermark)));
    lane.low_threshold =
        std::min(lane.high_threshold - 1,
                 static_cast<size_t>(cap * config_.shed.low_watermark));
  }
  // Spawn only after every lane exists: a worker touches just its own
  // lane and shard, but the vector itself must never reallocate under it.
  for (uint32_t s = 0; s < shards; ++s) {
    lanes_[s]->worker = std::thread([this, s] { WorkerLoop(s); });
  }
}

IngestPipeline::~IngestPipeline() { Stop(); }

void IngestPipeline::WorkerLoop(uint32_t shard_index) {
  Lane& lane = *lanes_[shard_index];
  Ltc& shard = sink_.shard(shard_index);
  std::vector<Record> batch(config_.drain_batch);
  for (;;) {
    // Fault-injection seam: a hung thread — no progress, no exit, until
    // released; Stop() releases it so it drains and can be joined.
    if (lane.hung.load(std::memory_order_acquire) &&
        !stop_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
      continue;
    }
    // Fault-injection seam: die cooperatively, as a crashed thread
    // would. Stop() applies whatever the ring still holds.
    if (lane.kill.load(std::memory_order_acquire)) break;
    size_t n = lane.ring.PopBatch(batch.data(), batch.size());
    if (n == 0) {
      if (stop_.load(std::memory_order_acquire)) {
        // The producer publishes its last records BEFORE setting stop_
        // (release/acquire pair), so one more pop observes everything.
        n = lane.ring.PopBatch(batch.data(), batch.size());
        if (n == 0) break;
      } else {
        std::this_thread::yield();
        continue;
      }
    }
    // Opened once the pop returned records, so idle polls of an empty
    // ring leave no span.
    telemetry::Span span("ingest.drain");
    shard.InsertBatch({batch.data(), n});
    // Release so a Flush() that acquire-reads `drained` also sees the
    // table mutations above.
    lane.drained.fetch_add(n, std::memory_order_release);
    lane.batches.fetch_add(1, std::memory_order_relaxed);
  }
}

void IngestPipeline::UpdateShedState(Lane& lane) {
  const size_t depth = lane.ring.SizeApprox();
  const uint32_t sustain = std::max<uint32_t>(1, config_.shed.sustain);
  if (depth >= lane.high_threshold) {
    lane.under_streak = 0;
    if (!lane.shedding.load(std::memory_order_relaxed) &&
        ++lane.over_streak >= sustain) {
      lane.shedding.store(true, std::memory_order_relaxed);
      lane.over_streak = 0;
    }
  } else if (depth <= lane.low_threshold) {
    lane.over_streak = 0;
    if (lane.shedding.load(std::memory_order_relaxed) &&
        ++lane.under_streak >= sustain) {
      lane.shedding.store(false, std::memory_order_relaxed);
      lane.under_streak = 0;
    }
  } else {
    // Between the watermarks: hysteresis — neither streak advances.
    lane.over_streak = 0;
    lane.under_streak = 0;
  }
}

void IngestPipeline::PushRunShedding(Lane& lane,
                                     std::span<const Record> run) {
  // Counted probabilistic admission: admit one record in admit_one_in,
  // and only if the ring has room RIGHT NOW — a shedding producer never
  // spins. Everything else is shed, and counted.
  const uint32_t admit_one_in = std::max<uint32_t>(1, config_.shed.admit_one_in);
  uint64_t accepted = 0;
  uint64_t shed = 0;
  for (const Record& record : run) {
    if (++lane.shed_tick % admit_one_in == 0 && lane.ring.TryPush(record)) {
      ++accepted;
    } else {
      ++shed;
    }
  }
  lane.enqueued.fetch_add(accepted, std::memory_order_relaxed);
  lane.shed.fetch_add(shed, std::memory_order_relaxed);
}

bool IngestPipeline::PushRun(Lane& lane, std::span<const Record> run) {
  if (config_.shed.enabled &&
      config_.backpressure == BackpressureMode::kBlock) {
    UpdateShedState(lane);
    if (lane.shedding.load(std::memory_order_relaxed)) {
      PushRunShedding(lane, run);
      return true;
    }
  }
  uint64_t accepted = 0;
  bool delivered = true;
  uint64_t progress_at = 0;  // read once the ring first fills
  while (!run.empty()) {
    size_t pushed = lane.ring.TryPushBatch(run);
    accepted += pushed;
    run = run.subspan(pushed);
    if (run.empty()) break;
    if (config_.backpressure == BackpressureMode::kDrop) {
      lane.dropped.fetch_add(run.size(), std::memory_order_relaxed);
      break;
    }
    if (pushed > 0 || progress_at == 0) progress_at = SystemClock().NowMicros();
    if (!WaitStep(progress_at, config_.stall_timeout_usec)) {
      // kBlock escape hatch: the worker made no room for the whole
      // bounded wait — treat it as dead, surface the stall, and account
      // for the records we could not deliver.
      stalled_.store(true, std::memory_order_release);
      lane.dropped.fetch_add(run.size(), std::memory_order_relaxed);
      delivered = false;
      break;
    }
  }
  lane.enqueued.fetch_add(accepted, std::memory_order_relaxed);
  return delivered;
}

void IngestPipeline::Push(ItemId item, double time) {
  assert(!stopped_ && "Push after Stop()");
  const Record record{item, time};
  PushRun(*lanes_[sink_.ShardOf(item)], {&record, 1});
}

void IngestPipeline::PushBatch(std::span<const Record> records) {
  assert(!stopped_ && "PushBatch after Stop()");
  // Route and enqueue one slice at a time, so every ring starts filling
  // while the rest of the batch is still being routed, and a lane whose
  // ring is full holds the others back by at most one slice.
  for (auto& lane : lanes_) lane->gave_up = false;
  while (!records.empty()) {
    const auto slice = records.first(std::min(kPushSlice, records.size()));
    records = records.subspan(slice.size());
    for (auto& run : route_runs_) run.clear();
    for (const Record& record : slice) {
      route_runs_[sink_.ShardOf(record.item)].push_back(record);
    }
    for (uint32_t s = 0; s < lanes_.size(); ++s) {
      Lane& lane = *lanes_[s];
      const std::vector<Record>& run = route_runs_[s];
      if (run.empty()) continue;
      if (lane.gave_up) {
        // This lane's bounded wait already expired in this batch: count
        // the rest as dropped at once instead of waiting again per slice.
        lane.dropped.fetch_add(run.size(), std::memory_order_relaxed);
      } else if (!PushRun(lane, run)) {
        lane.gave_up = true;
      }
    }
  }
}

bool IngestPipeline::Flush() {
  telemetry::Span span("ingest.flush");
  const uint64_t start = SystemClock().NowMicros();
  bool complete = true;
  for (auto& lane : lanes_) {
    const uint64_t target = lane->enqueued.load(std::memory_order_relaxed);
    uint64_t last = lane->drained.load(std::memory_order_acquire);
    uint64_t progress_at = SystemClock().NowMicros();
    bool lane_complete = true;
    while (last < target) {
      if (!WaitStep(progress_at, config_.stall_timeout_usec)) {
        // Bounded wait expired without progress: a dead worker must
        // surface as an error, not an infinite wait.
        stalled_.store(true, std::memory_order_release);
        complete = false;
        lane_complete = false;
        break;
      }
      const uint64_t now = lane->drained.load(std::memory_order_acquire);
      if (now != last) {
        last = now;
        progress_at = SystemClock().NowMicros();
      }
    }
    if (lane_complete) {
      lane->flushes.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (complete) {
    // Every accepted record is applied: whatever stalled has drained,
    // so the latch may tell the truth again.
    stalled_.store(false, std::memory_order_release);
    if (snapshot_hub_ != nullptr) {
      // All accepted records are applied and memory-visible: this is a
      // quiescent barrier, the one moment a bit-identical clone is safe.
      snapshot_hub_->Publish(
          std::make_unique<ShardedLtc>(sink_.CloneAtBarrier()),
          TotalEnqueued());
    }
  }
  flush_duration_usec_.Record(SystemClock().NowMicros() - start);
  return complete;
}

std::string IngestPipeline::StallDetail() const {
  std::string detail;
  for (uint32_t s = 0; s < lanes_.size(); ++s) {
    const Lane& lane = *lanes_[s];
    const uint64_t enqueued = lane.enqueued.load(std::memory_order_relaxed);
    const uint64_t drained = lane.drained.load(std::memory_order_acquire);
    if (drained >= enqueued) continue;
    if (!detail.empty()) detail += "; ";
    detail += "shard " + std::to_string(s) + ": queue_depth " +
              std::to_string(lane.ring.SizeApprox()) + "/" +
              std::to_string(lane.ring.capacity()) + ", drained " +
              std::to_string(drained) + "/" + std::to_string(enqueued);
  }
  return detail.empty() ? "no shard backlog observed" : detail;
}

bool IngestPipeline::Checkpoint(std::string* error) {
  assert(!stopped_ && "Checkpoint after Stop()");
  const uint64_t start = SystemClock().NowMicros();
  const auto fail = [&](std::string why) {
    if (error != nullptr) *error = std::move(why);
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  };
  if (snapshot_store_ == nullptr) return fail("no snapshot store attached");
  telemetry::Span span("ingest.checkpoint");
  if (!Flush()) {
    return fail("pipeline stalled; checkpoint skipped (" + StallDetail() +
                ")");
  }
  // After a complete Flush every worker has applied its backlog and is
  // idle-polling an empty ring; only this (producer) thread can make
  // new records appear, so reading the shard tables here is safe.
  BinaryWriter writer;
  sink_.Serialize(writer);
  std::string save_error;
  const auto seq = snapshot_store_->Save(writer.data(), &save_error);
  if (!seq.has_value()) return fail(std::move(save_error));
  last_checkpoint_seq_ = *seq;
  checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_duration_usec_.Record(SystemClock().NowMicros() - start);
  return true;
}

IngestHealth IngestPipeline::health() const {
  if (stalled()) return IngestHealth::kStalled;
  if (AnyShedding()) return IngestHealth::kDegraded;
  return IngestHealth::kHealthy;
}

bool IngestPipeline::AnyShedding() const {
  for (const auto& lane : lanes_) {
    if (lane->shedding.load(std::memory_order_relaxed)) return true;
  }
  return false;
}

uint64_t IngestPipeline::TotalShed() const {
  uint64_t total = 0;
  for (const auto& lane : lanes_) {
    total += lane->shed.load(std::memory_order_relaxed);
  }
  return total;
}

void IngestPipeline::SuspendWorkersForTest(bool suspended) {
  for (uint32_t s = 0; s < lanes_.size(); ++s) {
    HangWorkerForTest(s, suspended);
  }
}

void IngestPipeline::KillWorkerForTest(uint32_t shard) {
  assert(shard < lanes_.size());
  lanes_[shard]->kill.store(true, std::memory_order_release);
}

void IngestPipeline::HangWorkerForTest(uint32_t shard, bool hung) {
  assert(shard < lanes_.size());
  lanes_[shard]->hung.store(hung, std::memory_order_release);
}

void IngestPipeline::Collect(telemetry::MetricsRegistry& registry) const {
  for (uint32_t s = 0; s < lanes_.size(); ++s) {
    const IngestShardStats stats = ShardStatsOf(s);
    const telemetry::Labels shard_label{{"shard", std::to_string(s)}};
    registry
        .CounterOf("ltc_ingest_enqueued_total",
                   "Records accepted into the shard's ring", shard_label)
        .SetFromSample(stats.enqueued);
    registry
        .CounterOf("ltc_ingest_dropped_total",
                   "Records discarded by kDrop backpressure or a stalled "
                   "kBlock push",
                   shard_label)
        .SetFromSample(stats.dropped);
    registry
        .CounterOf("ltc_ingest_shed_records_total",
                   "Records rejected by overload shedding", shard_label)
        .SetFromSample(stats.shed);
    registry
        .CounterOf("ltc_ingest_drained_total",
                   "Records applied to the shard table", shard_label)
        .SetFromSample(stats.drained);
    registry
        .CounterOf("ltc_ingest_batches_total",
                   "InsertBatch calls the shard's worker issued", shard_label)
        .SetFromSample(stats.batches);
    registry
        .CounterOf("ltc_ingest_flushes_total",
                   "Flush() waits this shard's lane completed", shard_label)
        .SetFromSample(stats.flushes);
    registry
        .GaugeOf("ltc_ingest_shed_active",
                 "1 while the lane is in counted probabilistic admission",
                 shard_label)
        .Set(stats.shedding ? 1.0 : 0.0);
    registry
        .GaugeOf("ltc_ingest_queue_depth",
                 "Ring occupancy at sampling time (racy)", shard_label)
        .Set(static_cast<double>(stats.queue_depth));
    registry
        .GaugeOf("ltc_ingest_ring_capacity",
                 "Ring capacity in records", shard_label)
        .Set(static_cast<double>(stats.ring_capacity));
  }
  registry
      .CounterOf("ltc_ingest_checkpoints_total",
                 "Checkpoint attempts by result",
                 {{"result", "ok"}})
      .SetFromSample(CheckpointsTaken());
  registry
      .CounterOf("ltc_ingest_checkpoints_total",
                 "Checkpoint attempts by result",
                 {{"result", "error"}})
      .SetFromSample(CheckpointFailures());
  registry
      .GaugeOf("ltc_ingest_stalled",
               "1 from a bounded wait that expired on a dead/stuck worker "
               "until the next complete Flush()")
      .Set(stalled() ? 1.0 : 0.0);
  registry
      .GaugeOf("ltc_ingest_health_state",
               "Pipeline health state machine: 0 healthy, 1 degraded, 2 "
               "stalled")
      .Set(static_cast<double>(health()));
  registry
      .HistogramOf("ltc_ingest_flush_duration_usec",
                   "Latency of Flush() barriers in microseconds")
      .SetFromSample(flush_duration_usec_);
  registry
      .HistogramOf("ltc_ingest_checkpoint_duration_usec",
                   "Latency of successful checkpoints (flush + serialize + "
                   "atomic save) in microseconds")
      .SetFromSample(checkpoint_duration_usec_);
}

void IngestPipeline::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // Release-publish after the last push; workers acquire-read stop_ and
  // then drain whatever remains (see WorkerLoop). stop_ also releases
  // hung workers so they drain and exit. join() makes every worker's
  // table mutations visible to this thread.
  stop_.store(true, std::memory_order_release);
  for (auto& lane : lanes_) {
    if (lane->worker.joinable()) lane->worker.join();
  }
  // A killed worker leaves its backlog in the ring. Every worker is
  // joined, so this thread is now the sole consumer: apply the
  // leftovers — Stop() never loses an accepted record.
  std::vector<Record> batch(config_.drain_batch);
  for (uint32_t s = 0; s < lanes_.size(); ++s) {
    Lane& lane = *lanes_[s];
    for (;;) {
      const size_t n = lane.ring.PopBatch(batch.data(), batch.size());
      if (n == 0) break;
      sink_.shard(s).InsertBatch({batch.data(), n});
      lane.batches.fetch_add(1, std::memory_order_relaxed);
      lane.drained.fetch_add(n, std::memory_order_relaxed);
    }
  }
}

uint64_t IngestPipeline::TotalEnqueued() const {
  uint64_t total = 0;
  for (const auto& lane : lanes_) {
    total += lane->enqueued.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t IngestPipeline::TotalDropped() const {
  uint64_t total = 0;
  for (const auto& lane : lanes_) {
    total += lane->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

IngestShardStats IngestPipeline::ShardStatsOf(uint32_t shard) const {
  if (shard >= lanes_.size()) {
    throw std::out_of_range("IngestPipeline::ShardStatsOf: shard " +
                            std::to_string(shard) + " >= num_shards " +
                            std::to_string(lanes_.size()));
  }
  const Lane& lane = *lanes_[shard];
  IngestShardStats stats;
  stats.enqueued = lane.enqueued.load(std::memory_order_relaxed);
  stats.dropped = lane.dropped.load(std::memory_order_relaxed);
  stats.shed = lane.shed.load(std::memory_order_relaxed);
  stats.drained = lane.drained.load(std::memory_order_relaxed);
  stats.batches = lane.batches.load(std::memory_order_relaxed);
  stats.flushes = lane.flushes.load(std::memory_order_relaxed);
  stats.shedding = lane.shedding.load(std::memory_order_relaxed);
  stats.queue_depth = lane.ring.SizeApprox();
  stats.ring_capacity = lane.ring.capacity();
  return stats;
}

}  // namespace ltc
