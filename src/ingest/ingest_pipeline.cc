#include "ingest/ingest_pipeline.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>

#include "snapshot/snapshot_store.h"
#include "telemetry/trace.h"

namespace ltc {

namespace {

/// Microseconds elapsed since `start`, saturated at 0.
uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto usec =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  return usec > 0 ? static_cast<uint64_t>(usec) : 0;
}

/// Monotonic max-store: records `gen` in `slot` unless a newer
/// generation already acknowledged its exit.
void MaxStore(std::atomic<uint64_t>& slot, uint64_t gen) {
  uint64_t prev = slot.load(std::memory_order_relaxed);
  while (prev < gen && !slot.compare_exchange_weak(prev, gen,
                                                   std::memory_order_release,
                                                   std::memory_order_relaxed)) {
  }
}

}  // namespace

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
    : sink_(sink),
      config_(config),
      clock_(config.clock != nullptr ? config.clock : &SystemClock()) {
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
    lanes_[s]->worker = std::thread([this, s] { WorkerLoop(s, 1); });
  }
  if (config_.supervision.enabled && shards > 0) {
    supervisor_ = std::thread([this] { SupervisorLoop(); });
  }
}

IngestPipeline::~IngestPipeline() { Stop(); }

void IngestPipeline::WorkerLoop(uint32_t shard_index, uint64_t my_gen) {
  Lane& lane = *lanes_[shard_index];
  Ltc& shard = sink_.shard(shard_index);
  std::vector<Record> batch(config_.drain_batch);
  for (;;) {
    // Fault-injection seam: a hung thread — no heartbeat, no progress,
    // no exit. Targets one generation, so a supervisor-spawned
    // replacement is immune; Stop() releases it so it can be joined.
    if (lane.hang_gen.load(std::memory_order_acquire) == my_gen &&
        !stop_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
      continue;
    }
    // Lease check: a retired generation must never touch the ring or
    // the table again — the replacement is the ring's sole consumer.
    if (lane.generation.load(std::memory_order_acquire) != my_gen) break;
    // Fault-injection seam: die cooperatively, as a crashed thread
    // would. Cleared here so the replacement does not inherit it.
    if (lane.kill.load(std::memory_order_acquire)) {
      lane.kill.store(false, std::memory_order_relaxed);
      break;
    }
    if (suspended_.load(std::memory_order_acquire) &&
        !stop_.load(std::memory_order_acquire)) {
      // Fault-injection seam: play dead — but keep heartbeating, so the
      // supervisor sees paused-but-alive and does not restart (Stop
      // still drains, so suspension never loses accepted records).
      lane.heartbeat.fetch_add(1, std::memory_order_release);
      std::this_thread::yield();
      continue;
    }
    // Every heartbeat bump below is a RELEASE that comes AFTER the ring
    // and table accesses of its iteration; the supervisor ACQUIRES the
    // heartbeat before retiring a hung worker. That chain hands the old
    // consumer's ring state (including its plain index caches and the
    // slot visibility it acquired from the producer) to the replacement
    // thread: worker writes → heartbeat release → supervisor acquire →
    // replacement spawn. A worker parked in the hang seam stops bumping
    // only AFTER the bump that covers its last ring access.
    size_t n = lane.ring.PopBatch(batch.data(), batch.size());
    if (n == 0) {
      if (stop_.load(std::memory_order_acquire)) {
        // The producer publishes its last records BEFORE setting stop_
        // (release/acquire pair), so one more pop observes everything.
        n = lane.ring.PopBatch(batch.data(), batch.size());
        if (n == 0) break;
      } else {
        lane.heartbeat.fetch_add(1, std::memory_order_release);
        std::this_thread::yield();
        continue;
      }
    }
    // Opened once the pop returned records, so idle polls of an empty
    // ring leave no span.
    telemetry::Span span("ingest.drain");
    // Apply the batch in small chunks, publishing heartbeat and drain
    // progress after each: a worker slowed down by an expensive insert
    // path (an LTC_AUDIT build sweeps the whole table per record) still
    // shows steady progress, so the supervisor cannot mistake slow for
    // hung and retire a live worker mid-mutation. Chunking is
    // estimate-neutral: InsertBatch is bit-identical to per-record
    // insertion, so any split of the batch is too.
    constexpr size_t kProgressChunk = 64;
    for (size_t off = 0; off < n; off += kProgressChunk) {
      const size_t len = std::min(kProgressChunk, n - off);
      shard.InsertBatch({batch.data() + off, len});
      lane.heartbeat.fetch_add(1, std::memory_order_release);
      // Release so a Flush() that acquire-reads `drained` also sees the
      // table mutations above.
      lane.drained.fetch_add(len, std::memory_order_release);
    }
    lane.batches.fetch_add(1, std::memory_order_relaxed);
  }
  // Exit acknowledgement: max-store so a late zombie exit can never
  // overwrite (and thus mask) a newer generation's death.
  MaxStore(lane.exited_gen, my_gen);
}

void IngestPipeline::SupervisorLoop() {
  std::unique_lock<std::mutex> lock(supervisor_mutex_);
  while (!supervisor_stop_) {
    supervisor_cv_.wait_for(
        lock, std::chrono::microseconds(config_.supervision.interval_usec));
    if (supervisor_stop_) break;
    lock.unlock();
    SuperviseTick();
    lock.lock();
  }
}

void IngestPipeline::RestartLane(uint32_t shard_index) {
  Lane& lane = *lanes_[shard_index];
  // Acquire the retiring worker's last published progress so the spawn
  // below happens-after its final table writes: the replacement reads a
  // fully settled shard table.
  lane.drained_at_restart = lane.drained.load(std::memory_order_acquire);
  const uint64_t next_gen =
      lane.generation.load(std::memory_order_relaxed) + 1;
  lane.generation.store(next_gen, std::memory_order_release);
  lane.worker = std::thread(
      [this, shard_index, next_gen] { WorkerLoop(shard_index, next_gen); });
  lane.restarts.fetch_add(1, std::memory_order_relaxed);
  // Exponential restart cooldown: a lane that keeps dying without
  // draining anything gets re-checked less and less often, so a
  // poisoned shard cannot turn the supervisor into a spawn storm.
  lane.restart_streak = std::min<uint32_t>(lane.restart_streak + 1, 8);
  lane.cooldown_left = 1ull << lane.restart_streak;
  lane.stuck_ticks = 0;
}

void IngestPipeline::SuperviseTick() {
  bool any_cooldown = false;
  bool all_live = true;
  uint64_t total_backlog = 0;
  for (uint32_t s = 0; s < lanes_.size(); ++s) {
    Lane& lane = *lanes_[s];
    const uint64_t gen = lane.generation.load(std::memory_order_relaxed);
    const uint64_t enqueued = lane.enqueued.load(std::memory_order_acquire);
    const uint64_t drained = lane.drained.load(std::memory_order_acquire);
    const uint64_t backlog = enqueued > drained ? enqueued - drained : 0;
    total_backlog += backlog;
    if (lane.cooldown_left > 0) {
      --lane.cooldown_left;
      any_cooldown = true;
      if (lane.exited_gen.load(std::memory_order_acquire) >= gen) {
        all_live = false;
      }
      continue;
    }
    if (drained > lane.drained_at_restart) lane.restart_streak = 0;
    if (lane.exited_gen.load(std::memory_order_acquire) >= gen) {
      // The current worker exited (killed, or died cooperatively): its
      // thread has run to completion, so the join is immediate.
      if (lane.worker.joinable()) lane.worker.join();
      RestartLane(s);
      any_cooldown = true;
      all_live = false;
      continue;
    }
    if (backlog > 0) {
      // Acquire pairs with the worker's release bumps: by the time a
      // frozen heartbeat retires a worker, everything it did to the
      // ring up to its last bump happens-before the replacement spawn.
      const uint64_t heartbeat =
          lane.heartbeat.load(std::memory_order_acquire);
      if (heartbeat == lane.last_heartbeat && drained == lane.last_drained) {
        if (++lane.stuck_ticks >= config_.supervision.hang_ticks) {
          // Hung: frozen heartbeat with work pending. The thread cannot
          // be joined (it may never return), so revoke its lease, park
          // it with the zombies until Stop(), and hand the ring to a
          // fresh worker. Residual risk: a live-but-glacial worker
          // retired here could still be inside one InsertBatch while
          // the replacement inserts — hang_ticks is deliberately
          // conservative for that reason.
          zombies_.push_back(std::move(lane.worker));
          RestartLane(s);
          any_cooldown = true;
          all_live = false;
        }
      } else {
        lane.stuck_ticks = 0;
      }
      lane.last_heartbeat = heartbeat;
      lane.last_drained = drained;
    } else {
      lane.stuck_ticks = 0;
      lane.last_heartbeat = lane.heartbeat.load(std::memory_order_acquire);
      lane.last_drained = drained;
    }
  }
  degraded_.store(any_cooldown, std::memory_order_relaxed);
  // Heal the stall latch: every lane live again and every accepted
  // record applied means the incident is over — new bounded waits can
  // succeed, so the latch may tell the truth again.
  if (stalled_.load(std::memory_order_acquire) && all_live &&
      total_backlog == 0) {
    stalled_.store(false, std::memory_order_release);
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
  uint64_t idle_yields = 0;
  bool delivered = true;
  while (!run.empty()) {
    size_t pushed = lane.ring.TryPushBatch(run);
    accepted += pushed;
    run = run.subspan(pushed);
    if (run.empty()) break;
    if (config_.backpressure == BackpressureMode::kDrop) {
      lane.dropped.fetch_add(run.size(), std::memory_order_relaxed);
      break;
    }
    if (pushed > 0) {
      idle_yields = 0;
    } else if (++idle_yields > config_.stall_yield_limit) {
      // kBlock escape hatch: the worker made no room for the whole
      // bounded wait — treat it as dead, surface the stall, and account
      // for the records we could not deliver.
      stalled_.store(true, std::memory_order_release);
      lane.dropped.fetch_add(run.size(), std::memory_order_relaxed);
      delivered = false;
      break;
    }
    std::this_thread::yield();  // kBlock: wait for the worker to drain
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
  const auto start = std::chrono::steady_clock::now();
  // A yield returns at once when no other thread is queued on this
  // core, so under CPU load the yield budget alone can run out before a
  // live worker queued on another core is scheduled at all. While the
  // worker's heartbeat is silent, "descheduled" and "hung" look alike,
  // and telling them apart is the supervisor's job: a supervised lane
  // gets at least one hang window of wall time before the wait gives
  // up, and spends it asleep, so the scheduler can move the worker onto
  // this core. A worker that heartbeats without draining (suspended)
  // is judged on the yield budget alone, as is every unsupervised lane.
  const uint64_t hang_window_usec =
      config_.supervision.enabled
          ? config_.supervision.interval_usec * config_.supervision.hang_ticks
          : 0;
  bool complete = true;
  for (auto& lane : lanes_) {
    const uint64_t target = lane->enqueued.load(std::memory_order_relaxed);
    uint64_t last = lane->drained.load(std::memory_order_acquire);
    uint64_t beat = lane->heartbeat.load(std::memory_order_acquire);
    auto progress_at = std::chrono::steady_clock::now();
    uint64_t idle_yields = 0;
    bool lane_complete = true;
    while (last < target) {
      if (++idle_yields <= config_.stall_yield_limit) {
        std::this_thread::yield();
      } else if (lane->heartbeat.load(std::memory_order_acquire) == beat &&
                 MicrosSince(progress_at) < hang_window_usec) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.supervision.interval_usec));
      } else {
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
        beat = lane->heartbeat.load(std::memory_order_acquire);
        progress_at = std::chrono::steady_clock::now();
        idle_yields = 0;
      }
    }
    if (lane_complete) {
      lane->flushes.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (complete && snapshot_hub_ != nullptr) {
    // All accepted records are applied and memory-visible: this is a
    // quiescent barrier, the one moment a bit-identical clone is safe.
    snapshot_hub_->Publish(
        std::make_unique<ShardedLtc>(sink_.CloneAtBarrier()),
        TotalEnqueued());
  }
  flush_duration_usec_.Record(MicrosSince(start));
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

bool IngestPipeline::CheckpointOnce(std::string* error) {
  telemetry::Span span("ingest.checkpoint");
  if (!Flush()) {
    if (error != nullptr) {
      *error = "pipeline stalled; checkpoint skipped (" + StallDetail() + ")";
    }
    return false;
  }
  // After a complete Flush every worker has applied its backlog and is
  // idle-polling an empty ring; only this (producer) thread can make
  // new records appear, so reading the shard tables here is safe.
  BinaryWriter writer;
  sink_.Serialize(writer);
  std::string save_error;
  const auto seq = snapshot_store_->Save(writer.data(), &save_error);
  if (!seq.has_value()) {
    if (error != nullptr) *error = save_error;
    return false;
  }
  last_checkpoint_seq_ = *seq;
  return true;
}

bool IngestPipeline::Checkpoint(std::string* error) {
  assert(!stopped_ && "Checkpoint after Stop()");
  const auto start = std::chrono::steady_clock::now();
  if (snapshot_store_ == nullptr) {
    if (error != nullptr) *error = "no snapshot store attached";
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // The whole attempt (flush + serialize + save) retries under the
  // backoff policy: a stall the supervisor heals mid-backoff, or a
  // transient save failure, costs a delay instead of the checkpoint.
  std::string attempt_error;
  uint64_t retries = 0;
  const bool ok = RetryWithBackoff(
      config_.checkpoint_retry, *clock_,
      [&] {
        attempt_error.clear();
        return CheckpointOnce(&attempt_error);
      },
      &retries);
  checkpoint_retries_.fetch_add(retries, std::memory_order_relaxed);
  if (!ok) {
    if (error != nullptr) *error = attempt_error;
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_duration_usec_.Record(MicrosSince(start));
  return true;
}

IngestHealth IngestPipeline::health() const {
  if (stalled()) return IngestHealth::kStalled;
  if (degraded_.load(std::memory_order_relaxed) || AnyShedding()) {
    return IngestHealth::kDegraded;
  }
  return IngestHealth::kHealthy;
}

bool IngestPipeline::AnyShedding() const {
  for (const auto& lane : lanes_) {
    if (lane->shedding.load(std::memory_order_relaxed)) return true;
  }
  return false;
}

uint64_t IngestPipeline::WorkerRestarts() const {
  uint64_t total = 0;
  for (const auto& lane : lanes_) {
    total += lane->restarts.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t IngestPipeline::TotalShed() const {
  uint64_t total = 0;
  for (const auto& lane : lanes_) {
    total += lane->shed.load(std::memory_order_relaxed);
  }
  return total;
}

void IngestPipeline::KillWorkerForTest(uint32_t shard) {
  assert(shard < lanes_.size());
  lanes_[shard]->kill.store(true, std::memory_order_release);
}

void IngestPipeline::HangWorkerForTest(uint32_t shard, bool hung) {
  assert(shard < lanes_.size());
  Lane& lane = *lanes_[shard];
  if (hung) {
    lane.hang_gen.store(lane.generation.load(std::memory_order_acquire),
                        std::memory_order_release);
  } else {
    lane.hang_gen.store(0, std::memory_order_release);
  }
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
        .CounterOf("ltc_ingest_worker_restarts_total",
                   "Times the supervisor replaced the shard's worker",
                   shard_label)
        .SetFromSample(stats.restarts);
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
      .CounterOf("ltc_ingest_checkpoint_retries_total",
                 "Checkpoint attempt re-runs under the backoff policy")
      .SetFromSample(CheckpointRetries());
  registry
      .GaugeOf("ltc_ingest_stalled",
               "1 while a bounded wait has expired on a dead/stuck worker "
               "and the supervisor has not yet healed the stall")
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
  // Stop the supervisor FIRST: after its join, no other thread touches
  // lane.worker, zombies_ or the generations, so everything below is
  // single-threaded shutdown.
  if (supervisor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(supervisor_mutex_);
      supervisor_stop_ = true;
    }
    supervisor_cv_.notify_all();
    supervisor_.join();
  }
  // Release-publish after the last push; workers acquire-read stop_ and
  // then drain whatever remains (see WorkerLoop). stop_ also releases
  // hang-seam zombies so they can exit and be joined. join() makes
  // every worker's table mutations visible to this thread.
  stop_.store(true, std::memory_order_release);
  for (auto& lane : lanes_) {
    if (lane->worker.joinable()) lane->worker.join();
  }
  for (auto& zombie : zombies_) {
    if (zombie.joinable()) zombie.join();
  }
  zombies_.clear();
  // A worker that died and was not yet replaced (supervision off, or
  // Stop() won the race with the supervisor) leaves its backlog in the
  // ring. Every thread is joined, so this thread is now the sole
  // consumer: apply the leftovers — Stop() never loses an accepted
  // record.
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
  stats.restarts = lane.restarts.load(std::memory_order_relaxed);
  stats.shedding = lane.shedding.load(std::memory_order_relaxed);
  stats.queue_depth = lane.ring.SizeApprox();
  stats.ring_capacity = lane.ring.capacity();
  return stats;
}

}  // namespace ltc
