#include "core/sharded_ltc.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"

namespace ltc {

ShardedLtc::ShardedLtc(const LtcConfig& config, uint32_t num_shards)
    : route_seed_(Mix64(config.seed ^ 0x5a5a5a5aULL)) {
  assert(num_shards >= 1);
  LtcConfig per_shard = config;
  per_shard.memory_bytes = config.memory_bytes / num_shards;
  // In count-based mode each shard sees only its slice of the arrivals;
  // its period must be the per-shard EXPECTED arrivals so all shards'
  // clocks stay aligned with wall-stream periods.
  if (config.period_mode == PeriodMode::kCountBased) {
    per_shard.items_per_period =
        std::max<uint64_t>(1, config.items_per_period / num_shards);
  }
  shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    shards_.push_back(ShardSlot{Ltc(per_shard)});
  }
}

uint32_t ShardedLtc::ShardOf(ItemId item) const {
  return static_cast<uint32_t>(
      FastRange64(Murmur64A(item, route_seed_), shards_.size()));
}

void ShardedLtc::Insert(ItemId item, double time) {
  shard(ShardOf(item)).Insert(item, time);
}

void ShardedLtc::InsertBatch(std::span<const Record> records) {
  // Partition into per-shard runs. Routing preserves each shard's
  // arrival order and shards are independent, so handing every shard its
  // run as one batch reproduces the sequential-Insert state exactly.
  if (batch_runs_.size() != shards_.size()) {
    batch_runs_.assign(shards_.size(), {});
  }
  for (auto& run : batch_runs_) run.clear();
  for (const Record& record : records) {
    batch_runs_[ShardOf(record.item)].push_back(record);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!batch_runs_[s].empty()) shard(s).InsertBatch(batch_runs_[s]);
  }
}

void ShardedLtc::Finalize() {
  for (ShardSlot& slot : shards_) slot.table.Finalize();
}

std::vector<Ltc::Report> ShardedLtc::TopK(size_t k) const {
  std::vector<Ltc::Report> all;
  for (const ShardSlot& slot : shards_) {
    for (const auto& report : slot.table.TopK(k)) all.push_back(report);
  }
  RankReports(&all, k);
  return all;
}

double ShardedLtc::QuerySignificance(ItemId item) const {
  return shard(ShardOf(item)).QuerySignificance(item);
}

uint64_t ShardedLtc::EstimateFrequency(ItemId item) const {
  return shard(ShardOf(item)).EstimateFrequency(item);
}

uint64_t ShardedLtc::EstimatePersistency(ItemId item) const {
  return shard(ShardOf(item)).EstimatePersistency(item);
}

namespace {
constexpr uint32_t kShardedMagic = 0x53484c31;  // "SHL1"
// v2: explicit format version after the magic (v1 had none).
constexpr uint32_t kShardedFormatVersion = 2;
}  // namespace

void ShardedLtc::Serialize(BinaryWriter& writer) const {
  PutVersionedMagic(writer, kShardedMagic, kShardedFormatVersion);
  writer.PutU64(route_seed_);
  writer.PutU32(static_cast<uint32_t>(shards_.size()));
  for (const ShardSlot& slot : shards_) slot.table.Serialize(writer);
}

std::optional<ShardedLtc> ShardedLtc::Deserialize(BinaryReader& reader) {
  if (!CheckVersionedMagic(reader, kShardedMagic, kShardedFormatVersion)) {
    return std::nullopt;
  }
  ShardedLtc sharded;
  sharded.route_seed_ = reader.GetU64();
  uint32_t num_shards = reader.GetU32();
  if (reader.failed() || num_shards == 0 || num_shards > 4096) {
    return std::nullopt;
  }
  sharded.shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    auto shard = Ltc::Deserialize(reader);
    if (!shard) return std::nullopt;
    sharded.shards_.push_back(ShardSlot{std::move(*shard)});
  }
  return sharded;
}

ShardedLtc ShardedLtc::CloneAtBarrier() const {
  ShardedLtc copy(*this);
  for (ShardSlot& slot : copy.shards_) slot.table.DetachTransientsForClone();
  return copy;
}

bool ShardedLtc::CheckInvariants() const {
  for (const ShardSlot& slot : shards_) {
    if (!slot.table.CheckInvariants()) return false;
  }
  return true;
}

size_t ShardedLtc::MemoryBytes() const {
  size_t total = 0;
  for (const ShardSlot& slot : shards_) total += slot.table.MemoryBytes();
  return total;
}

}  // namespace ltc
