#include "server/aggregator.h"

#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "common/serial.h"
#include "telemetry/trace.h"

namespace ltc {
namespace server {

AggregatorCore::AggregatorCore(const LtcConfig& config, ReadSnapshotHub* hub,
                               uint64_t stale_after_sec, Clock* clock)
    : config_(config),
      reference_(config),
      hub_(hub),
      clock_(clock != nullptr ? clock : &SystemClock()),
      stale_after_sec_(stale_after_sec),
      merged_(config),
      fold_state_(merged_) {}

PushOutcome AggregatorCore::Reject(Status status, std::string detail) {
  rejects_total_++;
  PushOutcome outcome;
  outcome.status = status;
  outcome.detail = std::move(detail);
  return outcome;
}

PushOutcome AggregatorCore::ApplyPush(const PushView& push) {
  // Parents under the dispatcher's server.request span, which itself
  // carries the pusher's remote context — the cross-process link.
  telemetry::Span span("agg.merge");
  span.AddAttr("node", push.node_id);
  span.AddAttr("epoch", push.epoch_seq);
  if (push.sketch_kind != kSketchKindLtc) {
    return Reject(Status::kErrBadSketch,
                  "unsupported sketch kind " +
                      std::to_string(static_cast<int>(push.sketch_kind)));
  }
  if (push.epoch_seq == 0) {
    return Reject(Status::kErrBadSketch, "epoch_seq must be >= 1");
  }

  auto it = nodes_.find(push.node_id);
  if (it != nodes_.end()) {
    // Epoch gate first: a stale or duplicate push is judged by its
    // sequence alone, so even a corrupted retransmit of an old epoch
    // gets the retry-stopping answer instead of kErrBadSketch churn.
    if (push.epoch_seq < it->second.last_epoch) {
      return Reject(Status::kErrStaleEpoch,
                    "epoch " + std::to_string(push.epoch_seq) +
                        " older than applied " +
                        std::to_string(it->second.last_epoch));
    }
    if (push.epoch_seq == it->second.last_epoch) {
      duplicates_total_++;
      PushOutcome outcome;
      outcome.status = Status::kOk;
      outcome.applied = false;
      outcome.epoch_seq = push.epoch_seq;
      return outcome;
    }
  }

  // A known node's image with its table's header is checked in place,
  // writing nothing, and names the buckets it changes; the refold's walk
  // copies them in. Anything else is deserialized whole and changes
  // every bucket of the fold: a new node's, wherever its id sorts among
  // the nodes already folded.
  Ltc::ImageUpdate update = Ltc::ImageUpdate::kNewHeader;
  if (it != nodes_.end()) {
    update = it->second.sketch.CheckImage(push.payload, changed_);
  }
  if (update == Ltc::ImageUpdate::kCorrupt) {
    return Reject(Status::kErrBadSketch, "sketch payload does not deserialize");
  }
  std::string_view image = push.payload;
  if (update == Ltc::ImageUpdate::kNewHeader) {
    BinaryReader reader(push.payload);
    std::optional<Ltc> table = Ltc::Deserialize(reader);
    if (!table.has_value() || !reader.AtEnd()) {
      return Reject(Status::kErrBadSketch,
                    "sketch payload does not deserialize");
    }
    if (!reference_.CanMergeWith(*table)) {
      return Reject(Status::kErrShapeMismatch,
                    "pushed sketch geometry/weights do not match the "
                    "aggregate");
    }
    changed_.resize(reference_.num_buckets());
    std::iota(changed_.begin(), changed_.end(), 0u);
    if (it == nodes_.end()) {
      it = nodes_.emplace(push.node_id,
                          NodeState(std::move(*table), nodes_.size()))
               .first;
    } else {
      it->second.sketch = std::move(*table);
    }
    image = {};  // the table already holds its cells
  }
  NodeState& node = it->second;
  node.last_epoch = push.epoch_seq;
  node.records = push.records;
  node.last_push_usec = clock_->NowMicros();

  merges_total_++;
  RefoldAndPublish(push.node_id, image);

  PushOutcome outcome;
  outcome.status = Status::kOk;
  outcome.applied = true;
  outcome.epoch_seq = push.epoch_seq;
  return outcome;
}

void AggregatorCore::RefoldAndPublish(uint64_t pusher_id,
                                      std::string_view image) {
  telemetry::Span span("agg.republish");
  span.AddAttr("nodes", nodes_.size());
  span.AddAttr("buckets", changed_.size());
  std::vector<Ltc::RankedSource> sources;
  sources.reserve(nodes_.size());
  size_t pusher = 0;
  NodeState* pushed = nullptr;
  uint64_t records = 0;
  for (auto& [node_id, node] : nodes_) {
    if (node_id == pusher_id) {
      pusher = sources.size();
      pushed = &node;
    }
    sources.push_back(
        {&node.sketch, node.rank, static_cast<uint8_t>(node.slot)});
    records += node.records;
  }
  // Shapes were checked at apply time, so every source can merge. The
  // tags name sources by a byte-wide slot: past 256 nodes, every bucket
  // takes the N-way path.
  Ltc::FoldState* state =
      nodes_.size() <= kMaxTaggedNodes ? &fold_state_ : nullptr;
  const uint64_t two_way = fold_state_.paths.two_way;
  const uint64_t matched_steps = merged_.RefoldPush(
      sources, changed_, state, pusher, {&pushed->sketch, pushed->rank},
      image);
  span.AddAttr("matched_steps", matched_steps);
  span.AddAttr("two_way", fold_state_.paths.two_way - two_way);
  has_merged_ = true;
  total_records_ = records;
  if (hub_ != nullptr) {
    // Best-effort publish: a straggling reader may pin the stale slot,
    // in which case the previous merged image simply stays current and
    // the next push republishes (the hub bounds its publisher's wait).
    hub_->Publish(std::make_unique<Ltc>(merged_), records);
  }
}

uint64_t AggregatorCore::AgeSecOf(const NodeState& node,
                                  uint64_t now_usec) const {
  const uint64_t last = node.last_push_usec;
  return now_usec > last ? (now_usec - last) / 1'000'000 : 0;
}

void AggregatorCore::Collect(telemetry::MetricsRegistry& registry) const {
  registry
      .CounterOf("ltc_agg_merges_total",
                 "Pushed sketches applied to the aggregate.")
      .SetFromSample(merges_total_);
  registry
      .CounterOf("ltc_agg_pushes_rejected_total",
                 "Pushes rejected with a typed error "
                 "(shape/epoch/deserialize).")
      .SetFromSample(rejects_total_);
  registry
      .CounterOf("ltc_agg_pushes_duplicate_total",
                 "Retransmitted pushes acknowledged without reapplying.")
      .SetFromSample(duplicates_total_);
  registry.GaugeOf("ltc_agg_nodes", "Nodes that have pushed at least once.")
      .Set(static_cast<double>(nodes_.size()));
  const uint64_t now = clock_->NowMicros();
  for (const auto& [node_id, node] : nodes_) {
    registry
        .GaugeOf("ltc_agg_node_staleness_sec",
                 "Seconds since a node's last applied push.",
                 {{"node", std::to_string(node_id)}})
        .Set(static_cast<double>(AgeSecOf(node, now)));
  }
}

std::vector<StatsNodeRow> AggregatorCore::NodeRows() const {
  const uint64_t now = clock_->NowMicros();
  std::vector<StatsNodeRow> rows;
  rows.reserve(nodes_.size());
  for (const auto& [node_id, node] : nodes_) {
    StatsNodeRow row;
    row.node_id = node_id;
    row.last_epoch = node.last_epoch;
    row.age_sec = AgeSecOf(node, now);
    row.stale = row.age_sec > stale_after_sec_ ? 1 : 0;
    rows.push_back(row);
  }
  return rows;
}

std::string AggregatorCore::SerializeMerged() const {
  if (!has_merged_) return std::string();
  BinaryWriter writer;
  merged_.Serialize(writer);
  return writer.data();
}

}  // namespace server
}  // namespace ltc
