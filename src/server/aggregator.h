// The aggregation tier's merge brain (docs/SERVING.md "Aggregation
// tier"). Ingest nodes push flush-barrier sketch images over LTCQ
// (PUSH_SKETCH); an AggregatorCore folds them into one merged LTC view
// and republishes it through the ReadSnapshotHub, so the same query
// front end that serves a single node serves the fleet.
//
// Delivery model — the whole point of this class: push clients retry on
// ANY failure (at-least-once), so the aggregator must make duplicated,
// reordered and re-sent pushes harmless. Two properties achieve that:
//
//   * Pushes are CUMULATIVE. Each image is the node's entire sketch at
//     a barrier, not a delta, so applying a push is "replace this
//     node's contribution", never "add to it". Replays cannot
//     double-count.
//   * The merged aggregate is the fold of the per-node images in
//     node_id order. The result is a pure function of {newest image
//     per node}, so it is bit-identical no matter how many times a push
//     was retried or in what order nodes' pushes interleaved (pinned by
//     tests/aggregation_chaos_test.cc).
//
// Cost: MergeFrom is bucket-local, so aggregate bucket b depends only on
// each node's bucket b. An applied push therefore refolds only the
// buckets where the new image differs from the node's previous one (all
// of them for a node's first push), and keeps the rest of the
// persistent aggregate. The result is the same bytes a full refold
// would give (pinned by tests/aggregation_test.cc). A push pays for
// what it changes, in two steps:
//
//   * Check. The payload is read where the frame parser received it
//     (PushView). An image with the node's header is judged in place
//     (Ltc::CheckImage): one pass diffs its lanes against the node's
//     table bucket by bucket and runs every Deserialize check on the
//     new scalars and the changed buckets (on all of them if the
//     counter cap fell). It writes nothing, so a rejected push leaves
//     the node's table, its rank lane and the aggregate as they were.
//     Any other image takes Deserialize whole.
//   * Apply (Ltc::RefoldPush). One walk over the changed buckets; per
//     bucket it copies the node's new cells in, computes each
//     significance once, re-ranks the bucket in the node's rank lane
//     (its cell indices, best first, 4 bytes per cell: 32 KiB at the
//     128 KiB, d = 8 shape), and writes the aggregate's bucket once,
//     as the top d of the nodes' ranked runs. The aggregate keeps, per
//     bucket, whether its nodes hold disjoint IDs there, and per
//     merged cell a 1-byte tag naming its node's slot (fixed at the
//     node's first push; 8 KiB plus 1 KiB at this shape). A disjoint
//     bucket refolds two-way: the old bucket less the pusher's tagged
//     cells, merged with the pusher's run. That is exact when the old
//     bucket was not full, or when the new d-th cell ranks at or
//     before the old d-th: every other node's cell the old bucket left
//     out ranks after the old d-th, so none of them can enter.
//     Otherwise the bucket takes the N-way merge of every node's run.
//     Only the IDs new to the pusher's bucket are probed for in the
//     other nodes' buckets first; the rest were there when the bucket
//     was last found disjoint. A bucket where two nodes hold the same
//     item (substreams that are not item-partitioned) takes
//     MergeFrom's add-and-re-rank steps, node by node; the
//     agg.republish span counts the steps that added a shared item as
//     matched_steps, and the buckets refolded two-way as two_way.
//
// Ledgers in docs/PERF.md "Aggregator push path", "Per-cell loops",
// "Incremental push apply" and "One-walk push apply".
//
// Epoch rules, per node: epoch_seq must be >= 1 and is compared against
// the newest applied epoch. Newer → applied; equal → acknowledged as a
// duplicate (kOk, applied=0) without touching the aggregate; older →
// kErrStaleEpoch, a terminal rejection the client must not retry.
//
// Degradation: a node that stops pushing never wedges anything — its
// last image keeps contributing, its STATS row ages, and once the age
// passes `stale_after_sec` the row is flagged and the
// ltc_agg_node_staleness_sec gauge shows it. Operators alert on the
// gauge; queries keep being answered either way.
//
// Threading: single-driver, by design the QueryServer event-loop thread
// (dispatch calls ApplyPush). That makes the hub's single-publisher
// contract hold for free. Read-only accessors (SerializeMerged,
// NodeRows, Collect) are for tests and for callers that own the loop,
// after Stop().

#ifndef LTC_SERVER_AGGREGATOR_H_
#define LTC_SERVER_AGGREGATOR_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "core/ltc.h"
#include "core/read_snapshot.h"
#include "server/protocol.h"
#include "telemetry/metrics.h"

namespace ltc {
namespace server {

/// What one PUSH_SKETCH did. `status` maps straight onto the wire
/// response; `applied` distinguishes a merge from a duplicate ack.
struct PushOutcome {
  Status status = Status::kOk;
  bool applied = false;     // meaningful when status == kOk
  uint64_t epoch_seq = 0;   // echoed in the ack
  std::string detail;       // error detail for non-kOk statuses
};

class AggregatorCore {
 public:
  /// `config` fixes the aggregate's shape: every pushed sketch must
  /// CanMergeWith a table of this config or the push is rejected with
  /// kErrShapeMismatch. `hub` (may be null in library tests) receives
  /// the merged image after every applied push. `clock` defaults to
  /// SystemClock; tests inject a FakeClock to script staleness.
  AggregatorCore(const LtcConfig& config, ReadSnapshotHub* hub,
                 uint64_t stale_after_sec = 60, Clock* clock = nullptr);

  AggregatorCore(const AggregatorCore&) = delete;
  AggregatorCore& operator=(const AggregatorCore&) = delete;

  /// Publishes the ltc_agg_* families (docs/TELEMETRY.md) from the
  /// aggregator's own counters, with each node's staleness measured
  /// now. Call it from the driving thread, or after the server that
  /// drives this aggregator has stopped.
  void Collect(telemetry::MetricsRegistry& registry) const;

  /// Applies one decoded PUSH_SKETCH. Total: every input yields a typed
  /// outcome, never UB — a sketch that fails to deserialize or to merge
  /// leaves the aggregate exactly as it was. The payload is only read
  /// during the call.
  PushOutcome ApplyPush(const PushView& push);

  /// Per-node delivery state for STATS, in node_id order.
  std::vector<StatsNodeRow> NodeRows() const;

  /// Serialized bytes of the current merged aggregate — the oracle hook
  /// for bit-identity assertions. Empty string before the first merge.
  std::string SerializeMerged() const;

  uint64_t merges_total() const { return merges_total_; }
  uint64_t rejects_total() const { return rejects_total_; }
  uint64_t duplicates_total() const { return duplicates_total_; }
  uint64_t total_records() const { return total_records_; }
  size_t num_nodes() const { return nodes_.size(); }
  uint64_t stale_after_sec() const { return stale_after_sec_; }
  /// Changed buckets refolded per path since construction.
  const Ltc::RefoldPaths& refold_paths() const { return fold_state_.paths; }

 private:
  // Tags are one byte: past this many nodes the refold goes N-way.
  static constexpr size_t kMaxTaggedNodes = 256;

  struct NodeState {
    uint64_t last_epoch = 0;
    uint64_t records = 0;
    uint64_t last_push_usec = 0;
    Ltc sketch;
    std::vector<uint32_t> rank;  // sketch's rank lane (Ltc::RankedSource)
    size_t slot;  // the fold's tag for this node: its first-push order

    NodeState(Ltc s, size_t first_push_order)
        : sketch(std::move(s)), rank(sketch.num_cells()), slot(first_push_order) {}
  };

  PushOutcome Reject(Status status, std::string detail);
  /// Copies the checked `image` (empty: the node's table already holds
  /// it) into node `pusher_id`'s table, re-ranks it and refolds merged_
  /// across nodes_, bucket by bucket over changed_, against that node's
  /// run where it can, and publishes a copy. Per-push cost is
  /// O(changed buckets × d) for a two-way fold, times the node count for
  /// an N-way one, plus O(table) for the copy; the aggregate stays a
  /// pure function of the node images (see file comment).
  void RefoldAndPublish(uint64_t pusher_id, std::string_view image);
  uint64_t AgeSecOf(const NodeState& node, uint64_t now_usec) const;

  const LtcConfig config_;
  const Ltc reference_;  // empty table: the shape every push must match
  ReadSnapshotHub* hub_;
  Clock* clock_;
  const uint64_t stale_after_sec_;

  std::map<uint64_t, NodeState> nodes_;  // node_id order = fold order
  Ltc merged_;
  Ltc::FoldState fold_state_;      // merged_'s disjoint bits and tags
  std::vector<uint32_t> changed_;  // the buckets the applied push changed
  bool has_merged_ = false;
  uint64_t total_records_ = 0;
  uint64_t merges_total_ = 0;
  uint64_t rejects_total_ = 0;
  uint64_t duplicates_total_ = 0;
};

}  // namespace server
}  // namespace ltc

#endif  // LTC_SERVER_AGGREGATOR_H_
