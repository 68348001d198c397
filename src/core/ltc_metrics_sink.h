// Hot-path metrics sink for the LTC family (docs/TELEMETRY.md).
//
// A plain struct of monotonic uint64 counters that an Ltc increments
// inline when a sink is attached. NOT atomic on purpose: every Ltc is
// single-threaded by contract (ShardedLtc / IngestPipeline give each
// shard its own table — attach one sink per shard and read them only
// from a quiesced pipeline, i.e. after Flush()/Stop()).
//
// The hooks themselves are compiled only under LTC_METRICS (a CMake
// option, default ON); with the option off, Ltc carries no sink member
// and its insert path compiles to the exact uninstrumented code — the
// same pattern as LTC_AUDIT. With the option on but no sink attached,
// the cost is one predicted-not-taken branch per hook site. An
// attached sink costs single-digit percent of insert throughput
// (bench_speed's BM_LtcSink cases; docs/TELEMETRY.md has the figure).
//
// Each sink owns whole cache lines (alignas(64)): shards fed by
// different threads write their sinks on every record, and sinks kept
// side by side in an array or std::vector (one per shard) would
// otherwise share a line and ping-pong it between cores, erasing the
// shards' parallel speed-up (docs/TELEMETRY.md).
//
// telemetry/ltc_collectors.h publishes a sink into a MetricsRegistry
// under the ltc_core_* families.

#ifndef LTC_CORE_LTC_METRICS_SINK_H_
#define LTC_CORE_LTC_METRICS_SINK_H_

#include <cstdint>

namespace ltc {

struct alignas(64) LtcMetricsSink {
  // Arrival mix (the three cases of §III-B).
  uint64_t inserts_tracked = 0;      // Case 1: item already in its bucket
  uint64_t inserts_admitted = 0;     // Case 2: took a free cell
  uint64_t inserts_decremented = 0;  // Case 3: arrival hit a full bucket

  // Case-3 internals: decrement operations actually applied, occupants
  // expelled at significance 0 (or taken over under kMinPlusOne), and
  // admissions that used the Long-tail Replacement initializer.
  uint64_t significance_decrements = 0;
  uint64_t expulsions = 0;
  uint64_t longtail_replacements = 0;

  // CLOCK activity: slots the pointer scanned, periods completed.
  uint64_t clock_steps = 0;
  uint64_t periods_completed = 0;

  // Occupancy gauge, refreshed by the sweep: the number of non-empty
  // cells observed by the most recently COMPLETED period sweep (each
  // sweep visits all m slots exactly once, so this is a full sample
  // that costs nothing extra). 0 until the first period completes.
  uint64_t occupied_cells = 0;

  // Internal scratch: occupied cells seen so far by the sweep currently
  // in progress. Published into occupied_cells at the period boundary.
  uint64_t scan_occupied_scratch = 0;
};

static_assert(alignof(LtcMetricsSink) >= 64,
              "per-shard sinks must not share a cache line");

}  // namespace ltc

#endif  // LTC_CORE_LTC_METRICS_SINK_H_
