// The collector of the core-layer LtcMetricsSink (plain per-table
// counters the hot path increments): what Collect is to the other
// components, PublishLtcSink is to a sink — it writes the sink's fields
// into a MetricsRegistry as the ltc_core_* families. Header-only
// dependency on core/ltc_metrics_sink.h — no link-time coupling between
// ltc_telemetry and ltc_core.
//
// Call after the table is quiescent (single-threaded use, or after
// IngestPipeline::Flush()/Stop() for per-shard sinks): publishing
// samples the sink's monotone fields with Counter::SetFromSample, so
// repeated publishes of a growing sink are always consistent.

#ifndef LTC_TELEMETRY_LTC_COLLECTORS_H_
#define LTC_TELEMETRY_LTC_COLLECTORS_H_

#include <cstddef>

#include "core/ltc_metrics_sink.h"
#include "telemetry/metrics.h"

namespace ltc {
namespace telemetry {

/// Publishes `sink` into `registry` under the ltc_core_* families (see
/// docs/TELEMETRY.md for the catalog), with `labels` attached to every
/// series (e.g. {{"shard", "0"}}; pass {} for a single table). When
/// `num_cells` > 0, also publishes ltc_core_occupancy_ratio =
/// occupied_cells / num_cells.
void PublishLtcSink(MetricsRegistry& registry, const LtcMetricsSink& sink,
                    const Labels& labels = {}, size_t num_cells = 0);

}  // namespace telemetry
}  // namespace ltc

#endif  // LTC_TELEMETRY_LTC_COLLECTORS_H_
