// Tests for the telemetry subsystem (docs/TELEMETRY.md): the metrics
// registry contract (find-or-create, stable references, kind and name
// validation), log2 histogram bucket boundaries, exact exposition
// goldens for both formats, and a multi-thread hammer with exact final
// counts — the latter doubles as the tsan workload for the lock-free
// primitives. Then the one-counter-source contract of every component's
// Collect, and a live scrape racing a serving QueryServer and an
// ingesting IngestPipeline (the tsan workload for Collect).

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/ltc.h"
#include "core/read_snapshot.h"
#include "core/sharded_ltc.h"
#include "ingest/ingest_pipeline.h"
#include "server/aggregator.h"
#include "server/key_codec.h"
#include "server/protocol.h"
#include "server/push_client.h"
#include "server/query_server.h"
#include "snapshot/failpoint_fs.h"
#include "snapshot/snapshot_store.h"
#include "store/sketch_store.h"
#include "telemetry/exposition.h"
#include "telemetry/ltc_collectors.h"
#include "telemetry/metrics.h"
#include "testing/faulty_transport.h"

namespace ltc {
namespace telemetry {
namespace {

TEST(MetricsRegistry, FindOrCreateReturnsStableReference) {
  MetricsRegistry registry;
  Counter& a = registry.CounterOf("requests_total", "Total requests.");
  a.Increment(7);
  Counter& b = registry.CounterOf("requests_total", "Total requests.");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.Value(), 7u);
  EXPECT_EQ(registry.num_families(), 1u);
}

TEST(MetricsRegistry, DistinctLabelsMakeDistinctSeriesInOneFamily) {
  MetricsRegistry registry;
  Counter& x = registry.CounterOf("hits_total", "Hits.", {{"shard", "0"}});
  Counter& y = registry.CounterOf("hits_total", "Hits.", {{"shard", "1"}});
  EXPECT_NE(&x, &y);
  EXPECT_EQ(registry.num_families(), 1u);
  x.Increment(2);
  y.Increment(5);
  EXPECT_EQ(registry.CounterOf("hits_total", "Hits.", {{"shard", "0"}}).Value(),
            2u);
  EXPECT_EQ(registry.CounterOf("hits_total", "Hits.", {{"shard", "1"}}).Value(),
            5u);
}

TEST(MetricsRegistry, KindMismatchThrowsLogicError) {
  MetricsRegistry registry;
  registry.CounterOf("mixed", "A counter.");
  EXPECT_THROW(registry.GaugeOf("mixed", "Now a gauge?"), std::logic_error);
  EXPECT_THROW(registry.HistogramOf("mixed", "Now a histogram?"),
               std::logic_error);
}

TEST(MetricsRegistry, InvalidNamesThrow) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.CounterOf("9starts_with_digit", ""),
               std::invalid_argument);
  EXPECT_THROW(registry.CounterOf("has space", ""), std::invalid_argument);
  EXPECT_THROW(registry.CounterOf("", ""), std::invalid_argument);
  EXPECT_THROW(registry.CounterOf("ok_total", "", {{"9bad", "v"}}),
               std::invalid_argument);
  EXPECT_THROW(registry.CounterOf("ok_total", "", {{"colon:no", "v"}}),
               std::invalid_argument);
  // Colons are legal in metric names (recording-rule convention), and
  // label values are unrestricted (exposition escapes them).
  registry.CounterOf("ltc:derived_total", "");
  registry.CounterOf("ok_total", "", {{"path", "a\"b\\c\nd"}});
}

TEST(Gauge, SetAndAdd) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(2.5);
  EXPECT_EQ(gauge.Value(), 2.5);
  gauge.Add(-1.0);
  EXPECT_EQ(gauge.Value(), 1.5);
}

TEST(Counter, SetFromSampleOverwrites) {
  Counter counter;
  counter.Increment(3);
  counter.SetFromSample(42);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(Histogram, BucketBoundaries) {
  // bucket i = values of bit-width i: 0 → bucket 0, [2^(i−1), 2^i − 1]
  // → bucket i, and everything >= 2^63 lands in the +Inf overflow.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex((uint64_t{1} << 63) - 1), 63u);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 63), 64u);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<uint64_t>::max()),
            64u);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(63), (uint64_t{1} << 63) - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(64),
            std::numeric_limits<uint64_t>::max());
}

TEST(Histogram, RecordsZeroMaxAndOverflow) {
  Histogram histogram;
  histogram.Record(0);
  histogram.Record(std::numeric_limits<uint64_t>::max());
  histogram.Record(uint64_t{1} << 63);
  EXPECT_EQ(histogram.BucketCount(0), 1u);
  EXPECT_EQ(histogram.BucketCount(64), 2u);
  EXPECT_EQ(histogram.Count(), 3u);
  // Sum wraps modulo 2^64 by design: max + 2^63 + 0.
  EXPECT_EQ(histogram.Sum(),
            std::numeric_limits<uint64_t>::max() + (uint64_t{1} << 63));
}

TEST(Exposition, PrometheusTextGolden) {
  MetricsRegistry registry;
  registry.CounterOf("requests_total", "Total requests.", {{"path", "/x"}})
      .Increment(3);
  registry.CounterOf("requests_total", "Total requests.", {{"path", "/y"}})
      .Increment(1);
  registry.GaugeOf("temperature", "Current temperature.").Set(1.5);
  Histogram& histogram = registry.HistogramOf("latency_usec", "Latency.");
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(5);     // bit-width 3 → le="7"
  histogram.Record(1000);  // bit-width 10 → le="1023"

  EXPECT_EQ(ExpositionText(registry),
            "# HELP requests_total Total requests.\n"
            "# TYPE requests_total counter\n"
            "requests_total{path=\"/x\"} 3\n"
            "requests_total{path=\"/y\"} 1\n"
            "# HELP temperature Current temperature.\n"
            "# TYPE temperature gauge\n"
            "temperature 1.5\n"
            "# HELP latency_usec Latency.\n"
            "# TYPE latency_usec histogram\n"
            "latency_usec_bucket{le=\"0\"} 1\n"
            "latency_usec_bucket{le=\"1\"} 2\n"
            "latency_usec_bucket{le=\"7\"} 3\n"
            "latency_usec_bucket{le=\"1023\"} 4\n"
            "latency_usec_bucket{le=\"+Inf\"} 4\n"
            "latency_usec_sum 1006\n"
            "latency_usec_count 4\n");
}

TEST(Exposition, PrometheusEscapesLabelValuesAndHelp) {
  MetricsRegistry registry;
  registry
      .CounterOf("esc_total", "Help with \\ and\nnewline.",
                 {{"path", "a\"b\\c\nd"}})
      .Increment(1);
  EXPECT_EQ(ExpositionText(registry),
            "# HELP esc_total Help with \\\\ and\\nnewline.\n"
            "# TYPE esc_total counter\n"
            "esc_total{path=\"a\\\"b\\\\c\\nd\"} 1\n");
}

TEST(Exposition, OverflowSampleOnlyInInfBucket) {
  MetricsRegistry registry;
  registry.HistogramOf("big_bytes", "Big.")
      .Record(std::numeric_limits<uint64_t>::max());
  const std::string text = ExpositionText(registry);
  EXPECT_NE(text.find("big_bytes_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("big_bytes_count 1\n"), std::string::npos);
  // No finite bucket line: the only sample is past every finite bound.
  EXPECT_EQ(text.find("big_bytes_bucket{le=\"0\""), std::string::npos);
}

TEST(Exposition, JsonGolden) {
  MetricsRegistry registry;
  registry.CounterOf("c_total", "Help.").Increment(2);
  registry.HistogramOf("h", "H.").Record(3);

  EXPECT_EQ(
      ExpositionJson(registry),
      "{\n"
      "  \"families\": [\n"
      "    {\"name\": \"c_total\", \"type\": \"counter\", \"help\": "
      "\"Help.\", \"series\": [\n"
      "      {\"labels\": {}, \"value\": 2}\n"
      "    ]},\n"
      "    {\"name\": \"h\", \"type\": \"histogram\", \"help\": \"H.\", "
      "\"series\": [\n"
      "      {\"labels\": {}, \"count\": 1, \"sum\": 3, \"buckets\": "
      "[{\"le\": \"3\", \"cumulative\": 1}, {\"le\": \"+Inf\", "
      "\"cumulative\": 1}]}\n"
      "    ]}\n"
      "  ]\n"
      "}\n");
}

TEST(Histogram, SetFromSampleCopiesBucketsAndSum) {
  Histogram source;
  for (uint64_t v : {0, 1, 5, 5, 900}) source.Record(v);
  Histogram published;
  published.Record(77);  // overwritten, not added to
  published.SetFromSample(source);
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(published.BucketCount(i), source.BucketCount(i)) << i;
  }
  EXPECT_EQ(published.Count(), 5u);
  EXPECT_EQ(published.Sum(), 911u);
}

TEST(Exposition, EmptyRegistry) {
  MetricsRegistry registry;
  EXPECT_EQ(ExpositionText(registry), "");
  EXPECT_EQ(ExpositionJson(registry), "{\n  \"families\": []\n}\n");
}

// Concurrency hammer: exact final values prove no lost updates; running
// exposition concurrently with the writers exercises the snapshot reads
// under tsan.
TEST(Telemetry, ConcurrentHammerHasExactCounts) {
  constexpr int kThreads = 4;
  constexpr int kIters = 25'000;
  MetricsRegistry registry;
  Counter& counter = registry.CounterOf("hammer_total", "Hammered.");
  Gauge& gauge = registry.GaugeOf("hammer_gauge", "Hammered.");
  Histogram& histogram = registry.HistogramOf("hammer_usec", "Hammered.");

  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        counter.Increment();
        gauge.Add(1.0);
        histogram.Record(static_cast<uint64_t>((t * kIters + i) % 4096));
      }
    });
  }
  // A reader racing the writers: output content is unspecified, but the
  // reads must be clean (this is the tsan assertion).
  threads.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      (void)ExpositionText(registry);
      (void)ExpositionJson(registry);
    }
  });
  for (auto& thread : threads) thread.join();

  constexpr uint64_t kTotal = uint64_t{kThreads} * kIters;
  EXPECT_EQ(counter.Value(), kTotal);
  EXPECT_EQ(gauge.Value(), static_cast<double>(kTotal));
  EXPECT_EQ(histogram.Count(), kTotal);
  uint64_t from_buckets = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    from_buckets += histogram.BucketCount(i);
  }
  EXPECT_EQ(from_buckets, kTotal);
}

}  // namespace
}  // namespace telemetry
}  // namespace ltc

// --- One counter source: each component's Collect --------------------
//
// Every instrumented component keeps its counters itself and publishes
// them through one Collect(registry). Each test below drives one
// component, collects it into a fresh registry, and checks that every
// published value equals the component's own accessor (or, where it has
// none, what the drive observed) and that a second Collect renders a
// byte-identical exposition.

namespace ltc {
namespace {

using telemetry::Labels;
using telemetry::MetricsRegistry;

constexpr uint64_t kIoDeadlineUsec = 5'000'000;

/// The value Collect published for one series (a histogram's sample
/// count), or nullopt when it published no such series.
std::optional<double> Published(const MetricsRegistry& registry,
                                const std::string& name,
                                const Labels& labels = {}) {
  std::optional<double> value;
  registry.ForEachFamily([&](const MetricsRegistry::Family& family) {
    if (family.name != name) return;
    for (const auto& series : family.series) {
      if (series->labels != labels) continue;
      if (series->counter) {
        value = static_cast<double>(series->counter->Value());
      } else if (series->gauge) {
        value = series->gauge->Value();
      } else {
        value = static_cast<double>(series->histogram->Count());
      }
    }
  });
  return value;
}

std::set<std::string> FamilyNames(const MetricsRegistry& registry) {
  std::set<std::string> names;
  registry.ForEachFamily([&](const MetricsRegistry::Family& family) {
    names.insert(family.name);
  });
  return names;
}

/// Collects `component` twice into one registry: both expositions must
/// be byte-identical (publishing overwrites, it never accumulates).
template <typename Component>
void ExpectSecondCollectIdentical(const Component& component) {
  MetricsRegistry registry;
  component.Collect(registry);
  const std::string first = telemetry::ExpositionText(registry);
  component.Collect(registry);
  EXPECT_EQ(telemetry::ExpositionText(registry), first);
}

/// "a{b,c}d" -> {"abd", "acd"}, recursively.
void ExpandBraces(const std::string& token, std::set<std::string>* out) {
  const size_t open = token.find('{');
  if (open == std::string::npos) {
    out->insert(token);
    return;
  }
  const size_t close = token.find('}', open);
  const std::string head = token.substr(0, open);
  const std::string tail = token.substr(close + 1);
  const std::string alternatives = token.substr(open + 1, close - open - 1);
  size_t start = 0;
  while (start <= alternatives.size()) {
    size_t comma = alternatives.find(',', start);
    if (comma == std::string::npos) comma = alternatives.size();
    ExpandBraces(head + alternatives.substr(start, comma - start) + tail,
                 out);
    start = comma + 1;
  }
}

/// Drops every label set ("{shard=N}", "{case=a;b}") from a doc token.
std::string WithoutLabelSets(std::string token) {
  size_t open = 0;
  while ((open = token.find('{', open)) != std::string::npos) {
    const size_t close = token.find('}', open);
    if (token.substr(open, close - open).find('=') == std::string::npos) {
      open = close;  // a brace group of names, not labels
    } else {
      token.erase(open, close - open + 1);
    }
  }
  return token;
}

std::string Trimmed(const std::string& text) {
  const size_t first = text.find_first_not_of(' ');
  if (first == std::string::npos) return "";
  return text.substr(first, text.find_last_not_of(' ') - first + 1);
}

std::vector<std::string> SplitCells(const std::string& row) {
  std::vector<std::string> cells;
  std::string cell;
  for (size_t i = 1; i < row.size(); ++i) {
    if (row[i] == '\\' && i + 1 < row.size() && row[i + 1] == '|') {
      cell += ';';  // an escaped pipe inside a cell
      ++i;
    } else if (row[i] == '|') {
      cells.push_back(cell);
      cell.clear();
    } else {
      cell += row[i];
    }
  }
  return cells;
}

/// The families documented in the first catalog table after the line
/// of docs/TELEMETRY.md that names `anchor` (e.g. "`SketchStore::
/// Collect`"): label sets stripped and brace groups expanded, the rules
/// tools/check_metrics_catalog.sh applies to the whole catalog.
std::set<std::string> CatalogSection(const std::string& anchor) {
  std::ifstream doc(LTC_TELEMETRY_DOC);
  std::string line;
  while (std::getline(doc, line) && line.find(anchor) == std::string::npos) {
  }
  std::set<std::string> families;
  bool in_table = false;
  while (std::getline(doc, line)) {
    if (line.empty() || line[0] != '|') {
      if (in_table) break;
      continue;
    }
    in_table = true;
    const std::vector<std::string> cells = SplitCells(line);
    if (cells.size() < 2) continue;
    const std::string kind = Trimmed(cells[1]);
    if (kind != "counter" && kind != "gauge" && kind != "histogram") {
      continue;  // header or separator row
    }
    const std::string& cell = cells[0];
    for (size_t open = cell.find('`'); open != std::string::npos;) {
      const size_t close = cell.find('`', open + 1);
      const std::string token = cell.substr(open + 1, close - open - 1);
      if (token.rfind("ltc_", 0) == 0) {
        ExpandBraces(WithoutLabelSets(token), &families);
      }
      open = cell.find('`', close + 1);
    }
  }
  return families;
}

/// Each family of the component's catalog section is emitted, and
/// nothing else. The two families whose label values name what was
/// observed (an error type, a node) cannot appear before it was.
void ExpectEmitsCatalogSection(const MetricsRegistry& registry,
                               const std::string& anchor) {
  SCOPED_TRACE(anchor);
  std::set<std::string> documented = CatalogSection(anchor);
  ASSERT_FALSE(documented.empty()) << "no catalog table after " << anchor;
  documented.erase("ltc_snapshot_load_errors_total");
  documented.erase("ltc_agg_node_staleness_sec");
  EXPECT_EQ(FamilyNames(registry), documented);
}

LtcConfig SmallConfig() {
  LtcConfig config;
  config.memory_bytes = LtcConfig::BytesPerCell() * 8 * 16;  // w=16, d=8
  config.cells_per_bucket = 8;
  config.period_mode = PeriodMode::kCountBased;
  config.items_per_period = 100;
  return config;
}

Ltc TableOf(uint64_t first_item, uint64_t records) {
  Ltc table(SmallConfig());
  for (uint64_t i = 0; i < records; ++i) table.Insert(first_item + i % 13);
  return table;
}

std::string FreshDir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// One request/response round trip. A TcpPushTransport doubles as a
/// plain LTCQ client: requests are strictly sequential, so each read
/// holds exactly one response frame.
std::optional<std::string> RoundTrip(server::PushTransport& client,
                                     const std::string& request) {
  if (!client.Send(server::EncodeFrame(request), kIoDeadlineUsec)) {
    return std::nullopt;
  }
  server::FrameParser parser;
  std::string chunk;
  while (true) {
    if (auto payload = parser.Next()) return payload;
    chunk.clear();
    if (!client.Recv(&chunk, 4096, kIoDeadlineUsec)) return std::nullopt;
    parser.Feed(chunk);
  }
}

TEST(CollectOneSource, UntouchedComponentsEmitTheirWholeCatalogSection) {
  {
    MetricsRegistry registry;
    telemetry::PublishLtcSink(registry, LtcMetricsSink{}, {},
                              /*num_cells=*/64);
    ExpectEmitsCatalogSection(registry, "`telemetry::PublishLtcSink`");
  }
  {
    ShardedLtc sharded(SmallConfig(), 2);
    IngestPipeline pipeline(sharded);
    MetricsRegistry registry;
    pipeline.Collect(registry);
    ExpectEmitsCatalogSection(registry, "`IngestPipeline::Collect`");
  }
  {
    SnapshotStore store(FreshDir("collect_untouched_snapshot") + "/ckpt");
    MetricsRegistry registry;
    store.Collect(registry);
    ExpectEmitsCatalogSection(registry, "`SnapshotStore::Collect`");
  }
  {
    std::string error;
    auto store = store::SketchStore::Open(
        SystemFs(), FreshDir("collect_untouched_store"), {}, &error);
    ASSERT_NE(store, nullptr) << error;
    MetricsRegistry registry;
    store->Collect(registry);
    ExpectEmitsCatalogSection(registry, "`SketchStore::Collect`");
  }
  {
    ReadSnapshotHub hub;
    server::NumericKeyCodec codec;
    server::QueryServer server(hub, codec, 0);
    MetricsRegistry registry;
    server.Collect(registry);
    ExpectEmitsCatalogSection(registry, "`QueryServer::Collect`");
  }
  {
    server::TcpPushTransport transport;
    server::SketchPusher pusher({}, &transport);
    MetricsRegistry registry;
    pusher.Collect(registry);
    ExpectEmitsCatalogSection(registry, "`SketchPusher::Collect`");
  }
  {
    server::AggregatorCore aggregator(SmallConfig(), nullptr);
    MetricsRegistry registry;
    aggregator.Collect(registry);
    ExpectEmitsCatalogSection(registry, "`AggregatorCore::Collect`");
  }
}

#ifdef LTC_METRICS
TEST(CollectOneSource, CoreSinkPublishesItsOwnFields) {
  Ltc table(SmallConfig());
  LtcMetricsSink sink;
  table.AttachMetricsSink(&sink);
  for (uint64_t i = 0; i < 5'000; ++i) table.Insert(1 + i % 301);
  const size_t cells =
      static_cast<size_t>(table.num_buckets()) * table.cells_per_bucket();
  MetricsRegistry registry;
  const Labels shard{{"shard", "3"}};
  telemetry::PublishLtcSink(registry, sink, shard, cells);

  auto with_case = [&](const char* name) {
    Labels labels = shard;
    labels.emplace_back("case", name);
    return labels;
  };
  EXPECT_EQ(Published(registry, "ltc_core_inserts_total", with_case("tracked")),
            sink.inserts_tracked);
  EXPECT_EQ(
      Published(registry, "ltc_core_inserts_total", with_case("admitted")),
      sink.inserts_admitted);
  EXPECT_EQ(
      Published(registry, "ltc_core_inserts_total", with_case("decremented")),
      sink.inserts_decremented);
  EXPECT_EQ(
      Published(registry, "ltc_core_significance_decrements_total", shard),
      sink.significance_decrements);
  EXPECT_EQ(Published(registry, "ltc_core_expulsions_total", shard),
            sink.expulsions);
  EXPECT_EQ(Published(registry, "ltc_core_longtail_replacements_total", shard),
            sink.longtail_replacements);
  EXPECT_EQ(Published(registry, "ltc_core_clock_steps_total", shard),
            sink.clock_steps);
  EXPECT_EQ(Published(registry, "ltc_core_periods_total", shard),
            sink.periods_completed);
  EXPECT_GT(sink.periods_completed, 0u);
  EXPECT_EQ(Published(registry, "ltc_core_occupied_cells", shard),
            sink.occupied_cells);
  EXPECT_EQ(Published(registry, "ltc_core_occupancy_ratio", shard),
            static_cast<double>(sink.occupied_cells) / cells);
}
#endif

TEST(CollectOneSource, IngestPipelinePublishesItsOwnCounters) {
  ShardedLtc sharded(SmallConfig(), 2);
  IngestConfig config;
  config.ring_capacity = 64;
  // A blocked push gives up after 250 ms of silence; the later Flush()
  // waits for live workers, and no scheduling delay lasts that long.
  config.stall_timeout_usec = 250'000;
  // A full ring starts a shed on the second consecutive observation, so
  // the first push that meets it waits out its bounded wait instead.
  config.shed.enabled = true;
  config.shed.high_watermark = 1.0;
  config.shed.sustain = 2;
  IngestPipeline pipeline(sharded, config);
  FailpointFs fs(SystemFs());
  FakeClock clock;
  SnapshotStoreConfig store_config;
  store_config.retry.max_attempts = 2;
  SnapshotStore store(FreshDir("collect_ingest") + "/ckpt", store_config, &fs,
                      &clock);
  pipeline.AttachSnapshotStore(&store);

  ItemId item = 1;  // 0 is the reserved empty-cell id
  while (sharded.ShardOf(item) != 0) ++item;
  pipeline.SuspendWorkersForTest(true);
  while (pipeline.ShardStatsOf(0).queue_depth < 64) pipeline.Push(item);
  pipeline.Push(item);  // the ring stays full: dropped, stall latched
  pipeline.Push(item);  // second observation of a full ring: shed
  pipeline.SuspendWorkersForTest(false);
  // Too few to fill a ring again: no second bounded wait can expire.
  for (ItemId i = 1; i <= 20; ++i) pipeline.Push(i);
  ASSERT_TRUE(pipeline.Flush());
  // The first save attempt fails once; the store's retry lands it.
  fs.Arm(FailpointFs::Failure::kWriteError, fs.mutating_ops());
  std::string error;
  ASSERT_TRUE(pipeline.Checkpoint(&error)) << error;
  pipeline.AttachSnapshotStore(nullptr);
  EXPECT_FALSE(pipeline.Checkpoint());  // a counted failure
  pipeline.Stop();

  MetricsRegistry registry;
  pipeline.Collect(registry);
  uint64_t flushes = 0;
  for (uint32_t s = 0; s < pipeline.num_shards(); ++s) {
    SCOPED_TRACE(s);
    const IngestShardStats stats = pipeline.ShardStatsOf(s);
    const Labels shard{{"shard", std::to_string(s)}};
    EXPECT_EQ(Published(registry, "ltc_ingest_enqueued_total", shard),
              stats.enqueued);
    EXPECT_EQ(Published(registry, "ltc_ingest_dropped_total", shard),
              stats.dropped);
    EXPECT_EQ(Published(registry, "ltc_ingest_shed_records_total", shard),
              stats.shed);
    EXPECT_EQ(Published(registry, "ltc_ingest_drained_total", shard),
              stats.drained);
    EXPECT_EQ(Published(registry, "ltc_ingest_batches_total", shard),
              stats.batches);
    EXPECT_EQ(Published(registry, "ltc_ingest_flushes_total", shard),
              stats.flushes);
    EXPECT_EQ(Published(registry, "ltc_ingest_shed_active", shard),
              stats.shedding ? 1.0 : 0.0);
    EXPECT_EQ(Published(registry, "ltc_ingest_queue_depth", shard),
              stats.queue_depth);
    EXPECT_EQ(Published(registry, "ltc_ingest_ring_capacity", shard),
              stats.ring_capacity);
    flushes = stats.flushes;
  }
  // The drive did what it claims.
  EXPECT_EQ(pipeline.ShardStatsOf(0).dropped, 1u);
  EXPECT_GE(pipeline.ShardStatsOf(0).shed, 1u);  // until the ring drains
  EXPECT_EQ(store.SaveRetries(), 1u);
  EXPECT_EQ(Published(registry, "ltc_ingest_checkpoints_total",
                      {{"result", "ok"}}),
            pipeline.CheckpointsTaken());
  EXPECT_EQ(Published(registry, "ltc_ingest_checkpoints_total",
                      {{"result", "error"}}),
            pipeline.CheckpointFailures());
  EXPECT_EQ(Published(registry, "ltc_ingest_stalled"),
            pipeline.stalled() ? 1.0 : 0.0);
  EXPECT_EQ(Published(registry, "ltc_ingest_health_state"),
            static_cast<double>(pipeline.health()));
  // Every Flush() call recorded one latency: the explicit one and the
  // checkpoint's.
  EXPECT_EQ(flushes, 2u);
  EXPECT_EQ(Published(registry, "ltc_ingest_flush_duration_usec"), flushes);
  EXPECT_EQ(Published(registry, "ltc_ingest_checkpoint_duration_usec"),
            pipeline.CheckpointsTaken());
  ExpectSecondCollectIdentical(pipeline);
}

TEST(CollectOneSource, SnapshotStorePublishesItsOwnCounters) {
  const std::string base = FreshDir("collect_snapshot") + "/ckpt";
  FailpointFs fs(SystemFs());
  FakeClock clock;
  SnapshotStoreConfig config;
  config.retry.max_attempts = 2;
  SnapshotStore store(base, config, &fs, &clock);
  fs.Arm(FailpointFs::Failure::kWriteError, 0);
  ASSERT_TRUE(store.Save("first").has_value());  // one retry
  ASSERT_TRUE(store.Save("second payload").has_value());
  fs.Arm(FailpointFs::Failure::kWriteError, fs.mutating_ops(), 0,
         /*burst=*/2);
  EXPECT_FALSE(store.Save("lost").has_value());  // both attempts fail
  // A newer, corrupt snapshot: the recovery walk skips it.
  ASSERT_TRUE(SystemFs().WriteAll(base + ".000000099.snap", "garbage"));
  const auto recovered = store.LoadLatest();
  ASSERT_TRUE(recovered.has_value());
  ASSERT_EQ(recovered->skipped.size(), 1u);

  MetricsRegistry registry;
  store.Collect(registry);
  EXPECT_EQ(Published(registry, "ltc_snapshot_saves_total",
                      {{"result", "ok"}}),
            2u);
  EXPECT_EQ(Published(registry, "ltc_snapshot_saves_total",
                      {{"result", "error"}}),
            1u);
  EXPECT_EQ(store.SaveRetries(), 2u);
  EXPECT_EQ(Published(registry, "ltc_snapshot_save_retries_total"),
            store.SaveRetries());
  EXPECT_EQ(Published(registry, "ltc_snapshot_bytes"), 2u);
  EXPECT_EQ(Published(registry, "ltc_snapshot_save_duration_usec"), 2u);
  EXPECT_EQ(Published(registry, "ltc_snapshot_recovery_walkback_depth"), 1u);
  EXPECT_EQ(Published(registry, "ltc_snapshot_load_errors_total",
                      {{"error", SnapshotErrorName(
                                     recovered->skipped.front().error)}}),
            1u);
  ExpectSecondCollectIdentical(store);
}

TEST(CollectOneSource, SketchStorePublishesItsOwnCounters) {
  const std::string dir = FreshDir("collect_store");
  store::SketchStoreOptions options;
  options.page_bytes = 64;
  options.mem_budget_bytes = 64 * 3;  // three frames: tenants evict
  std::string error;
  {
    // Left uncheckpointed: the reopen below replays it from the WAL.
    auto store = store::SketchStore::Open(SystemFs(), dir, options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Put(1, TableOf(1, 300), &error)) << error;
  }
  auto store = store::SketchStore::Open(SystemFs(), dir, options, &error);
  ASSERT_NE(store, nullptr) << error;
  for (uint64_t tenant = 1; tenant <= 3; ++tenant) {
    ASSERT_TRUE(store->Put(tenant, TableOf(tenant * 50, 400), &error))
        << error;
  }
  ASSERT_TRUE(store->Put(3, TableOf(150, 400), &error)) << error;  // clean
  ASSERT_TRUE(store->Get(2, &error).has_value()) << error;
  ASSERT_TRUE(store->CheckpointDirty(&error)) << error;
  ASSERT_TRUE(store->Put(1, TableOf(9, 500), &error)) << error;

  MetricsRegistry registry;
  store->Collect(registry);
  const store::BufferPool::Stats& pool = store->pool().stats();
  EXPECT_GT(pool.evictions_clean + pool.evictions_dirty, 0u);
  EXPECT_GT(store->recovery().deltas_applied, 0u);
  EXPECT_EQ(store->stats().clean_puts, 1u);
  EXPECT_EQ(Published(registry, "ltc_store_pages_in_total"),
            pool.pages_loaded);
  EXPECT_EQ(Published(registry, "ltc_store_pages_out_total"),
            pool.pages_stored);
  EXPECT_EQ(Published(registry, "ltc_store_page_hits_total"), pool.hits);
  EXPECT_EQ(Published(registry, "ltc_store_page_misses_total"), pool.misses);
  EXPECT_EQ(Published(registry, "ltc_store_evictions_total",
                      {{"kind", "clean"}}),
            pool.evictions_clean);
  EXPECT_EQ(Published(registry, "ltc_store_evictions_total",
                      {{"kind", "dirty"}}),
            pool.evictions_dirty);
  EXPECT_EQ(Published(registry, "ltc_store_wal_records_total"),
            store->stats().wal_records);
  EXPECT_EQ(Published(registry, "ltc_store_wal_bytes_total"),
            store->stats().wal_bytes);
  EXPECT_EQ(Published(registry, "ltc_store_checkpoints_total"),
            store->stats().checkpoints);
  EXPECT_EQ(Published(registry, "ltc_store_replay_deltas_total",
                      {{"outcome", "applied"}}),
            store->recovery().deltas_applied);
  EXPECT_EQ(Published(registry, "ltc_store_replay_deltas_total",
                      {{"outcome", "stale"}}),
            store->recovery().deltas_stale);
  EXPECT_EQ(Published(registry, "ltc_store_replay_torn_tails_total"),
            store->recovery().torn_tail ? 1.0 : 0.0);
  EXPECT_EQ(Published(registry, "ltc_store_corrupt_pages_total"),
            store->recovery().corrupt_pages);
  EXPECT_EQ(Published(registry, "ltc_store_tenants"),
            store->Tenants().size());
  EXPECT_EQ(Published(registry, "ltc_store_frames_resident"),
            store->pool().resident());
  EXPECT_EQ(Published(registry, "ltc_store_frames_dirty"),
            store->pool().dirty_count());
  EXPECT_GT(store->pool().dirty_count(), 0u);
  EXPECT_EQ(Published(registry, "ltc_store_checkpoint_duration_usec"),
            store->stats().checkpoints);
  EXPECT_EQ(Published(registry, "ltc_store_checkpoint_dirty_pages"),
            store->stats().checkpoints);
  ExpectSecondCollectIdentical(*store);
}

// The serving tier in one drive: queries (two of them errors) and
// pushes against a real aggregator-mode server over loopback. The first
// push's ack is lost, so the pusher retries and the aggregator sees a
// duplicate; the last push re-sends an old epoch and is rejected.
TEST(CollectOneSource, ServingTierPublishesItsOwnCounters) {
  const LtcConfig config = SmallConfig();
  ReadSnapshotHub hub;
  hub.Publish(std::make_unique<Ltc>(config), 0);
  FakeClock agg_clock;
  server::AggregatorCore aggregator(config, &hub, 60, &agg_clock);
  server::NumericKeyCodec codec;
  server::QueryServerConfig server_config;
  server_config.max_push_frame_bytes = server::kMaxPushFrameBytes;
  server::QueryServer server(hub, codec, 0, server_config);
  server.AttachAggregator(&aggregator);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  {
    server::TcpPushTransport client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), kIoDeadlineUsec));
    for (const std::string& request :
         {server::EncodePingRequest(), server::EncodeTopKRequest(3),
          server::EncodePingRequest() + "x",  // malformed
          std::string(1, '\x42')}) {          // unknown opcode
      const auto response = RoundTrip(client, request);
      ASSERT_TRUE(response.has_value());
      bytes_sent += server::EncodeFrame(request).size();
      bytes_received += server::EncodeFrame(*response).size();
    }
  }

  server::TcpPushTransport tcp;
  FakeClock push_clock;
  FaultyTransport faulty(&tcp, {}, &push_clock);
  faulty.Arm(TransportFault::kDropAck, 1);
  server::SketchPusherConfig push_config;
  push_config.port = server.port();
  push_config.node_id = 7;
  server::SketchPusher pusher(push_config, &faulty, &push_clock);
  Ltc first = TableOf(1, 500);
  first.Finalize();
  Ltc second = TableOf(1, 900);
  second.Finalize();
  EXPECT_TRUE(pusher.Push(first, 1, 500).delivered);
  EXPECT_TRUE(pusher.Push(second, 2, 900).delivered);
  EXPECT_TRUE(pusher.Push(first, 1, 500).terminal);
  faulty.Close();
  server.Stop();
  agg_clock.Advance(5'000'000);

  MetricsRegistry pusher_registry;
  pusher.Collect(pusher_registry);
  EXPECT_EQ(pusher.retries(), 1u);
  EXPECT_EQ(Published(pusher_registry, "ltc_push_attempts_total"),
            pusher.attempts());
  EXPECT_EQ(Published(pusher_registry, "ltc_push_retries_total"),
            pusher.retries());
  EXPECT_EQ(Published(pusher_registry, "ltc_push_delivered_total"),
            pusher.delivered());
  EXPECT_EQ(Published(pusher_registry, "ltc_push_rejected_total"),
            pusher.rejected());
  ExpectSecondCollectIdentical(pusher);

  MetricsRegistry agg_registry;
  aggregator.Collect(agg_registry);
  EXPECT_EQ(aggregator.duplicates_total(), 1u);
  EXPECT_EQ(Published(agg_registry, "ltc_agg_merges_total"),
            aggregator.merges_total());
  EXPECT_EQ(Published(agg_registry, "ltc_agg_pushes_rejected_total"),
            aggregator.rejects_total());
  EXPECT_EQ(Published(agg_registry, "ltc_agg_pushes_duplicate_total"),
            aggregator.duplicates_total());
  EXPECT_EQ(Published(agg_registry, "ltc_agg_nodes"), aggregator.num_nodes());
  const auto rows = aggregator.NodeRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].age_sec, 5u);
  EXPECT_EQ(Published(agg_registry, "ltc_agg_node_staleness_sec",
                      {{"node", "7"}}),
            rows[0].age_sec);
  ExpectSecondCollectIdentical(aggregator);

  MetricsRegistry registry;
  server.Collect(registry);
  using server::Opcode;
  using server::Status;
  auto op = [](Opcode opcode) {
    return Labels{{"op", server::OpcodeName(opcode)}};
  };
  auto kind = [](Status status) {
    return Labels{{"kind", server::StatusName(status)}};
  };
  // Per opcode byte, errors included; the unknown opcode has no series.
  EXPECT_EQ(Published(registry, "ltc_server_requests_total", op(Opcode::kPing)),
            2u);
  EXPECT_EQ(Published(registry, "ltc_server_requests_total", op(Opcode::kTopK)),
            1u);
  EXPECT_EQ(
      Published(registry, "ltc_server_requests_total", op(Opcode::kPushSketch)),
      pusher.attempts());
  EXPECT_EQ(server.TotalRequests(), 2 + 1 + 1 + pusher.attempts());
  EXPECT_EQ(Published(registry, "ltc_server_errors_total",
                      kind(Status::kErrMalformed)),
            1u);
  EXPECT_EQ(Published(registry, "ltc_server_errors_total",
                      kind(Status::kErrUnknownOpcode)),
            1u);
  EXPECT_EQ(Published(registry, "ltc_server_errors_total",
                      kind(Status::kErrStaleEpoch)),
            1u);
  EXPECT_EQ(server.TotalErrors(), 3u);
  EXPECT_EQ(Published(registry, "ltc_server_request_duration_usec"),
            server.TotalRequests());
  EXPECT_EQ(Published(registry, "ltc_server_connections_opened_total"),
            server.ConnectionsOpened());
  EXPECT_EQ(Published(registry, "ltc_server_connections_rejected_total"),
            server.ConnectionsRejected());
  EXPECT_EQ(Published(registry, "ltc_server_connections_idle_closed_total"),
            server.ConnectionsIdleClosed());
  EXPECT_EQ(Published(registry, "ltc_server_connections_open"), 0.0);
  EXPECT_EQ(Published(registry, "ltc_server_snapshot_seq"),
            hub.PublishedSeq());
  EXPECT_EQ(Published(registry, "ltc_server_bytes_read_total"),
            server.BytesRead());
  EXPECT_EQ(Published(registry, "ltc_server_bytes_written_total"),
            server.BytesWritten());
  EXPECT_GT(server.BytesRead(), bytes_sent);  // the pushes came on top
  EXPECT_GT(server.BytesWritten(), bytes_received);
  ExpectSecondCollectIdentical(server);
}

// A live scrape, as `ltc_cli --serve --metrics-out --stats-every` does
// it: a scraper thread collects the server and the pipeline and renders
// the exposition while the server loop answers loopback clients and the
// pipeline's workers ingest. Under tsan (the CI tsan job runs this
// binary) any counter Collect reads without an atomic is a reported
// race.
TEST(CollectLiveScrape, RacesNeitherTheServerLoopNorTheIngestWorkers) {
  ShardedLtc sharded(SmallConfig(), 2);
  ReadSnapshotHub hub;
  hub.Publish(std::make_unique<ShardedLtc>(sharded.CloneAtBarrier()), 0);
  IngestPipeline pipeline(sharded);
  pipeline.AttachReadSnapshotHub(&hub);  // every Flush publishes
  server::NumericKeyCodec codec;
  server::QueryServer server(hub, codec, 2);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> scrapes{0};
  std::thread client([&] {
    server::TcpPushTransport transport;
    if (!transport.Connect("127.0.0.1", server.port(), kIoDeadlineUsec)) {
      return;
    }
    const std::string requests[] = {
        server::EncodePingRequest(), server::EncodeTopKRequest(3),
        server::EncodeEstimateRequest(server::Opcode::kEstimateFrequency,
                                      "5")};
    while (!done.load(std::memory_order_relaxed)) {
      for (const std::string& request : requests) {
        if (!RoundTrip(transport, request)) return;
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread scraper([&] {
    MetricsRegistry registry;
    while (!done.load(std::memory_order_relaxed)) {
      server.Collect(registry);
      pipeline.Collect(registry);
      (void)telemetry::ExpositionText(registry);
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Feed until both the clients and the scraper have had several turns
  // against a moving pipeline (bounded, so a broken client fails the
  // expectations below instead of hanging).
  std::vector<Record> chunk;
  for (ItemId i = 0; i < 2'000; ++i) chunk.push_back({1 + i % 211, 0});
  for (int round = 0; round < 2'000; ++round) {
    pipeline.PushBatch(chunk);
    ASSERT_TRUE(pipeline.Flush());
    if (round >= 10 && answered.load() >= 30 && scrapes.load() >= 10) break;
  }
  done.store(true);
  client.join();
  scraper.join();
  server.Stop();
  pipeline.Stop();
  EXPECT_GE(answered.load(), 30u);
  EXPECT_GE(scrapes.load(), 10u);
  EXPECT_EQ(server.TotalRequests(), answered.load());
}

}  // namespace
}  // namespace ltc
