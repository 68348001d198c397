// ltc_cli — run LTC over a text trace and print the top-k significant
// items. See CliUsage() / --help for the interface.
//
// Every mode but --aggregate runs one feed loop (Feed() below). It cuts
// the trace into chunks and hands each to the estimator: a single Ltc,
// an IngestPipeline over an N-way ShardedLtc (--threads N, same total
// memory budget), or the --store tenants. The loop alone decides when
// the attached steps fire: publish (--serve), push (--push-every),
// checkpoint (--checkpoint-every) and metrics (--stats-every).
//
// Durability (docs/DURABILITY.md): --save writes a checksummed snapshot
// frame atomically; --checkpoint-every N additionally rotates mid-run
// snapshots at <save>.<seq>.snap — a rotation save, or an explicit
// IngestPipeline::Checkpoint() when sharded, at every N-record boundary
// — so a crash loses at most one interval; --load validates the frame
// (CRC) and, when the exact file is missing or corrupt, recovers by
// walking back through the rotation.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cli_options.h"
#include "common/format.h"
#include "common/serial.h"
#include "core/ltc.h"
#include "core/read_snapshot.h"
#include "core/sharded_ltc.h"
#include "core/significance_estimator.h"
#include "core/table_layout.h"
#include "ingest/ingest_pipeline.h"
#include "server/aggregator.h"
#include "server/key_codec.h"
#include "server/protocol.h"
#include "server/push_client.h"
#include "server/query_server.h"
#include "snapshot/frame.h"
#include "snapshot/fs.h"
#include "snapshot/snapshot_store.h"
#include "store/sketch_store.h"
#include "stream/trace_io.h"
#include "telemetry/build_info.h"
#include "telemetry/exposition.h"
#include "telemetry/ltc_collectors.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ltc {
namespace {

// Graceful shutdown (SIGINT/SIGTERM): the handler only latches the
// signal number; the feed loop polls it between chunks, stops feeding,
// takes a final checkpoint (when one is configured), still writes
// --save and the final --metrics-out exposition, and exits with the
// conventional 128+signo so scripts can tell "interrupted but durable"
// from a hard kill.
volatile std::sig_atomic_t g_caught_signal = 0;

void LatchSignal(int signo) { g_caught_signal = signo; }

// SIGUSR1 = dump the flight recorder now (docs/TELEMETRY.md). Same
// latch-only discipline: JSON rendering is nowhere near async-signal
// safe, so the loops poll this between chunks / idle ticks.
volatile std::sig_atomic_t g_dump_trace = 0;

void LatchDumpSignal(int) { g_dump_trace = 1; }

void InstallSignalHandlers() {
  std::signal(SIGINT, LatchSignal);
  std::signal(SIGTERM, LatchSignal);
  std::signal(SIGUSR1, LatchDumpSignal);
}

/// Reads a checkpoint payload: the exact file when its frame validates,
/// else the newest valid snapshot of the <path>.<seq>.snap rotation.
/// Every rejected candidate is reported with its typed error.
std::optional<std::string> LoadCheckpointPayload(const std::string& path) {
  Fs& fs = SystemFs();
  if (const auto bytes = fs.ReadAll(path)) {
    const FrameDecodeResult decoded = DecodeFrame(*bytes);
    if (decoded.ok()) {
      return std::string(decoded.payload);
    }
    std::fprintf(stderr,
                 "ltc_cli: checkpoint '%s' rejected (%s); trying the "
                 "snapshot rotation\n",
                 path.c_str(), SnapshotErrorName(decoded.error));
  }
  SnapshotStore store(path);
  std::string error;
  const auto recovered = store.LoadLatest(&error);
  if (!recovered) {
    std::fprintf(stderr, "ltc_cli: cannot recover checkpoint '%s': %s\n",
                 path.c_str(), error.c_str());
    return std::nullopt;
  }
  for (const auto& skipped : recovered->skipped) {
    std::fprintf(stderr, "ltc_cli: skipped corrupt snapshot '%s' (%s)\n",
                 skipped.path.c_str(), SnapshotErrorName(skipped.error));
  }
  std::fprintf(stderr, "ltc_cli: recovered from snapshot %llu of '%s'\n",
               static_cast<unsigned long long>(recovered->seq),
               store.base_path().c_str());
  return recovered->payload;
}

/// Restores the `Table` a --load checkpoint holds. A checkpoint of the
/// other table kind is reported with `hint`, the flag change that loads
/// it.
template <typename Table>
std::optional<Table> RestoreTable(const std::string& path, const char* kind,
                                  const char* hint) {
  const auto payload = LoadCheckpointPayload(path);
  if (!payload) return std::nullopt;
  BinaryReader reader(*payload);
  auto restored = Table::Deserialize(reader);
  if (!restored || !reader.AtEnd()) {
    std::fprintf(stderr,
                 "ltc_cli: checkpoint '%s' does not hold a %s table (%s)\n",
                 path.c_str(), kind, hint);
    return std::nullopt;
  }
  return restored;
}

/// --trace-out: installs the process-wide flight recorder and owns its
/// dumps — SIGUSR1 (polled between chunks / idle ticks) and the final
/// dump on destruction, error exits included.
class TraceSession {
 public:
  explicit TraceSession(const std::string& path) : path_(path) {
    if (path_.empty()) return;
    if (!telemetry::kTracingEnabled) {
      std::fprintf(stderr,
                   "ltc_cli: warning: built with LTC_TRACING=OFF; "
                   "--trace-out ignored\n");
      return;
    }
    recorder_.emplace();
    telemetry::FlightRecorder::Install(&*recorder_);
  }

  ~TraceSession() {
    if (!recorder_) return;
    telemetry::FlightRecorder::Install(nullptr);
    Dump("final");
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool active() const { return recorder_.has_value(); }
  telemetry::FlightRecorder* recorder() {
    return recorder_ ? &*recorder_ : nullptr;
  }

  /// Dumps now if SIGUSR1 fired since the last poll.
  void PollDumpSignal() {
    if (g_dump_trace == 0) return;
    g_dump_trace = 0;
    if (recorder_) Dump("SIGUSR1");
  }

 private:
  void Dump(const char* why) {
    std::string dump_error;
    if (!recorder_->DumpToFile(path_, &dump_error)) {
      std::fprintf(stderr, "ltc_cli: warning: trace dump failed: %s\n",
                   dump_error.c_str());
    } else {
      std::fprintf(stderr, "ltc_cli: trace (%s) written to '%s'\n", why,
                   path_.c_str());
      std::fflush(stderr);
    }
  }

  std::string path_;
  std::optional<telemetry::FlightRecorder> recorder_;
};

/// --metrics-out (docs/TELEMETRY.md): the process's one metrics
/// registry. Each live component is added once; Write() calls every
/// component's Collect and then renders the exposition atomically — at
/// each --stats-every cadence and on exit. Write() runs on the main
/// thread at quiescent points: between chunks, or after a pipeline
/// Flush()/Stop().
class MetricsOut {
 public:
  using Collector = std::function<void(telemetry::MetricsRegistry&)>;

  MetricsOut(const std::string& path, TraceSession& trace_session)
      : path_(path), trace_session_(trace_session) {
    if (enabled()) {
      telemetry::RegisterBuildInfo(registry_,
                                   ProbeBackendName(ActiveProbeBackend()));
    }
  }

  bool enabled() const { return !path_.empty(); }

  /// Publishes `component` at every Write(); it must outlive the writes.
  template <typename Component>
  void Add(const Component& component) {
    AddCollector([&component](telemetry::MetricsRegistry& registry) {
      component.Collect(registry);
    });
  }
  void AddCollector(Collector collect) {
    if (enabled()) collectors_.push_back(std::move(collect));
  }

  /// Writes the exposition to the path (.json = JSON form, else
  /// Prometheus text); failures are warnings, never fatal.
  void Write() {
    if (!enabled()) return;
    for (const Collector& collect : collectors_) collect(registry_);
    PublishTraceExemplars();
    const bool json = path_.size() >= 5 &&
                      path_.compare(path_.size() - 5, 5, ".json") == 0;
    const std::string body = json ? telemetry::ExpositionJson(registry_)
                                  : telemetry::ExpositionText(registry_);
    std::string write_error;
    if (!AtomicWriteFile(SystemFs(), path_, body, &write_error)) {
      std::fprintf(stderr,
                   "ltc_cli: warning: cannot write metrics '%s': %s\n",
                   path_.c_str(), write_error.c_str());
    }
  }

 private:
  /// ltc_trace_exemplar_duration_usec{span,trace_id}: worst recent span
  /// per name; the trace_id label links the scrape to the span tree in
  /// the flight-recorder dump. Cardinality is bounded by span names ×
  /// distinct worst spans seen at write cadences.
  void PublishTraceExemplars() {
    telemetry::FlightRecorder* recorder = trace_session_.recorder();
    if (recorder == nullptr) return;
    for (const auto& exemplar : recorder->WorstSpans()) {
      char trace_id[32];
      std::snprintf(trace_id, sizeof(trace_id), "0x%016llx",
                    static_cast<unsigned long long>(exemplar.trace_id));
      registry_
          .GaugeOf("ltc_trace_exemplar_duration_usec",
                   "Worst recent span duration per name; trace_id links "
                   "to the flight-recorder dump.",
                   {{"span", exemplar.name}, {"trace_id", trace_id}})
          .Set(static_cast<double>(exemplar.duration_usec));
    }
  }

  std::string path_;
  TraceSession& trace_session_;
  telemetry::MetricsRegistry registry_;
  std::vector<Collector> collectors_;
};

/// Starts the query front end (docs/SERVING.md) on the --serve port and
/// prints the bound port, which resolves --serve 0; scripts scrape that
/// line. With an aggregator attached, PUSH_SKETCH frames may use the
/// raised cap; query frames stay small. nullptr when it cannot start.
std::unique_ptr<server::QueryServer> StartServer(
    const CliOptions& options, const ReadSnapshotHub& hub,
    const server::KeyCodec& codec, uint32_t num_shards,
    server::AggregatorCore* aggregator, MetricsOut& metrics) {
  server::QueryServerConfig config;
  config.port = static_cast<uint16_t>(options.serve_port);
  if (aggregator != nullptr) {
    config.max_push_frame_bytes = server::kMaxPushFrameBytes;
  }
  auto server =
      std::make_unique<server::QueryServer>(hub, codec, num_shards, config);
  server->AttachAggregator(aggregator);  // before Start: the loop reads it
  metrics.Add(*server);
  std::string error;
  if (!server->Start(&error)) {
    std::fprintf(stderr, "ltc_cli: cannot serve: %s\n", error.c_str());
    return nullptr;
  }
  std::fprintf(stderr, "ltc_cli: serving on port %u\n",
               static_cast<unsigned>(server->port()));
  std::fflush(stderr);
  return server;
}

/// Blocks until SIGINT/SIGTERM, answering SIGUSR1 dumps meanwhile: the
/// tail of a --serve run and the whole life of --aggregate.
void WaitForSignal(TraceSession& trace_session) {
  while (g_caught_signal == 0) {
    trace_session.PollDumpSignal();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// --aggregate: the aggregation tier (docs/SERVING.md "Aggregation
/// tier"). No trace is fed; the data arrives as PUSH_SKETCH images from
/// --push-to nodes, merged idempotently by an AggregatorCore and served
/// through the same query front end as a single node, until a signal.
int RunAggregator(const CliOptions& options, TraceSession& trace_session,
                  MetricsOut& metrics) {
  const LtcConfig config = options.ToLtcConfig();
  ReadSnapshotHub hub;
  // Seed the hub from this thread BEFORE the server starts: queries
  // that beat the first push see an empty table, and once the event
  // loop runs it is the hub's sole publisher (single-publisher
  // contract).
  hub.Publish(std::make_unique<Ltc>(config), 0);

  server::AggregatorCore aggregator(config, &hub, options.agg_stale_after);
  metrics.Add(aggregator);  // collected after the server stops

  // Pushed sketches carry bare item ids (each pusher's interner is
  // local), so the merged view speaks numeric keys.
  server::NumericKeyCodec codec;
  auto server = StartServer(options, hub, codec, /*num_shards=*/0,
                            &aggregator, metrics);
  if (server == nullptr) return 1;
  std::fprintf(stderr, "ltc_cli: aggregating (nodes stale after %llu s)\n",
               static_cast<unsigned long long>(options.agg_stale_after));
  std::fflush(stderr);

  WaitForSignal(trace_session);
  server->Stop();
  std::fprintf(
      stderr,
      "ltc_cli: aggregated %llu merge(s) from %zu node(s) (%llu "
      "rejection(s)), served %llu request(s), drained\n",
      static_cast<unsigned long long>(aggregator.merges_total()),
      aggregator.num_nodes(),
      static_cast<unsigned long long>(aggregator.rejects_total()),
      static_cast<unsigned long long>(server->TotalRequests()));
  metrics.Write();
  return 128 + static_cast<int>(g_caught_signal);
}

/// --store: opens (and crash-recovers) the paged multi-tenant store at
/// --store DIR (docs/DURABILITY.md "Paged store, WAL, and incremental
/// checkpoints") and fills `tenants` with its --tenants tables: each
/// restored one keeps its own geometry (mismatched flags surface as the
/// store's typed geometry error on the first Put); a new one gets
/// `config`. nullptr on failure, already reported.
std::unique_ptr<store::SketchStore> OpenStore(const CliOptions& options,
                                              const LtcConfig& config,
                                              std::vector<Ltc>* tenants) {
  std::error_code ec;
  std::filesystem::create_directories(options.store_dir, ec);
  if (ec) {
    std::fprintf(stderr, "ltc_cli: cannot create store '%s': %s\n",
                 options.store_dir.c_str(), ec.message().c_str());
    return nullptr;
  }
  store::SketchStoreOptions store_options;
  store_options.mem_budget_bytes = options.mem_budget_bytes;
  std::string error;
  auto store = store::SketchStore::Open(SystemFs(), options.store_dir,
                                        store_options, &error);
  if (store == nullptr) {
    std::fprintf(stderr, "ltc_cli: cannot open store '%s': %s\n",
                 options.store_dir.c_str(), error.c_str());
    return nullptr;
  }
  const store::RecoveryReport& recovery = store->recovery();
  if (recovery.wal_found) {
    std::fprintf(stderr,
                 "ltc_cli: store recovery: replayed %llu WAL record(s) "
                 "(%llu delta(s) applied, %llu stale%s)\n",
                 static_cast<unsigned long long>(recovery.records),
                 static_cast<unsigned long long>(recovery.deltas_applied),
                 static_cast<unsigned long long>(recovery.deltas_stale),
                 recovery.torn_tail ? ", torn tail truncated" : "");
  }
  tenants->reserve(options.tenants);
  uint64_t restored = 0;
  for (uint64_t t = 0; t < options.tenants; ++t) {
    if (!store->Contains(t)) {
      tenants->emplace_back(config);
      continue;
    }
    auto loaded = store->Get(t, &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "ltc_cli: cannot restore tenant %llu: %s\n",
                   static_cast<unsigned long long>(t), error.c_str());
      return nullptr;
    }
    tenants->push_back(std::move(*loaded));
    ++restored;
  }
  if (restored > 0) {
    std::fprintf(stderr, "ltc_cli: restored %llu of %llu tenant(s) from "
                 "'%s'\n",
                 static_cast<unsigned long long>(restored),
                 static_cast<unsigned long long>(options.tenants),
                 options.store_dir.c_str());
  }
  return store;
}

/// The estimator role as steps the feed loop composes; each mode sets
/// the ones it has. The loop alone owns every cadence.
struct FeedSteps {
  /// Applies one chunk; false = a fatal failure, already reported.
  std::function<bool(std::span<const Record>)> ingest;
  /// After every chunk, at its quiescent barrier (the --serve publish).
  std::function<void(uint64_t fed)> publish;
  /// At each --push-every boundary.
  std::function<void(uint64_t fed)> push;
  /// At each --checkpoint-every boundary and at shutdown. A failed
  /// checkpoint is a warning: the feed goes on.
  std::function<bool(std::string* error)> checkpoint;
  /// At each --stats-every boundary: write the metrics exposition.
  std::function<void()> stats;
};

void RunCheckpoint(const FeedSteps& steps, const char* which) {
  std::string error;
  if (!steps.checkpoint(&error)) {
    std::fprintf(stderr, "ltc_cli: warning: %scheckpoint failed: %s\n",
                 which, error.c_str());
  }
}

/// The one feed loop. Chunks are capped at 64K records, so the signal
/// poll between chunks stays responsive, and at each cadence; every
/// cadence keeps its own residue counter, so composing them never fires
/// one early. A cadence step fires at every boundary, the last chunk's
/// included. Returns false when ingest failed; a signal stops the feed
/// between chunks and still returns true.
bool Feed(std::span<const Record> records, const CliOptions& options,
          const FeedSteps& steps, TraceSession& trace_session) {
  size_t chunk = 65536;
  for (const uint64_t every :
       {options.checkpoint_every, options.push_every, options.stats_every}) {
    if (every > 0) chunk = std::min<size_t>(chunk, every);
  }
  auto due = [](uint64_t every, uint64_t& since, size_t n) {
    if (every == 0 || (since += n) < every) return false;
    since = 0;
    return true;
  };
  uint64_t since_push = 0;
  uint64_t since_checkpoint = 0;
  uint64_t since_stats = 0;
  for (size_t fed = 0; fed < records.size() && g_caught_signal == 0;) {
    trace_session.PollDumpSignal();
    const size_t n = std::min(chunk, records.size() - fed);
    // The chunk span is the local root every per-chunk seam —
    // hub.publish, push.deliver, checkpoint saves — parents under.
    telemetry::Span chunk_span("ingest.chunk");
    chunk_span.AddAttr("records", n);
    if (!steps.ingest(records.subspan(fed, n))) return false;
    fed += n;
    if (steps.publish) steps.publish(fed);
    if (due(options.push_every, since_push, n)) steps.push(fed);
    if (due(options.checkpoint_every, since_checkpoint, n)) {
      RunCheckpoint(steps, "");
    }
    if (due(options.stats_every, since_stats, n)) steps.stats();
  }
  return true;
}

int Run(const CliOptions& options, TraceSession& trace_session,
        MetricsOut& metrics) {
  // 1. Load the trace (file or stdin).
  std::string error;
  std::optional<TraceReadResult> trace;
  if (options.trace_path == "-") {
    std::string text((std::istreambuf_iterator<char>(std::cin)),
                     std::istreambuf_iterator<char>());
    trace = ReadTraceFromString(text, options.periods, options.duration,
                                &error);
  } else {
    trace = ReadTrace(options.trace_path, options.periods, options.duration,
                      &error);
  }
  if (!trace) {
    std::fprintf(stderr, "ltc_cli: %s\n", error.c_str());
    return 1;
  }
  const Stream& stream = trace->stream;
  const std::span<const Record> records(stream.records());
  // A token trace numbers its tokens in first-seen order, in each run
  // anew, so an item ID read back from another run (a checkpoint, a
  // store, an aggregator's merge) names a different token there.
  // Numeric traces carry their item IDs verbatim.
  if (trace->used_interner) {
    // A --store directory that already holds files is a reopen.
    std::error_code ec;
    const bool store_reopen =
        !options.store_dir.empty() &&
        std::filesystem::exists(options.store_dir, ec) &&
        !std::filesystem::is_empty(options.store_dir, ec);
    if (!options.load_path.empty() || !options.push_to.empty() ||
        store_reopen) {
      std::fprintf(stderr,
                   "ltc_cli: --load, --push-to and reopening a --store need "
                   "a numeric trace (a token trace numbers its items in "
                   "first-seen order, so an item ID from another run names "
                   "a different token)\n%s",
                   CliUsage().c_str());
      return 2;
    }
  }

  // 2. Build or restore the estimator: the --store tenants, or one
  // table — single or sharded. A checkpoint carries its own config
  // (and, for sharded tables, its own shard count).
  LtcConfig config = options.ToLtcConfig();
  config.period_seconds = stream.duration() / stream.num_periods();
  std::unique_ptr<store::SketchStore> store;
  std::vector<Ltc> tenants;
  std::optional<Ltc> table;
  std::optional<ShardedLtc> sharded;
  SignificanceEstimator* estimator = nullptr;
  if (!options.store_dir.empty()) {
    store = OpenStore(options, config, &tenants);
    if (store == nullptr) return 1;
    metrics.Add(*store);
  } else if (!options.load_path.empty() && options.threads > 1) {
    sharded = RestoreTable<ShardedLtc>(
        options.load_path, "sharded",
        "saved without --threads? drop --threads to load it");
    if (!sharded) return 1;
    if (sharded->num_shards() != options.threads) {
      std::fprintf(stderr,
                   "ltc_cli: note: checkpoint holds %u shards; using "
                   "that instead of --threads %u\n",
                   sharded->num_shards(), options.threads);
    }
    estimator = &*sharded;
  } else if (!options.load_path.empty()) {
    table = RestoreTable<Ltc>(
        options.load_path, "single",
        "saved with --threads? pass --threads N to load it");
    if (!table) return 1;
    estimator = &*table;
  } else if (options.threads > 1) {
    sharded.emplace(config, options.threads);
    estimator = &*sharded;
  } else {
    table.emplace(config);
    estimator = &*table;
  }

#ifdef LTC_METRICS
  // One core sink per table shard (sized once: the tables keep raw
  // pointers), each published by PublishLtcSink, its collector.
  std::vector<LtcMetricsSink> sinks;
  if (metrics.enabled() && estimator != nullptr) {
    sinks.resize(sharded ? sharded->num_shards() : 1);
    for (uint32_t s = 0; s < sinks.size(); ++s) {
      Ltc& shard = sharded ? sharded->shard(s) : *table;
      shard.AttachMetricsSink(&sinks[s]);
      telemetry::Labels labels;
      if (sharded) labels = {{"shard", std::to_string(s)}};
      const size_t cells =
          static_cast<size_t>(shard.num_buckets()) * shard.cells_per_bucket();
      metrics.AddCollector(
          [&sink = sinks[s], labels, cells](telemetry::MetricsRegistry& r) {
            telemetry::PublishLtcSink(r, sink, labels, cells);
          });
    }
  }
#endif

  // Serving (docs/SERVING.md): --serve answers queries over TCP while
  // the trace feeds and keeps answering after it ends, until a signal.
  // Every answer comes from a flush-barrier snapshot published into the
  // hub — the server never touches the live tables.
  ReadSnapshotHub hub;
  // Deep-copies the quiescent table into the hub: only at barriers.
  auto publish_clone = [&](uint64_t fed) {
    if (sharded) {
      hub.Publish(std::make_unique<ShardedLtc>(sharded->CloneAtBarrier()),
                  fed);
    } else {
      hub.Publish(std::make_unique<Ltc>(table->CloneAtBarrier()), fed);
    }
  };
  server::NumericKeyCodec numeric_codec;
  server::InternerKeyCodec interner_codec(trace->interner);
  std::unique_ptr<server::QueryServer> server;
  const bool serving = options.serve_port >= 0;
  if (serving) {
    // Seed the hub so a --load'ed (or empty) table is servable before
    // the first feed barrier.
    publish_clone(0);
    const server::KeyCodec& codec =
        trace->used_interner
            ? static_cast<const server::KeyCodec&>(interner_codec)
            : numeric_codec;
    server = StartServer(options, hub, codec,
                         sharded ? sharded->num_shards() : 0,
                         /*aggregator=*/nullptr, metrics);
    if (server == nullptr) return 1;
  }

  // Aggregation push (docs/SERVING.md "Aggregation tier"): --push-to
  // ships finalized flush-barrier images to an aggregator, epoch-tagged
  // so its retries are idempotent there. Option validation pinned the
  // single table.
  const bool pushing = !options.push_to.empty();
  std::optional<server::TcpPushTransport> push_transport;
  std::optional<server::SketchPusher> pusher;
  uint64_t push_epoch = 0;
  uint64_t pushed_through = 0;  // records covered by the newest push
  bool push_enabled = pushing;
  if (pushing) {
    const size_t colon = options.push_to.rfind(':');
    server::SketchPusherConfig push_config;
    push_config.host = options.push_to.substr(0, colon);
    push_config.port = static_cast<uint16_t>(
        std::strtoull(options.push_to.c_str() + colon + 1, nullptr, 10));
    push_config.node_id = options.node_id;
    // With tracing on, push frames carry this node's span context so
    // the aggregator's merge span joins the same trace.
    push_config.propagate_trace = trace_session.active();
    push_transport.emplace();
    pusher.emplace(push_config, &*push_transport);
    metrics.Add(*pusher);
  }
  auto push_image = [&](uint64_t fed) {
    if (!push_enabled) return;
    Ltc image = table->CloneAtBarrier();
    image.Finalize();
    pushed_through = fed;
    const auto result = pusher->Push(image, ++push_epoch, fed);
    if (result.terminal) {
      // A typed rejection (shape mismatch, stale epoch) cannot heal by
      // resending — stop pushing, keep feeding and serving locally.
      std::fprintf(stderr,
                   "ltc_cli: warning: aggregator rejected push %llu (%s); "
                   "disabling further pushes\n",
                   static_cast<unsigned long long>(push_epoch),
                   server::StatusName(result.status));
      push_enabled = false;
    } else if (!result.delivered) {
      std::fprintf(stderr,
                   "ltc_cli: warning: push %llu undelivered after retries "
                   "(%s); the next cadence retries with a fresher image\n",
                   static_cast<unsigned long long>(push_epoch),
                   result.error.c_str());
    }
  };

  // --checkpoint-every with --save: mid-run snapshots rotate at
  // <save>.<seq>.snap; after a crash, --load walks back to the newest
  // valid one. Saves ride out transient I/O errors with a short backoff
  // (docs/DURABILITY.md "Retries and backoff") instead of dropping a
  // rotation slot on the first EIO. This is the checkpoint path's only
  // retry layer, for both table kinds.
  std::optional<SnapshotStore> rotation;
  if (options.checkpoint_every > 0 && !options.save_path.empty()) {
    SnapshotStoreConfig rotation_config;
    rotation_config.retry.max_attempts = 3;
    rotation_config.retry.initial_delay_usec = 10'000;
    rotation_config.retry.max_delay_usec = 100'000;
    rotation_config.retry.jitter = 0.2;
    rotation.emplace(options.save_path, rotation_config);
    metrics.Add(*rotation);
  }

  // 3. Compose the estimator's steps and feed the stream.
  FeedSteps steps;
  steps.stats = [&] { metrics.Write(); };
  std::optional<IngestPipeline> pipeline;
  std::vector<std::vector<Record>> tenant_runs(tenants.size());
  if (store) {
    // Each chunk boundary is a quiescent barrier: the touched tenants
    // are Put through the WAL, so a kill at any moment loses at most
    // the current chunk. A checkpoint writes back dirty pages and
    // truncates the log.
    steps.ingest = [&](std::span<const Record> chunk) {
      for (auto& run : tenant_runs) run.clear();
      // Record -> tenant via a multiplicative mix, not a bare modulus:
      // real item ids often share low-bit structure (hashed tokens,
      // even ids), which would starve whole tenants.
      for (const Record& record : chunk) {
        const uint64_t t = (static_cast<uint64_t>(record.item) *
                                uint64_t{0x9E3779B97F4A7C15} >>
                            32) % tenant_runs.size();
        tenant_runs[t].push_back(record);
      }
      for (uint64_t t = 0; t < tenants.size(); ++t) {
        if (tenant_runs[t].empty()) continue;
        tenants[t].InsertBatch(std::span<const Record>(tenant_runs[t]));
        if (!store->Put(t, tenants[t], &error)) {
          std::fprintf(stderr,
                       "ltc_cli: store put (tenant %llu) failed: %s\n",
                       static_cast<unsigned long long>(t), error.c_str());
          return false;
        }
      }
      return true;
    };
    steps.checkpoint = [&](std::string* e) {
      return store->CheckpointDirty(e);
    };
  } else if (sharded) {
    pipeline.emplace(*sharded);
    metrics.Add(*pipeline);
    steps.ingest = [&](std::span<const Record> chunk) {
      pipeline->PushBatch(chunk);
      return true;
    };
    if (serving) {
      // The pipeline publishes a hub snapshot inside each complete
      // Flush(), while the workers are quiescent.
      pipeline->AttachReadSnapshotHub(&hub);
      steps.publish = [&](uint64_t) { pipeline->Flush(); };
    }
    if (rotation) {
      pipeline->AttachSnapshotStore(&*rotation);
      steps.checkpoint = [&](std::string* e) {
        return pipeline->Checkpoint(e);
      };
    }
    // Quiesce the workers so the per-shard core sinks are safe to read
    // (their fields are plain uint64s owned by the worker).
    steps.stats = [&] {
      pipeline->Flush();
      metrics.Write();
    };
  } else {
    steps.ingest = [&](std::span<const Record> chunk) {
      table->InsertBatch(chunk);
      return true;
    };
    if (serving) steps.publish = publish_clone;
    if (pushing) steps.push = push_image;
    if (rotation) {
      steps.checkpoint = [&](std::string* e) {
        BinaryWriter writer;
        table->Serialize(writer);
        return rotation->Save(writer.data(), e).has_value();
      };
    }
  }
  if (!Feed(records, options, steps, trace_session)) return 1;

  // Shutdown checkpoint: an interrupted feed makes everything accepted
  // so far durable before the workers are torn down (the signal means
  // stop feeding, not stop being durable). The store takes it on every
  // exit: its checkpoint plays the part of --save.
  if (steps.checkpoint && (g_caught_signal != 0 || store)) {
    RunCheckpoint(steps, "final ");
  }
  if (pipeline) pipeline->Stop();
  if (store) {
    const store::SketchStore::Stats& stats = store->stats();
    std::fprintf(stderr,
                 "ltc_cli: store: %llu put(s) (%llu clean), %llu WAL "
                 "record(s), %llu checkpoint(s), %zu frame(s) resident "
                 "across %zu tenant(s)\n",
                 static_cast<unsigned long long>(stats.puts),
                 static_cast<unsigned long long>(stats.clean_puts),
                 static_cast<unsigned long long>(stats.wal_records),
                 static_cast<unsigned long long>(stats.checkpoints),
                 store->pool().resident(), store->Tenants().size());
  }

  // Final push: the whole trace in one cumulative image. Skipped when
  // the cadence already pushed the exact end-of-trace barrier, and on
  // interruption (the signal means stop pushing).
  if (pushing) {
    if (g_caught_signal == 0 &&
        (push_epoch == 0 || pushed_through != records.size())) {
      push_image(records.size());
    }
    std::fprintf(stderr,
                 "ltc_cli: pushes: %llu delivered in %llu attempt(s) "
                 "(%llu retr%s, %llu rejected)\n",
                 static_cast<unsigned long long>(pusher->delivered()),
                 static_cast<unsigned long long>(pusher->attempts()),
                 static_cast<unsigned long long>(pusher->retries()),
                 pusher->retries() == 1 ? "y" : "ies",
                 static_cast<unsigned long long>(pusher->rejected()));
  }

  // Serving: the trace is fully fed (or the feed was interrupted) —
  // keep answering queries from the final barrier snapshot until a
  // signal, then drain gracefully: in-flight requests are answered and
  // every connection gets a clean FIN before the epilogue below runs.
  if (server) {
    WaitForSignal(trace_session);
    server->Stop();
    std::fprintf(stderr,
                 "ltc_cli: served %llu request(s) (%llu error(s)), drained\n",
                 static_cast<unsigned long long>(server->TotalRequests()),
                 static_cast<unsigned long long>(server->TotalErrors()));
  }

  // 4. Checkpoint before Finalize so a later --load continues cleanly.
  if (!options.save_path.empty()) {
    BinaryWriter writer;
    if (sharded) {
      sharded->Serialize(writer);
    } else {
      table->Serialize(writer);
    }
    std::string save_error;
    if (!AtomicWriteFile(SystemFs(), options.save_path,
                         EncodeFrame(writer.data()), &save_error)) {
      std::fprintf(stderr, "ltc_cli: cannot write checkpoint '%s': %s\n",
                   options.save_path.c_str(), save_error.c_str());
      return 1;
    }
  }

  // Interrupted run: state is durable (--save, the final checkpoint
  // above), the exposition below is complete, but the report would
  // cover a truncated stream — skip it and exit with the conventional
  // interrupted status.
  if (g_caught_signal != 0) {
    metrics.Write();
    const char* durable = store ? ", store checkpointed"
                          : options.save_path.empty() ? ""
                                                      : ", checkpoint saved";
    std::fprintf(stderr,
                 "ltc_cli: interrupted by signal %d; state flushed%s\n",
                 static_cast<int>(g_caught_signal), durable);
    return 128 + static_cast<int>(g_caught_signal);
  }
  if (estimator != nullptr) estimator->Finalize();
  // Exit-time exposition: every run with --metrics-out leaves a final,
  // complete metrics file even when --stats-every never fired.
  metrics.Write();

  // 5. Report. Store tenants report from finalized clones, so the
  // durable tables stay un-finalized and a reopened run resumes from
  // them, as the snapshot paths do.
  auto name_of = [&](ItemId item) -> std::string {
    if (trace->used_interner) return trace->interner.Name(item);
    return std::to_string(item);
  };
  std::vector<std::string> header = {"item", "frequency", "persistency",
                                     "significance"};
  if (store) header.insert(header.begin(), "tenant");
  TextTable report(std::move(header));
  auto add_rows = [&](const SignificanceEstimator& source,
                      std::vector<std::string> prefix) {
    for (const auto& r : source.TopK(options.k)) {
      std::vector<std::string> row = prefix;
      row.insert(row.end(),
                 {name_of(r.item), std::to_string(r.frequency),
                  std::to_string(r.persistency),
                  FormatMetric(r.significance)});
      report.AddRow(std::move(row));
    }
  };
  if (store) {
    for (uint64_t t = 0; t < tenants.size(); ++t) {
      Ltc finalized = tenants[t].CloneAtBarrier();
      finalized.Finalize();
      add_rows(finalized, {std::to_string(t)});
    }
  } else {
    add_rows(*estimator, {});
  }
  if (options.csv) {
    report.PrintCsv(std::cout);
    return 0;
  }
  if (store) {
    std::printf(
        "# %zu records, %u periods, %llu tenant(s) in '%s', %s budget\n",
        stream.size(), stream.num_periods(),
        static_cast<unsigned long long>(tenants.size()),
        options.store_dir.c_str(),
        FormatMemory(options.mem_budget_bytes).c_str());
  } else {
    std::printf("# %zu records, %u periods, %s memory, s = %g*f + %g*p",
                stream.size(), stream.num_periods(),
                FormatMemory(estimator->MemoryBytes()).c_str(), config.alpha,
                config.beta);
    if (sharded) {
      std::printf(", %u shards", sharded->num_shards());
    }
    std::printf("\n");
  }
  report.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace ltc

int main(int argc, char** argv) {
  ltc::InstallSignalHandlers();
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string error;
  auto options = ltc::ParseCliOptions(args, &error);
  if (!options) {
    std::fprintf(stderr, "ltc_cli: %s\n%s", error.c_str(),
                 ltc::CliUsage().c_str());
    return 2;
  }
  if (options->show_help) {
    std::fputs(ltc::CliUsage().c_str(), stdout);
    return 0;
  }
  // Tracing first: the recorder must be installed before the first
  // instrumented seam (snapshot restore, store recovery) opens a span.
  ltc::TraceSession trace_session(options->trace_out);
  ltc::MetricsOut metrics(options->metrics_out, trace_session);
  if (options->aggregate) {
    return ltc::RunAggregator(*options, trace_session, metrics);
  }
  return ltc::Run(*options, trace_session, metrics);
}
