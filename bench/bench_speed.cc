// Insertion-throughput microbenchmarks (the paper's "high speed" claim,
// §I/§V): million insertions per second for every algorithm at the 100 KB
// budget on a CAIDA-like stream, via google-benchmark. Only relative
// numbers are meaningful across machines.
//
// Three comparisons ride in the same table, each as the arguments of one
// case, so every pair is measured in one run on one host:
//  * BM_LtcProbe/<backend> — LTC insert throughput under each
//    bucket-probe backend (docs/PERF.md); a backend this CPU lacks is
//    skipped with an error row;
//  * BM_LtcSink/<detached|attached> — the metrics sink's hot-path cost
//    (docs/TELEMETRY.md);
//  * BM_LtcInsertSweep at 250/2000 items per period — inserts at the
//    aggregator nodes' shape, where the CLOCK sweep dominates
//    (docs/PERF.md "Per-cell loops");
//  * BM_LtcInsertPieces at 64/512-record pieces — inserts at the
//    ingest_zipf shard shape, fed in short pieces and in the pieces a
//    pipeline worker applies (docs/PERF.md "Sweep in strides");
//  * BM_ShardedInsert and BM_PipelineInsert at 1/2/4/8 shards —
//    sequential ShardedLtc vs IngestPipeline (docs/INGEST.md), the
//    pipeline with and without per-shard metrics sinks;
//  * BM_AggregatorRefold at 1/4/8 nodes — the aggregator's per-push
//    merge (docs/PERF.md "Aggregator push path"), and BM_DispatchPush,
//    the same pushes through the server's request dispatch
//    (docs/PERF.md "Incremental push apply").
// --benchmark_format=json carries probe_backend and git_sha in its
// context block.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/sharded_ltc.h"
#include "core/table_layout.h"
#include "ingest/ingest_pipeline.h"
#include "server/aggregator.h"
#include "server/dispatcher.h"
#include "server/key_codec.h"
#include "server/protocol.h"
#include "telemetry/build_info.h"

namespace ltc {
namespace bench {
namespace {

constexpr size_t kMemory = 100 * 1024;
constexpr size_t kK = 100;

// One shared, lazily built stream; sized down for micro runs.
const Stream& SharedStream() {
  static const Stream* stream =
      new Stream(MakeCaidaLike(ScaledRecords(500'000, 10'000'000), 42));
  return *stream;
}

// The table the probe, sink and shard cases feed: LTC at the 100 KB
// budget, paced to the shared stream's periods.
LtcConfig PacedConfig(const Stream& stream) {
  LtcConfig config;
  config.memory_bytes = kMemory;
  config.period_mode = PeriodMode::kTimeBased;
  config.period_seconds = stream.duration() / stream.num_periods();
  return config;
}

void SetRecordsProcessed(benchmark::State& state, const Stream& stream) {
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
}

void FeedAll(SignificantReporter& reporter, const Stream& stream,
             benchmark::State& state) {
  for (auto _ : state) {
    reporter.InsertBatch(stream.records(), stream);
  }
  SetRecordsProcessed(state, stream);
}

void BM_LtcInsert(benchmark::State& state) {
  const Stream& stream = SharedStream();
  LtcConfig config;
  config.memory_bytes = kMemory;
  LtcReporter reporter(config, stream.num_periods(), stream.duration());
  FeedAll(reporter, stream, state);
}
BENCHMARK(BM_LtcInsert)->Unit(benchmark::kMillisecond);

void BM_SpaceSavingInsert(benchmark::State& state) {
  const Stream& stream = SharedStream();
  SpaceSavingReporter reporter(kMemory);
  FeedAll(reporter, stream, state);
}
BENCHMARK(BM_SpaceSavingInsert)->Unit(benchmark::kMillisecond);

void BM_LossyCountingInsert(benchmark::State& state) {
  const Stream& stream = SharedStream();
  LossyCountingReporter reporter(kMemory);
  FeedAll(reporter, stream, state);
}
BENCHMARK(BM_LossyCountingInsert)->Unit(benchmark::kMillisecond);

void BM_MisraGriesInsert(benchmark::State& state) {
  const Stream& stream = SharedStream();
  MisraGriesReporter reporter(kMemory);
  FeedAll(reporter, stream, state);
}
BENCHMARK(BM_MisraGriesInsert)->Unit(benchmark::kMillisecond);

void BM_CmHeapInsert(benchmark::State& state) {
  const Stream& stream = SharedStream();
  SketchHeapFrequentReporter reporter(SketchKind::kCountMin, kMemory, kK);
  FeedAll(reporter, stream, state);
}
BENCHMARK(BM_CmHeapInsert)->Unit(benchmark::kMillisecond);

void BM_CuHeapInsert(benchmark::State& state) {
  const Stream& stream = SharedStream();
  SketchHeapFrequentReporter reporter(SketchKind::kCu, kMemory, kK);
  FeedAll(reporter, stream, state);
}
BENCHMARK(BM_CuHeapInsert)->Unit(benchmark::kMillisecond);

void BM_CountHeapInsert(benchmark::State& state) {
  const Stream& stream = SharedStream();
  SketchHeapFrequentReporter reporter(SketchKind::kCount, kMemory, kK);
  FeedAll(reporter, stream, state);
}
BENCHMARK(BM_CountHeapInsert)->Unit(benchmark::kMillisecond);

void BM_BfCuPersistentInsert(benchmark::State& state) {
  const Stream& stream = SharedStream();
  BfSketchPersistentReporter reporter(SketchKind::kCu, kMemory, kK);
  FeedAll(reporter, stream, state);
}
BENCHMARK(BM_BfCuPersistentInsert)->Unit(benchmark::kMillisecond);

void BM_PieInsert(benchmark::State& state) {
  const Stream& stream = SharedStream();
  PieReporter reporter(kMemory, stream.num_periods());
  FeedAll(reporter, stream, state);
}
BENCHMARK(BM_PieInsert)->Unit(benchmark::kMillisecond);

void BM_CombinedSignificantInsert(benchmark::State& state) {
  const Stream& stream = SharedStream();
  CombinedSignificantReporter reporter(SketchKind::kCu, kMemory, kK, 1.0,
                                       1.0);
  FeedAll(reporter, stream, state);
}
BENCHMARK(BM_CombinedSignificantInsert)->Unit(benchmark::kMillisecond);

// Core micro-op: a single LTC insert on a warm table.
void BM_LtcSingleInsert(benchmark::State& state) {
  LtcConfig config;
  config.memory_bytes = kMemory;
  config.items_per_period = 10'000;
  Ltc table(config);
  uint64_t key = 1;
  for (auto _ : state) {
    table.Insert((key++ % 50'000) + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LtcSingleInsert);

// One full-stream feed of a fresh paced table per iteration, so every
// iteration sees the stream from its start; a fresh metrics sink is
// attached when `attach_sink` is set.
void FeedFreshLtc(benchmark::State& state,
                  [[maybe_unused]] bool attach_sink) {
  const Stream& stream = SharedStream();
  const LtcConfig config = PacedConfig(stream);
  for (auto _ : state) {
    Ltc table(config);
#ifdef LTC_METRICS
    LtcMetricsSink sink;
    if (attach_sink) table.AttachMetricsSink(&sink);
#endif
    table.InsertBatch(stream.records());
  }
  SetRecordsProcessed(state, stream);
}

// Scalar always runs, so a vectorized backend's win sits next to its
// baseline. The previously active backend is restored afterwards.
void BM_LtcProbe(benchmark::State& state, ProbeBackend backend) {
  const ProbeBackend before = ActiveProbeBackend();
  if (SetProbeBackend(backend) != backend) {
    state.SkipWithError("probe backend not supported on this CPU");
    return;
  }
  FeedFreshLtc(state, /*attach_sink=*/false);
  SetProbeBackend(before);
}
BENCHMARK_CAPTURE(BM_LtcProbe, scalar, ProbeBackend::kScalar)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LtcProbe, sse2, ProbeBackend::kSse2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LtcProbe, avx2, ProbeBackend::kAvx2)
    ->Unit(benchmark::kMillisecond);

// The sink-overhead claim in docs/TELEMETRY.md is the gap between these
// two rows. Built with LTC_METRICS=OFF there is no sink to attach.
void BM_LtcSink(benchmark::State& state, bool attach) {
#ifndef LTC_METRICS
  if (attach) {
    state.SkipWithError("built with LTC_METRICS=OFF");
    return;
  }
#endif
  FeedFreshLtc(state, attach);
}
BENCHMARK_CAPTURE(BM_LtcSink, detached, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LtcSink, attached, true)
    ->Unit(benchmark::kMillisecond);

// Inserts at the serve_agg node shape (128 KiB, d = 8, count-based
// periods) with a metrics sink attached, one fresh table per iteration.
// At 250 items per period the CLOCK pointer sweeps about 33 cells per
// record, so the sweep is most of an insert; at 2000, about 4.
void BM_LtcInsertSweep(benchmark::State& state) {
#ifndef LTC_METRICS
  state.SkipWithError("built with LTC_METRICS=OFF");
  return;
#else
  const Stream& stream = SharedStream();
  LtcConfig config;
  config.memory_bytes = 128 * 1024;
  config.items_per_period = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    Ltc table(config);
    LtcMetricsSink sink;
    table.AttachMetricsSink(&sink);
    table.InsertBatch(stream.records());
  }
  SetRecordsProcessed(state, stream);
#endif
}
BENCHMARK(BM_LtcInsertSweep)
    ->ArgName("items_per_period")
    ->Arg(250)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// Inserts at the ingest_zipf shard shape (128 KiB, d = 8, 2000 items
// per period) with a metrics sink attached, fed in pieces of the given
// length, one fresh table per iteration. 512 is the pipeline worker's
// default drain batch, which it applies whole; 64 is a short piece. A
// piece ends the deferred CLOCK sweep's stride, so the piece length
// caps the cells each sweep call covers.
void BM_LtcInsertPieces(benchmark::State& state) {
#ifndef LTC_METRICS
  state.SkipWithError("built with LTC_METRICS=OFF");
  return;
#else
  const std::span<const Record> records(SharedStream().records());
  const auto piece = static_cast<size_t>(state.range(0));
  LtcConfig config;
  config.memory_bytes = 128 * 1024;
  config.items_per_period = 2000;
  for (auto _ : state) {
    Ltc table(config);
    LtcMetricsSink sink;
    table.AttachMetricsSink(&sink);
    for (size_t off = 0; off < records.size(); off += piece) {
      table.InsertBatch(
          records.subspan(off, std::min(piece, records.size() - off)));
    }
    benchmark::DoNotOptimize(sink.clock_steps);
  }
  SetRecordsProcessed(state, SharedStream());
#endif
}
BENCHMARK(BM_LtcInsertPieces)
    ->ArgName("piece")
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

// Sequential ShardedLtc vs IngestPipeline at the same shard count. The
// pipeline row includes worker spawn and join, the real cost of the
// parallel mode; both rows time wall clock, because the pipeline's
// work runs on threads other than the one google-benchmark times.
void BM_ShardedInsert(benchmark::State& state) {
  const Stream& stream = SharedStream();
  const LtcConfig config = PacedConfig(stream);
  const auto shards = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    ShardedLtc sharded(config, shards);
    sharded.InsertBatch(stream.records());
  }
  SetRecordsProcessed(state, stream);
}
BENCHMARK(BM_ShardedInsert)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// sinks:1 attaches one metrics sink per shard from a std::vector, as
// ltc_cli --threads does; the gap to sinks:0 is what the sinks cost the
// parallel shards, false sharing between adjacent sinks included.
void BM_PipelineInsert(benchmark::State& state) {
  const Stream& stream = SharedStream();
  const LtcConfig config = PacedConfig(stream);
  const auto shards = static_cast<uint32_t>(state.range(0));
  const bool attach_sinks = state.range(1) != 0;
#ifndef LTC_METRICS
  if (attach_sinks) {
    state.SkipWithError("built with LTC_METRICS=OFF");
    return;
  }
#endif
  for (auto _ : state) {
    ShardedLtc sharded(config, shards);
#ifdef LTC_METRICS
    std::vector<LtcMetricsSink> sinks(attach_sinks ? shards : 0);
    for (uint32_t s = 0; s < sinks.size(); ++s) {
      sharded.AttachMetricsSink(s, &sinks[s]);
    }
#endif
    IngestPipeline pipeline(sharded);
    pipeline.PushBatch(stream.records());
    pipeline.Stop();
  }
  SetRecordsProcessed(state, stream);
}
BENCHMARK(BM_PipelineInsert)
    ->ArgNames({"shards", "sinks"})
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Pushes at the serve_agg shape (128 KiB, d = 8): each node ingests its
// own hash partition of a Zipf stream and images its table after
// serve_agg's per-node chunk, so a push changes about as many buckets as
// there. Warm() folds four rounds of every node's images first.
class ServeAggPushes {
 public:
  explicit ServeAggPushes(uint32_t nodes)
      : nodes_(nodes), cursor_(nodes, 0) {
    static const Stream* stream = new Stream(
        MakeZipfStream(ScaledRecords(500'000, 500'000),
                       ScaledRecords(500'000, 500'000) / 8, 1.0, 500, 7));
    records_ = stream->records();
    chunk_ = std::max<size_t>(1, records_.size() / 4 / 61);
    config_.memory_bytes = 128 * 1024;
    config_.items_per_period = std::max<size_t>(1, records_.size() / 4 / 500);
    live_.assign(nodes, Ltc(config_));
  }

  const LtcConfig& config() const { return config_; }

  // Node n's next chunk of its partition (wrapping around the stream),
  // then the image it would push.
  server::PushRequest Next(uint32_t n) {
    batch_.clear();
    while (batch_.size() < chunk_) {
      const Record& record = records_[cursor_[n]];
      cursor_[n] = (cursor_[n] + 1) % records_.size();
      const uint64_t part =
          (record.item * uint64_t{0x9E3779B97F4A7C15} >> 32) % nodes_;
      if (part == n) batch_.push_back(record);
    }
    live_[n].InsertBatch(batch_);
    Ltc image = live_[n].CloneAtBarrier();
    image.Finalize();
    BinaryWriter writer;
    image.Serialize(writer);
    server::PushRequest push;
    push.node_id = n + 1;
    push.epoch_seq = ++epoch_;
    push.payload = writer.Release();
    return push;
  }

  void Warm(server::AggregatorCore& aggregator) {
    for (int round = 0; round < 4; ++round) {
      for (uint32_t n = 0; n < nodes_; ++n) aggregator.ApplyPush(Next(n));
    }
  }

 private:
  uint32_t nodes_;
  std::span<const Record> records_;
  size_t chunk_ = 0;
  LtcConfig config_;
  std::vector<Ltc> live_;
  std::vector<size_t> cursor_;
  std::vector<Record> batch_;
  uint64_t epoch_ = 0;
};

// The aggregator's push path on one core: AggregatorCore::ApplyPush of
// one node's next barrier image (no hub), every node's earlier images
// already folded; the rows differ in how many nodes the fold holds.
// Image building runs outside the timed region.
void BM_AggregatorRefold(benchmark::State& state) {
  const auto nodes = static_cast<uint32_t>(state.range(0));
  ServeAggPushes pushes(nodes);
  server::AggregatorCore aggregator(pushes.config(), nullptr);
  pushes.Warm(aggregator);
  uint32_t n = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const server::PushRequest push = pushes.Next(n);
    n = (n + 1) % nodes;
    state.ResumeTiming();
    if (!aggregator.ApplyPush(push).applied) {
      state.SkipWithError("push not applied");
      break;
    }
  }
}
BENCHMARK(BM_AggregatorRefold)
    ->ArgName("nodes")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// The same pushes as BM_AggregatorRefold, through the server's dispatch:
// QueryDispatcher::Handle of a whole PUSH_SKETCH request payload, so the
// header decode and the hand-over of the sketch bytes are timed too.
void BM_DispatchPush(benchmark::State& state) {
  const auto nodes = static_cast<uint32_t>(state.range(0));
  ServeAggPushes pushes(nodes);
  server::AggregatorCore aggregator(pushes.config(), nullptr);
  pushes.Warm(aggregator);
  const ReadSnapshotHub hub;  // queries only; the aggregator has none
  const server::NumericKeyCodec codec;
  server::QueryDispatcher dispatcher(hub, codec, 0);
  dispatcher.AttachAggregator(&aggregator);
  uint32_t n = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string request = server::EncodePushRequest(pushes.Next(n));
    n = (n + 1) % nodes;
    state.ResumeTiming();
    const std::string response = dispatcher.Handle(request);
    if (response.empty() ||
        response[0] != static_cast<char>(server::Status::kOk)) {
      state.SkipWithError("push not acknowledged");
      break;
    }
  }
}
BENCHMARK(BM_DispatchPush)
    ->ArgName("nodes")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace ltc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Read before any case runs: the dispatch a plain run of this build
  // uses (LTC_PROBE may force it).
  benchmark::AddCustomContext(
      "probe_backend", ltc::ProbeBackendName(ltc::ActiveProbeBackend()));
  benchmark::AddCustomContext("git_sha", ltc::telemetry::BuildGitSha());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
