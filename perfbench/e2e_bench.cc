// ltc_e2e — the end-to-end benchmark program (see README.md).
//
// One process runs one workload for a time budget, as a sequence of
// identical ROUNDS. A round sets up from the seed (inputs, exact ground
// truth, services), feeds the whole input through the layers under
// test while clients query, then checks every answer it saw against an
// in-process reference. Round 0 is a warm-up and is not timed; the
// timings of the remaining rounds are pooled (percentiles, and the
// per-chunk ingest rate) or taken as medians across rounds (the other
// rates). Each layer is driven only through its
// public API and timed from outside; in a traced round every call is
// wrapped in a telemetry::Span named after its layer, and the round's
// flight-recorder dump is written next to the result for run.py to
// attribute.
//
// Usage:
//   ltc_e2e --workload NAME --seed N --seconds S --trace 0|1
//           --work-dir DIR [--scale F]
//
// Prints one JSON object on stdout. Exit status 0 when the run
// completed (answer mismatches are reported in "failed"), 2 on a usage
// error, 1 when the run could not be carried out.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/ltc.h"
#include "core/ltc_metrics_sink.h"
#include "core/read_snapshot.h"
#include "core/sharded_ltc.h"
#include "counting_fs.h"
#include "ingest/ingest_pipeline.h"
#include "metrics/evaluate.h"
#include "metrics/ground_truth.h"
#include "server/aggregator.h"
#include "server/key_codec.h"
#include "server/protocol.h"
#include "server/push_client.h"
#include "server/query_server.h"
#include "snapshot/snapshot_store.h"
#include "store/sketch_store.h"
#include "stream/generators.h"
#include "telemetry/trace.h"

namespace ltc {
namespace perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;
using server::Opcode;
using server::Status;

constexpr size_t kTopK = 100;

// Flight-recorder ring per thread in a traced round: enough for a whole
// round of the busiest thread (tenants_keyspace's store thread records
// about 21,000 spans). run.py rejects a round whose ring filled.
constexpr size_t kSpansPerThread = size_t{1} << 15;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

double MicrosBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Golden-ratio tenant/node mix, as ltc_cli --store routes records
// (zipf ids share low-bit structure; a bare modulus starves partitions).
uint64_t PartitionOf(ItemId item, uint64_t parts) {
  return (static_cast<uint64_t>(item) * uint64_t{0x9E3779B97F4A7C15} >> 32) %
         parts;
}

size_t Scaled(size_t base, double scale, size_t floor) {
  return std::max(floor, static_cast<size_t>(std::llround(
                             static_cast<double>(base) * scale)));
}

// Chunk size for a fixed number of chunks: --scale shrinks the records
// per chunk, never the number of barriers, pushes or Puts per round.
size_t ChunkOf(size_t records, size_t chunks) {
  return (records + chunks - 1) / chunks;
}

// Chunk `c` of `records` cut into `chunk`-record pieces.
std::span<const Record> ChunkAt(std::span<const Record> records, size_t c,
                                size_t chunk) {
  return records.subspan(c * chunk,
                         std::min(chunk, records.size() - c * chunk));
}

std::string Serialized(const Ltc& table) {
  BinaryWriter writer;
  table.Serialize(writer);
  return writer.data();
}

// ---------------------------------------------------------------------
// Round results.

struct RoundResult {
  bool traced = false;
  double setup_s = 0.0;
  double feed_s = 0.0;  // wall time of the measured feed loop
  uint64_t records = 0;
  // Per chunk: its records over the wall time of its whole iteration
  // (records per microsecond = Mrec/s).
  std::vector<double> chunk_mops;

  std::vector<double> commit_ms;
  std::vector<double> checkpoint_ms;
  std::vector<double> recovery_ms;
  std::vector<double> query_us;     // ESTIMATE, client-side
  std::vector<double> topk_us;      // TOPK, client-side
  std::vector<double> gen_late_us;  // open-loop send lateness
  double query_window_s = 0.0;      // how long the query clients ran

  double topk_precision = 0.0;
  double topk_are = 0.0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  // Exact per-round counts (the layer ledger's count columns).
  std::map<std::string, double> counts;

  std::string trace_file;

  void Fail(std::string what) {
    failed++;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
  // One checked operation: counts it attempted, and failed when !ok.
  void Check(bool ok, const std::string& what) {
    attempted++;
    if (!ok) Fail(what);
  }
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string work_dir;
};

// Installs a fresh flight recorder for one traced round and dumps it at
// the end. Every thread that records must have stopped by then.
class RoundTrace {
 public:
  explicit RoundTrace(bool enabled) {
    if (enabled) {
      recorder_ = std::make_unique<telemetry::FlightRecorder>(
          nullptr, kSpansPerThread);
      telemetry::FlightRecorder::Install(recorder_.get());
    }
  }
  ~RoundTrace() { telemetry::FlightRecorder::Install(nullptr); }
  RoundTrace(const RoundTrace&) = delete;
  RoundTrace& operator=(const RoundTrace&) = delete;

  void Finish(const std::string& path, RoundResult* result) {
    if (recorder_ == nullptr) return;
    telemetry::FlightRecorder::Install(nullptr);
    std::string error;
    result->Check(recorder_->DumpToFile(path, &error),
                  "trace dump failed: " + error);
    result->trace_file = path;
  }

 private:
  std::unique_ptr<telemetry::FlightRecorder> recorder_;
};

// ---------------------------------------------------------------------
// A blocking LTCQ client over one loopback connection.

class LtcqClient {
 public:
  LtcqClient() = default;
  ~LtcqClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LtcqClient(const LtcqClient&) = delete;
  LtcqClient& operator=(const LtcqClient&) = delete;

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  // Sends one request payload; returns its response payload, or
  // nullopt when the connection failed.
  std::optional<std::string> Call(const std::string& request_payload) {
    const std::string frame = server::EncodeFrame(request_payload);
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return std::nullopt;
      sent += static_cast<size_t>(n);
    }
    char buf[1 << 16];
    while (true) {
      std::optional<std::string> payload = parser_.Next();
      if (payload.has_value()) return payload;
      if (parser_.oversized()) return std::nullopt;
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      parser_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  server::FrameParser parser_;
};

// One served answer, kept for the oracle. The served image's publish
// sequence lies in [lo_seq - 1, hi_seq]: the hub bumps its sequence
// just before it flips the active slot, and the image answered is
// published before the response is sent.
struct ServedAnswer {
  bool topk = false;
  ItemId key = 0;
  double significance = 0.0;
  std::vector<server::TopKEntry> entries;
  uint64_t lo_seq = 0;
  uint64_t hi_seq = 0;
};

bool SameTopK(const std::vector<server::TopKEntry>& served,
              const std::vector<SignificanceReport>& reference) {
  if (served.size() != reference.size()) return false;
  for (size_t i = 0; i < served.size(); ++i) {
    if (served[i].key != std::to_string(reference[i].item) ||
        served[i].frequency != reference[i].frequency ||
        served[i].persistency != reference[i].persistency ||
        served[i].significance != reference[i].significance) {
      return false;
    }
  }
  return true;
}

// Checks every served answer against the reference states. `states`
// must call `check(seq, reference)` for every publish sequence in
// ascending order; an answer passes when it equals the reference at
// any sequence in its window.
template <typename StateWalk>
void CheckServedAnswers(std::vector<ServedAnswer>& answers,
                        const StateWalk& states, RoundResult* result) {
  std::sort(answers.begin(), answers.end(),
            [](const ServedAnswer& a, const ServedAnswer& b) {
              return a.lo_seq < b.lo_seq;
            });
  std::vector<bool> matched(answers.size(), false);
  size_t next = 0;
  std::vector<size_t> open;
  states([&](uint64_t seq, const SignificanceEstimator& ref) {
    while (next < answers.size() &&
           std::max<uint64_t>(answers[next].lo_seq, 2) - 1 <= seq) {
      open.push_back(next++);
    }
    // TOPK is computed at most once per reference state.
    std::optional<std::vector<SignificanceReport>> topk;
    auto matches = [&](const ServedAnswer& answer) {
      if (!answer.topk) {
        return ref.QuerySignificance(answer.key) == answer.significance;
      }
      if (!topk.has_value()) topk = ref.TopK(kTopK);
      return SameTopK(answer.entries, *topk);
    };
    size_t keep = 0;
    for (size_t idx : open) {
      if (!matched[idx] && matches(answers[idx])) matched[idx] = true;
      if (!matched[idx] && answers[idx].hi_seq > seq) open[keep++] = idx;
    }
    open.resize(keep);
  });
  for (size_t i = 0; i < answers.size(); ++i) {
    result->Check(matched[i],
                  std::string(answers[i].topk ? "TOPK" : "ESTIMATE") +
                      " answer matches no reference state in its window");
  }
}

double ExpectSignificance(const std::optional<std::string>& response,
                          bool* ok) {
  *ok = false;
  if (!response.has_value()) return 0.0;
  const auto decoded =
      server::DecodeResponse(Opcode::kEstimateSignificance, *response);
  if (!decoded.has_value() || decoded->status != Status::kOk) return 0.0;
  *ok = true;
  return decoded->value_double;
}

std::optional<std::vector<server::TopKEntry>> ExpectTopK(
    const std::optional<std::string>& response) {
  if (!response.has_value()) return std::nullopt;
  auto decoded = server::DecodeResponse(Opcode::kTopK, *response);
  if (!decoded.has_value() || decoded->status != Status::kOk) {
    return std::nullopt;
  }
  return std::move(decoded->topk);
}

void ScoreTopK(const std::vector<server::TopKEntry>& served,
               const GroundTruth& truth, const LtcConfig& config,
               RoundResult* result) {
  std::vector<TopKEntry> reported;
  for (const server::TopKEntry& entry : served) {
    reported.push_back({std::stoull(entry.key), entry.significance});
  }
  const EvalResult eval =
      Evaluate(reported, truth, kTopK, config.alpha, config.beta);
  result->topk_precision = eval.precision;
  result->topk_are = eval.are;
}

double CaseOneRatio(const std::vector<LtcMetricsSink>& sinks,
                    uint64_t records) {
  uint64_t tracked = 0;
  for (const LtcMetricsSink& sink : sinks) tracked += sink.inserts_tracked;
  return records == 0 ? 0.0
                      : static_cast<double>(tracked) /
                            static_cast<double>(records);
}

void PutFsCounts(const CountingFs& fs, RoundResult* result) {
  const CountingFs::Counts& c = fs.counts();
  result->counts["fs.syncs"] = static_cast<double>(c.syncs);
  result->counts["fs.sync_us"] = static_cast<double>(c.sync_ns) / 1e3;
  result->counts["fs.bytes_written"] = static_cast<double>(c.bytes_written);
  result->counts["fs.files_written"] = static_cast<double>(c.files_written);
}

std::vector<ItemId> SortedUniverse(const GroundTruth& truth) {
  std::vector<ItemId> keys;
  keys.reserve(truth.items().size());
  for (const auto& entry : truth.items()) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// A round's store directory, created empty at set-up. At tear-down it
// is removed and the filesystem synced, so the device has absorbed the
// deletions (a filesystem mounted with `discard` trims freed blocks at
// journal commit) before the next round is timed.
class RoundDir {
 public:
  RoundDir(const RunOptions& options, const char* name)
      : path_((std::filesystem::path(options.work_dir) / name).string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~RoundDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
    const int fd = ::open(DirnameOf(path_).c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      ::syncfs(fd);
      ::close(fd);
    }
  }
  RoundDir(const RoundDir&) = delete;
  RoundDir& operator=(const RoundDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------
// ingest_zipf: the write path with light open-loop reads.

struct IngestZipfSizes {
  size_t records;
  size_t chunk;
  size_t checkpoint_every;
  double query_rate;  // ESTIMATE requests per second, open loop
};

IngestZipfSizes SizeIngestZipf(double scale) {
  IngestZipfSizes s;
  s.records = Scaled(2'000'000, scale, 20'000);
  s.chunk = ChunkOf(s.records, 31);
  s.checkpoint_every = s.records / 4;
  s.query_rate = 1'000.0;
  return s;
}

LtcConfig IngestZipfConfig(size_t records) {
  LtcConfig config;
  config.memory_bytes = 256 * 1024;
  config.items_per_period = std::max<size_t>(1, records / 500);
  return config;
}

RoundResult RunIngestZipf(const RunOptions& options, bool traced,
                          int round) {
  RoundResult result;
  result.traced = traced;
  const IngestZipfSizes sizes = SizeIngestZipf(options.scale);
  const LtcConfig config = IngestZipfConfig(sizes.records);
  constexpr uint32_t kShards = 2;

  // --- set-up: inputs, truth, services.
  const auto setup_start = SteadyClock::now();
  const Stream stream = MakeZipfStream(sizes.records, sizes.records / 8, 1.0,
                                       500, options.seed);
  const GroundTruth truth = GroundTruth::Compute(stream);
  const std::vector<ItemId> universe = SortedUniverse(truth);
  const RoundDir round_dir(options, "ingest_zipf");
  const std::string& dir = round_dir.path();
  CountingFs fs(SystemFs());
  SnapshotStore snapshots(dir + "/ckpt", {}, &fs);
  ShardedLtc sink(config, kShards);
  std::vector<LtcMetricsSink> sinks(kShards);
  for (uint32_t s = 0; s < kShards; ++s) sink.AttachMetricsSink(s, &sinks[s]);
  ReadSnapshotHub hub;
  server::NumericKeyCodec codec;
  server::QueryServer query_server(hub, codec, kShards);
  std::string error;
  if (!query_server.Start(&error)) {
    result.Check(false, "server start: " + error);
    return result;
  }
  IngestPipeline pipeline(sink);
  pipeline.AttachReadSnapshotHub(&hub);
  pipeline.AttachSnapshotStore(&snapshots);
  result.setup_s = SecondsSince(setup_start);

  RoundTrace trace(traced);
  // Seq 1: the empty table, so the client never sees "no snapshot".
  pipeline.Flush();
  const std::span<const Record> records(stream.records());
  const size_t num_chunks = (records.size() + sizes.chunk - 1) / sizes.chunk;
  // chunk_of_seq[s]: chunks applied in the image published as seq s.
  std::vector<uint32_t> chunk_of_seq(1, 0);
  auto note_publishes = [&](uint32_t chunks_done) {
    while (chunk_of_seq.size() <= hub.PublishedSeq()) {
      chunk_of_seq.push_back(chunks_done);
    }
  };
  note_publishes(0);

  // --- the open-loop ESTIMATE client.
  std::atomic<bool> stop_client{false};
  std::vector<ServedAnswer> answers;
  std::vector<double> latencies_us;
  std::vector<double> late_us;
  uint64_t client_failures = 0;
  double client_window_s = 0.0;
  std::thread client([&] {
    LtcqClient conn;
    if (!conn.Connect(query_server.port())) {
      client_failures++;
      return;
    }
    Rng rng(options.seed * 7919 + 17);
    const auto start = SteadyClock::now();
    const auto interval = std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double>(1.0 / sizes.query_rate));
    for (uint64_t i = 0; !stop_client.load(std::memory_order_relaxed); ++i) {
      const auto due = start + interval * static_cast<int64_t>(i);
      std::this_thread::sleep_until(due);
      ServedAnswer answer;
      answer.key = universe[rng.Uniform(universe.size())];
      answer.lo_seq = hub.PublishedSeq();
      const auto sent = SteadyClock::now();
      std::optional<std::string> response;
      {
        telemetry::Span span("client.Estimate");
        response = conn.Call(server::EncodeEstimateRequest(
            Opcode::kEstimateSignificance, std::to_string(answer.key)));
      }
      const auto done = SteadyClock::now();
      answer.hi_seq = hub.PublishedSeq();
      bool ok = false;
      answer.significance = ExpectSignificance(response, &ok);
      if (!ok) {
        client_failures++;
        continue;
      }
      late_us.push_back(MicrosBetween(due, sent));
      latencies_us.push_back(MicrosBetween(due, done));
      answers.push_back(std::move(answer));
    }
    client_window_s = SecondsSince(start);
  });

  // --- the measured feed loop.
  const auto feed_start = SteadyClock::now();
  std::optional<telemetry::Span> feed_span(std::in_place, "bench.feed");
  uint64_t since_checkpoint = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    const auto chunk_start = SteadyClock::now();
    const std::span<const Record> chunk = ChunkAt(records, c, sizes.chunk);
    {
      telemetry::Span span("ingest.PushBatch");
      pipeline.PushBatch(chunk);
    }
    bool flushed = false;
    {
      telemetry::Span span("ingest.Flush");
      flushed = pipeline.Flush();
    }
    result.commit_ms.push_back(MicrosBetween(chunk_start, SteadyClock::now()) /
                               1e3);
    result.Check(flushed, "pipeline flush stalled");
    note_publishes(static_cast<uint32_t>(c + 1));
    since_checkpoint += chunk.size();
    if (since_checkpoint >= sizes.checkpoint_every) {
      since_checkpoint = 0;
      const auto ckpt_start = SteadyClock::now();
      bool ok = false;
      {
        telemetry::Span span("ingest.Checkpoint");
        ok = pipeline.Checkpoint(&error);
      }
      result.checkpoint_ms.push_back(
          MicrosBetween(ckpt_start, SteadyClock::now()) / 1e3);
      result.Check(ok, "checkpoint: " + error);
      note_publishes(static_cast<uint32_t>(c + 1));
    }
    result.chunk_mops.push_back(static_cast<double>(chunk.size()) /
                                MicrosBetween(chunk_start, SteadyClock::now()));
  }
  feed_span.reset();
  result.feed_s = SecondsSince(feed_start);
  result.records = records.size();

  stop_client.store(true);
  client.join();

  // The final served TOPK, from the last barrier.
  std::optional<std::vector<server::TopKEntry>> final_topk;
  {
    LtcqClient conn;
    if (conn.Connect(query_server.port())) {
      const auto start = SteadyClock::now();
      {
        telemetry::Span span("client.TopK");
        final_topk = ExpectTopK(conn.Call(server::EncodeTopKRequest(kTopK)));
      }
      result.topk_us.push_back(MicrosBetween(start, SteadyClock::now()));
    }
  }
  query_server.Stop();
  pipeline.Stop();
  trace.Finish(options.work_dir + "/trace_ingest_zipf_" +
                   std::to_string(round) + ".json",
               &result);

  result.query_us = std::move(latencies_us);
  result.gen_late_us = std::move(late_us);
  result.query_window_s = client_window_s;
  for (uint64_t i = 0; i < client_failures; ++i) {
    result.Check(false, "ESTIMATE request failed");
  }

  // --- oracle: every served answer against a sequential reference.
  ShardedLtc reference(config, kShards);
  size_t fed_chunks = 0;
  CheckServedAnswers(
      answers,
      [&](const auto& check) {
        for (uint64_t seq = 1; seq < chunk_of_seq.size(); ++seq) {
          for (; fed_chunks < chunk_of_seq[seq]; ++fed_chunks) {
            reference.InsertBatch(ChunkAt(records, fed_chunks, sizes.chunk));
          }
          check(seq, reference);
        }
      },
      &result);
  result.Check(fed_chunks == num_chunks, "reference did not reach the end");
  result.Check(final_topk.has_value() &&
                   SameTopK(*final_topk, reference.TopK(kTopK)),
               "final TOPK differs from the sequential reference");
  {
    BinaryWriter served;
    sink.Serialize(served);
    BinaryWriter expected;
    reference.Serialize(expected);
    result.Check(served.data() == expected.data(),
                 "pipeline table differs from the sequential reference");
    result.counts["core.payload_bytes"] =
        static_cast<double>(expected.data().size());
  }
  if (final_topk.has_value()) ScoreTopK(*final_topk, truth, config, &result);

  // --- exact counts.
  uint64_t drained = 0, batches = 0, max_drained = 0, dropped = 0, shed = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    const IngestShardStats st = pipeline.ShardStatsOf(s);
    drained += st.drained;
    batches += st.batches;
    max_drained = std::max(max_drained, st.drained);
    dropped += st.dropped;
    shed += st.shed;
  }
  result.Check(dropped == 0 && shed == 0, "pipeline dropped or shed records");
  result.counts["core.case1_ratio"] = CaseOneRatio(sinks, records.size());
  result.counts["ingest.records_per_batch"] =
      batches == 0 ? 0.0 : static_cast<double>(drained) / batches;
  result.counts["ingest.shard_skew"] =
      drained == 0 ? 0.0
                   : static_cast<double>(max_drained) * kShards / drained;
  result.counts["ingest.dropped"] = static_cast<double>(dropped);
  result.counts["ingest.shed"] = static_cast<double>(shed);
  result.counts["ingest.checkpoints"] =
      static_cast<double>(pipeline.CheckpointsTaken());
  result.counts["hub.publishes"] = static_cast<double>(hub.PublishedSeq());
  result.counts["hub.skipped_publishes"] =
      static_cast<double>(hub.SkippedPublishes());
  result.counts["server.requests"] =
      static_cast<double>(query_server.TotalRequests());
  result.counts["server.errors"] =
      static_cast<double>(query_server.TotalErrors());
  result.counts["snapshot.save_bytes"] =
      pipeline.CheckpointsTaken() == 0
          ? 0.0
          : static_cast<double>(fs.counts().bytes_written) /
                static_cast<double>(pipeline.CheckpointsTaken());
  PutFsCounts(fs, &result);
  return result;
}

// ---------------------------------------------------------------------
// serve_agg: the read path — four nodes push to an aggregator that
// serves two closed-loop clients.

struct ServeAggSizes {
  size_t records;
  size_t chunk;  // every chunk, each node pushes its image
};

ServeAggSizes SizeServeAgg(double scale) {
  ServeAggSizes s;
  s.records = Scaled(500'000, scale, 20'000);
  s.chunk = ChunkOf(s.records, 61);
  return s;
}

LtcConfig ServeAggConfig(size_t records) {
  LtcConfig config;
  config.memory_bytes = 128 * 1024;
  config.items_per_period = std::max<size_t>(1, records / 4 / 500);
  return config;
}

RoundResult RunServeAgg(const RunOptions& options, bool traced, int round) {
  RoundResult result;
  result.traced = traced;
  const ServeAggSizes sizes = SizeServeAgg(options.scale);
  const LtcConfig config = ServeAggConfig(sizes.records);
  constexpr uint32_t kNodes = 4;
  constexpr int kClients = 2;

  const auto setup_start = SteadyClock::now();
  const Stream stream = MakeZipfStream(sizes.records, sizes.records / 8, 1.0,
                                       500, options.seed);
  const GroundTruth truth = GroundTruth::Compute(stream);
  std::vector<Ltc> nodes;
  std::vector<LtcMetricsSink> sinks(kNodes);
  for (uint32_t n = 0; n < kNodes; ++n) {
    nodes.emplace_back(config);
    nodes[n].AttachMetricsSink(&sinks[n]);
  }
  ReadSnapshotHub hub;
  server::AggregatorCore aggregator(config, &hub);
  server::NumericKeyCodec codec;
  server::QueryServerConfig server_config;
  server_config.max_push_frame_bytes = server::kMaxPushFrameBytes;
  server::QueryServer query_server(hub, codec, 0, server_config);
  query_server.AttachAggregator(&aggregator);
  std::string error;
  if (!query_server.Start(&error)) {
    result.Check(false, "server start: " + error);
    return result;
  }
  // All four pushers share one connection (they run on this thread).
  server::TcpPushTransport transport;
  std::vector<std::unique_ptr<server::SketchPusher>> pushers;
  for (uint32_t n = 0; n < kNodes; ++n) {
    server::SketchPusherConfig push_config;
    push_config.port = query_server.port();
    push_config.node_id = n + 1;
    push_config.propagate_trace = true;
    pushers.push_back(
        std::make_unique<server::SketchPusher>(push_config, &transport));
  }
  result.setup_s = SecondsSince(setup_start);

  RoundTrace trace(traced);
  const std::span<const Record> records(stream.records());
  const size_t num_chunks = (records.size() + sizes.chunk - 1) / sizes.chunk;

  // --- two closed-loop clients: 90% ESTIMATE on stream-drawn keys
  // (the stream's own Zipf law, so hot keys recur), 10% TOPK(100).
  std::atomic<bool> stop_clients{false};
  struct ClientLog {
    std::vector<ServedAnswer> answers;
    std::vector<double> estimate_us;
    std::vector<double> topk_us;
    uint64_t failures = 0;
    double window_s = 0.0;
  };
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      ClientLog& log = logs[static_cast<size_t>(i)];
      LtcqClient conn;
      if (!conn.Connect(query_server.port())) {
        log.failures++;
        return;
      }
      Rng rng(options.seed * 104729 + static_cast<uint64_t>(i) + 1);
      while (hub.PublishedSeq() == 0 &&
             !stop_clients.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
      }
      const auto start = SteadyClock::now();
      while (!stop_clients.load(std::memory_order_relaxed)) {
        ServedAnswer answer;
        answer.topk = rng.Uniform(10) == 0;
        if (!answer.topk) {
          answer.key = records[rng.Uniform(records.size())].item;
        }
        answer.lo_seq = hub.PublishedSeq();
        const auto sent = SteadyClock::now();
        std::optional<std::string> response;
        if (answer.topk) {
          telemetry::Span span("client.TopK");
          response = conn.Call(server::EncodeTopKRequest(kTopK));
        } else {
          telemetry::Span span("client.Estimate");
          response = conn.Call(server::EncodeEstimateRequest(
              Opcode::kEstimateSignificance, std::to_string(answer.key)));
        }
        const double rtt_us = MicrosBetween(sent, SteadyClock::now());
        answer.hi_seq = hub.PublishedSeq();
        bool ok = false;
        if (answer.topk) {
          auto entries = ExpectTopK(response);
          ok = entries.has_value();
          if (ok) answer.entries = std::move(*entries);
        } else {
          answer.significance = ExpectSignificance(response, &ok);
        }
        if (!ok) {
          log.failures++;
          continue;
        }
        (answer.topk ? log.topk_us : log.estimate_us).push_back(rtt_us);
        log.answers.push_back(std::move(answer));
      }
      log.window_s = SecondsSince(start);
    });
  }

  // --- the measured feed loop: route, insert, then every node pushes.
  std::vector<std::vector<Record>> runs(kNodes);
  std::vector<uint64_t> node_records(kNodes, 0);
  std::vector<uint64_t> push_of_seq(1, 0);  // seq -> pushes applied
  uint64_t pushes = 0, duplicates = 0;
  const auto feed_start = SteadyClock::now();
  std::optional<telemetry::Span> feed_span(std::in_place, "bench.feed");
  for (size_t c = 0; c < num_chunks; ++c) {
    const auto chunk_start = SteadyClock::now();
    const std::span<const Record> chunk = ChunkAt(records, c, sizes.chunk);
    for (auto& run : runs) run.clear();
    for (const Record& record : chunk) {
      runs[PartitionOf(record.item, kNodes)].push_back(record);
    }
    for (uint32_t n = 0; n < kNodes; ++n) {
      telemetry::Span span("core.InsertBatch");
      nodes[n].InsertBatch(runs[n]);
      node_records[n] += runs[n].size();
    }
    for (uint32_t n = 0; n < kNodes; ++n) {
      std::optional<Ltc> image;
      {
        telemetry::Span span("core.CloneFinalize");
        image.emplace(nodes[n].CloneAtBarrier());
        image->Finalize();
      }
      server::SketchPusher::Result pushed;
      {
        telemetry::Span span("push.Push");
        pushed = pushers[n]->Push(*image, c + 1, node_records[n]);
      }
      const auto acked = SteadyClock::now();
      // This node's share of the chunk is queryable once its push is
      // acknowledged (the aggregator merged and republished it).
      result.commit_ms.push_back(MicrosBetween(chunk_start, acked) / 1e3);
      result.Check(pushed.delivered && !pushed.terminal,
                   "push rejected or undelivered: " + pushed.error);
      if (pushed.delivered && !pushed.applied) duplicates++;
      pushes++;
      while (push_of_seq.size() <= hub.PublishedSeq()) {
        push_of_seq.push_back(pushes);
      }
    }
    result.chunk_mops.push_back(static_cast<double>(chunk.size()) /
                                MicrosBetween(chunk_start, SteadyClock::now()));
  }
  feed_span.reset();
  result.feed_s = SecondsSince(feed_start);
  result.records = records.size();

  stop_clients.store(true);
  for (auto& client : clients) client.join();

  std::optional<std::vector<server::TopKEntry>> final_topk;
  {
    LtcqClient conn;
    if (conn.Connect(query_server.port())) {
      final_topk = ExpectTopK(conn.Call(server::EncodeTopKRequest(kTopK)));
    }
  }
  transport.Close();
  query_server.Stop();
  trace.Finish(options.work_dir + "/trace_serve_agg_" +
                   std::to_string(round) + ".json",
               &result);

  std::vector<ServedAnswer> answers;
  double window_s = 0.0;
  for (ClientLog& log : logs) {
    for (auto& a : log.answers) answers.push_back(std::move(a));
    result.query_us.insert(result.query_us.end(), log.estimate_us.begin(),
                           log.estimate_us.end());
    result.topk_us.insert(result.topk_us.end(), log.topk_us.begin(),
                          log.topk_us.end());
    for (uint64_t i = 0; i < log.failures; ++i) {
      result.Check(false, "client request failed");
    }
    window_s = std::max(window_s, log.window_s);
  }
  result.query_window_s = window_s;

  // --- oracle: replay the nodes, fold their images in node-id order
  // after every push, and check the answers served at that sequence.
  std::vector<Ltc> replay;
  for (uint32_t n = 0; n < kNodes; ++n) replay.emplace_back(config);
  std::vector<std::optional<Ltc>> images(kNodes);
  auto fold = [&] {
    Ltc merged(config);
    for (const auto& image : images) {
      if (image.has_value() && !merged.MergeFrom(*image)) {
        result.Fail("reference fold: shape mismatch");
      }
    }
    return merged;
  };
  std::optional<Ltc> last_fold;
  CheckServedAnswers(
      answers,
      [&](const auto& check) {
        uint64_t applied = 0;
        uint64_t seq = 1;
        for (size_t c = 0; c < num_chunks; ++c) {
          for (auto& run : runs) run.clear();
          for (const Record& record : ChunkAt(records, c, sizes.chunk)) {
            runs[PartitionOf(record.item, kNodes)].push_back(record);
          }
          for (uint32_t n = 0; n < kNodes; ++n) replay[n].InsertBatch(runs[n]);
          for (uint32_t n = 0; n < kNodes; ++n) {
            images[n].emplace(replay[n].CloneAtBarrier());
            images[n]->Finalize();
            applied++;
            const bool published =
                seq < push_of_seq.size() && push_of_seq[seq] == applied;
            if (published || c + 1 == num_chunks) last_fold.emplace(fold());
            if (published) check(seq++, *last_fold);
          }
        }
      },
      &result);
  result.Check(last_fold.has_value() &&
                   aggregator.SerializeMerged() == Serialized(*last_fold),
               "aggregate differs from the in-process MergeFrom fold");
  result.Check(final_topk.has_value() && last_fold.has_value() &&
                   SameTopK(*final_topk, last_fold->TopK(kTopK)),
               "final TOPK differs from the reference fold");
  if (final_topk.has_value()) ScoreTopK(*final_topk, truth, config, &result);

  const double payload =
      images[0].has_value() ? static_cast<double>(Serialized(*images[0]).size())
                            : 0.0;
  uint64_t attempts = 0, retries = 0;
  for (const auto& pusher : pushers) {
    attempts += pusher->attempts();
    retries += pusher->retries();
  }
  result.counts["core.case1_ratio"] = CaseOneRatio(sinks, records.size());
  result.counts["core.payload_bytes"] = payload;
  result.counts["push.pushes"] = static_cast<double>(pushes);
  result.counts["push.attempts"] = static_cast<double>(attempts);
  result.counts["push.retries"] = static_cast<double>(retries);
  result.counts["push.bytes"] = payload * static_cast<double>(pushes);
  result.counts["agg.merges"] = static_cast<double>(aggregator.merges_total());
  result.counts["agg.duplicates"] = static_cast<double>(duplicates);
  result.counts["hub.publishes"] = static_cast<double>(hub.PublishedSeq());
  result.counts["hub.skipped_publishes"] =
      static_cast<double>(hub.SkippedPublishes());
  result.counts["server.requests"] =
      static_cast<double>(query_server.TotalRequests());
  result.counts["server.errors"] =
      static_cast<double>(query_server.TotalErrors());
  return result;
}

// ---------------------------------------------------------------------
// tenants_keyspace: the durability path — 64 tenants behind a paged
// store with a WAL, checkpoints, dirty evictions and crash cycles.

struct TenantsSizes {
  size_t records;
  size_t chunk;
  size_t checkpoint_every_chunks;
  size_t crash_every_chunks;  // a crash lands mid-interval, see below
  size_t pool_budget_bytes;
};

TenantsSizes SizeTenants(double scale) {
  TenantsSizes s;
  s.records = Scaled(200'000, scale, 20'000);
  s.chunk = ChunkOf(s.records, 25);
  s.checkpoint_every_chunks = 6;
  s.crash_every_chunks = 12;
  s.pool_budget_bytes = 256 * 4096;
  return s;
}

LtcConfig TenantConfig(size_t records, uint64_t tenants) {
  LtcConfig config;
  config.memory_bytes = 8 * 1024;
  config.items_per_period = std::max<size_t>(1, records / tenants / 100);
  return config;
}

RoundResult RunTenants(const RunOptions& options, bool traced, int round) {
  RoundResult result;
  result.traced = traced;
  const TenantsSizes sizes = SizeTenants(options.scale);
  constexpr uint64_t kTenants = 64;
  const LtcConfig config = TenantConfig(sizes.records, kTenants);

  const auto setup_start = SteadyClock::now();
  WorkloadConfig workload;
  workload.num_records = sizes.records;
  workload.num_distinct = sizes.records;
  workload.zipf_gamma = 0.6;
  workload.num_periods = 100;
  workload.seed = options.seed;
  const Stream stream = GenerateWorkload(workload);
  const GroundTruth truth = GroundTruth::Compute(stream);
  const RoundDir round_dir(options, "tenants_keyspace");
  const std::string& dir = round_dir.path();
  CountingFs fs(SystemFs());
  store::SketchStoreOptions store_options;
  store_options.mem_budget_bytes = sizes.pool_budget_bytes;
  std::string error;
  std::unique_ptr<store::SketchStore> store =
      store::SketchStore::Open(fs, dir, store_options, &error);
  if (store == nullptr) {
    result.Check(false, "store open: " + error);
    return result;
  }
  std::vector<Ltc> tables;
  std::vector<LtcMetricsSink> sinks(kTenants);
  for (uint64_t t = 0; t < kTenants; ++t) {
    tables.emplace_back(config);
    tables[t].AttachMetricsSink(&sinks[t]);
  }
  result.setup_s = SecondsSince(setup_start);

  RoundTrace trace(traced);
  const std::span<const Record> records(stream.records());
  const size_t num_chunks = (records.size() + sizes.chunk - 1) / sizes.chunk;

  // Store counters accumulate across the store instances a crash
  // cycle replaces.
  store::SketchStore::Stats store_totals;
  store::BufferPool::Stats pool_totals;
  uint64_t recovery_records = 0, recovery_deltas = 0;
  uint64_t checkpoint_pages = 0, checkpoints = 0;
  auto absorb = [&](const store::SketchStore& s) {
    store_totals.puts += s.stats().puts;
    store_totals.wal_bytes += s.stats().wal_bytes;
    store_totals.clean_puts += s.stats().clean_puts;
    const store::BufferPool::Stats& p = s.pool().stats();
    pool_totals.hits += p.hits;
    pool_totals.misses += p.misses;
    pool_totals.pages_loaded += p.pages_loaded;
    pool_totals.evictions_clean += p.evictions_clean;
    pool_totals.evictions_dirty += p.evictions_dirty;
  };
  auto get_all = [&](store::SketchStore& s, const char* what) {
    std::vector<std::optional<Ltc>> got;
    got.reserve(kTenants);
    for (uint64_t t = 0; t < kTenants; ++t) {
      telemetry::Span span("store.Get");
      got.push_back(s.Get(t, &error));
      if (!got.back().has_value()) {
        result.Check(false, std::string(what) + " get: " + error);
      }
    }
    return got;
  };

  std::vector<std::vector<Record>> runs(kTenants);
  // Tenants' chunks arrive in a seeded order per chunk: a fixed
  // round-robin would be the one access pattern a CLOCK pool larger
  // than half the working set still misses on every fetch.
  std::vector<uint64_t> order(kTenants);
  for (uint64_t t = 0; t < kTenants; ++t) order[t] = t;
  Rng order_rng(options.seed * 6007 + 3);
  double verify_s = 0.0;
  const auto feed_start = SteadyClock::now();
  std::optional<telemetry::Span> feed_span(std::in_place, "bench.feed");
  for (size_t c = 0; c < num_chunks; ++c) {
    const auto chunk_start = SteadyClock::now();
    const double verify_before_s = verify_s;
    const std::span<const Record> chunk = ChunkAt(records, c, sizes.chunk);
    for (auto& run : runs) run.clear();
    for (const Record& record : chunk) {
      runs[PartitionOf(record.item, kTenants)].push_back(record);
    }
    std::shuffle(order.begin(), order.end(), order_rng);
    for (const uint64_t t : order) {
      if (runs[t].empty()) continue;
      {
        telemetry::Span span("core.InsertBatch");
        tables[t].InsertBatch(runs[t]);
      }
      bool ok = false;
      {
        telemetry::Span span("store.Put");
        ok = store->Put(t, tables[t], &error);
      }
      result.Check(ok, "put: " + error);
      // This tenant's share of the chunk is WAL-durable now.
      result.commit_ms.push_back(
          MicrosBetween(chunk_start, SteadyClock::now()) / 1e3);
    }
    if ((c + 1) % sizes.checkpoint_every_chunks == 0) {
      const uint64_t stored_before = store->pool().stats().pages_stored;
      const auto ckpt_start = SteadyClock::now();
      bool ok = false;
      {
        telemetry::Span span("store.CheckpointDirty");
        ok = store->CheckpointDirty(&error);
      }
      result.checkpoint_ms.push_back(
          MicrosBetween(ckpt_start, SteadyClock::now()) / 1e3);
      result.Check(ok, "checkpoint: " + error);
      checkpoint_pages += store->pool().stats().pages_stored - stored_before;
      checkpoints++;
    }
    // Crash half-way through a checkpoint interval: drop the store with
    // un-checkpointed Puts in its WAL, reopen (recovery) and read every
    // tenant back.
    if ((c + 1) % sizes.crash_every_chunks ==
        sizes.crash_every_chunks - sizes.checkpoint_every_chunks / 2) {
      absorb(*store);
      store.reset();
      const auto recover_start = SteadyClock::now();
      {
        telemetry::Span span("store.Open");
        store = store::SketchStore::Open(fs, dir, store_options, &error);
      }
      if (store == nullptr) {
        result.Check(false, "recovery open: " + error);
        return result;
      }
      const std::vector<std::optional<Ltc>> got = get_all(*store, "recovery");
      result.recovery_ms.push_back(
          MicrosBetween(recover_start, SteadyClock::now()) / 1e3);
      recovery_records += store->recovery().records;
      recovery_deltas += store->recovery().deltas_applied;
      // The byte-for-byte check is the benchmark's own work: excluded
      // from the feed time (and a child span, so not unattributed).
      const auto verify_start = SteadyClock::now();
      {
        telemetry::Span span("bench.Verify");
        for (uint64_t t = 0; t < kTenants; ++t) {
          result.Check(got[t].has_value() &&
                           Serialized(*got[t]) == Serialized(tables[t]),
                       "recovered tenant differs from the in-memory table");
        }
      }
      verify_s += SecondsSince(verify_start);
    }
    result.chunk_mops.push_back(
        static_cast<double>(chunk.size()) /
        (MicrosBetween(chunk_start, SteadyClock::now()) -
         (verify_s - verify_before_s) * 1e6));
  }
  feed_span.reset();
  result.feed_s = SecondsSince(feed_start) - verify_s;
  result.records = records.size();

  // The answer path for quality: every tenant read back from the store,
  // the global top-k taken over the union of per-tenant top-k.
  const std::vector<std::optional<Ltc>> final_tables =
      get_all(*store, "final");
  std::vector<server::TopKEntry> union_topk;
  for (uint64_t t = 0; t < kTenants; ++t) {
    result.Check(final_tables[t].has_value() &&
                     Serialized(*final_tables[t]) == Serialized(tables[t]),
                 "stored tenant differs from the in-memory table");
    if (!final_tables[t].has_value()) continue;
    for (const SignificanceReport& r : final_tables[t]->TopK(kTopK)) {
      union_topk.push_back({std::to_string(r.item), r.frequency,
                            r.persistency, r.significance});
    }
  }
  std::sort(union_topk.begin(), union_topk.end(),
            [](const server::TopKEntry& a, const server::TopKEntry& b) {
              return a.significance > b.significance;
            });
  if (union_topk.size() > kTopK) union_topk.resize(kTopK);
  ScoreTopK(union_topk, truth, config, &result);
  uint64_t pages = 0;
  for (uint64_t t = 0; t < kTenants; ++t) pages += store->PageCountOf(t);
  result.counts["store.pages"] = static_cast<double>(pages);
  absorb(*store);
  store.reset();
  trace.Finish(options.work_dir + "/trace_tenants_keyspace_" +
                   std::to_string(round) + ".json",
               &result);

  const uint64_t lookups = pool_totals.hits + pool_totals.misses;
  result.counts["core.case1_ratio"] = CaseOneRatio(sinks, records.size());
  result.counts["core.payload_bytes"] =
      static_cast<double>(Serialized(tables[0]).size());
  result.counts["store.puts"] = static_cast<double>(store_totals.puts);
  result.counts["store.wal_bytes"] =
      static_cast<double>(store_totals.wal_bytes);
  result.counts["store.clean_puts"] =
      static_cast<double>(store_totals.clean_puts);
  result.counts["store.dirty_pages_per_checkpoint"] =
      checkpoints == 0 ? 0.0
                       : static_cast<double>(checkpoint_pages) / checkpoints;
  result.counts["pool.hit_ratio"] =
      lookups == 0 ? 0.0 : static_cast<double>(pool_totals.hits) / lookups;
  result.counts["pool.evictions_clean"] =
      static_cast<double>(pool_totals.evictions_clean);
  result.counts["pool.evictions_dirty"] =
      static_cast<double>(pool_totals.evictions_dirty);
  result.counts["pool.pages_loaded"] =
      static_cast<double>(pool_totals.pages_loaded);
  result.counts["recovery.records"] = static_cast<double>(recovery_records);
  result.counts["recovery.deltas_applied"] =
      static_cast<double>(recovery_deltas);
  PutFsCounts(fs, &result);
  return result;
}

// ---------------------------------------------------------------------
// Aggregation across rounds and JSON output.

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(values[i]);
  }
  return out + "]";
}

double Median(std::vector<double> values) {
  if (values.empty()) return NAN;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return NAN;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

class MetricWriter {
 public:
  // A per-round scalar: the run's value is the median across rounds.
  void Scalar(const std::string& name, const char* unit,
              const std::vector<double>& per_round) {
    Add(name, unit, Median(per_round), per_round.size(), true, per_round);
  }

  // Samples pooled across rounds; also reports each round's own
  // percentile for the spread. `tail_ok` is false when fewer than ten
  // samples lie beyond the percentile.
  void Pooled(const std::string& name, const char* unit, double p,
              const std::vector<std::vector<double>>& rounds) {
    std::vector<double> pooled;
    std::vector<double> per_round;
    for (const auto& r : rounds) {
      pooled.insert(pooled.end(), r.begin(), r.end());
      if (!r.empty()) per_round.push_back(Percentile(r, p));
    }
    const bool enough =
        !pooled.empty() &&
        static_cast<double>(pooled.size()) * (1.0 - p) >= 10.0 - 1e-9;
    Add(name, unit, Percentile(pooled, p), pooled.size(), enough, per_round);
  }

  std::string Json() const { return "{" + body_ + "}"; }

 private:
  void Add(const std::string& name, const char* unit, double value, size_t n,
           bool enough, const std::vector<double>& per_round) {
    if (!body_.empty()) body_ += ",";
    body_ += Quoted(name) + ":{\"value\":" + Num(value) +
             ",\"unit\":" + Quoted(unit) + ",\"n\":" + std::to_string(n) +
             ",\"enough_samples\":" + (enough ? "true" : "false") +
             ",\"per_round\":" + NumList(per_round) + "}";
  }
  std::string body_;
};

const char* FsTypeName(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: return "other";
  }
}

int Run(const RunOptions& options) {
  using RoundFn = RoundResult (*)(const RunOptions&, bool, int);
  RoundFn fn = nullptr;
  if (options.workload == "ingest_zipf") fn = RunIngestZipf;
  if (options.workload == "serve_agg") fn = RunServeAgg;
  if (options.workload == "tenants_keyspace") fn = RunTenants;
  if (fn == nullptr) {
    std::fprintf(stderr, "ltc_e2e: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);

  // Round 0 warms caches and lazy set-up and is not reported. A traced
  // run alternates untraced and traced rounds after it, so the tracing
  // overhead compares like with like.
  const int min_rounds = options.trace ? 5 : 4;
  const auto run_start = SteadyClock::now();
  std::vector<RoundResult> rounds;
  for (int r = 0;; ++r) {
    const bool traced = options.trace && r > 0 && r % 2 == 1;
    rounds.push_back(fn(options, traced, r));
    if (rounds.back().failed > 0 && rounds.back().records == 0) break;
    if (r + 1 >= min_rounds && SecondsSince(run_start) >= options.seconds) {
      break;
    }
  }

  std::vector<const RoundResult*> timed, traced;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (size_t i = 0; i < rounds.size(); ++i) {
    attempted += rounds[i].attempted;
    failed += rounds[i].failed;
    for (const auto& e : rounds[i].errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
    if (i == 0) continue;
    (rounds[i].traced ? traced : timed).push_back(&rounds[i]);
  }

  // Exact counts must repeat round for round: the inputs are identical.
  static const char* const kExactCounts[] = {
      "fs.syncs", "fs.bytes_written", "fs.files_written", "store.wal_bytes",
      "pool.pages_loaded", "pool.evictions_clean", "pool.evictions_dirty",
      "core.case1_ratio", "core.payload_bytes", "agg.merges"};
  for (size_t i = 1; i < rounds.size(); ++i) {
    for (const char* name : kExactCounts) {
      const auto a = rounds[0].counts.find(name);
      const auto b = rounds[i].counts.find(name);
      if (a == rounds[0].counts.end() || b == rounds[i].counts.end()) continue;
      attempted++;
      if (a->second != b->second) {
        failed++;
        if (errors.size() < 8) {
          errors.push_back(std::string("exact count ") + name +
                           " changed between rounds");
        }
      }
    }
    attempted++;
    if (rounds[i].topk_precision != rounds[0].topk_precision) {
      failed++;
      if (errors.size() < 8) errors.push_back("topk_precision changed");
    }
  }

  auto scalar = [&](auto get) {
    std::vector<double> out;
    for (const RoundResult* r : timed) out.push_back(get(*r));
    return out;
  };
  auto samples = [&](auto get) {
    std::vector<std::vector<double>> out;
    for (const RoundResult* r : timed) out.push_back(get(*r));
    return out;
  };
  MetricWriter m;
  m.Scalar("setup_s", "s", scalar([](const RoundResult& r) {
             return r.setup_s;
           }));
  m.Pooled("ingest_mops", "Mrec/s", 0.50,
           samples([](const RoundResult& r) { return r.chunk_mops; }));
  const auto commit = samples([](const RoundResult& r) { return r.commit_ms; });
  m.Pooled("commit_p50_ms", "ms", 0.50, commit);
  m.Pooled("commit_p95_ms", "ms", 0.95, commit);
  const auto query = samples([](const RoundResult& r) { return r.query_us; });
  m.Scalar("query_qps", "1/s", scalar([](const RoundResult& r) {
             return r.query_window_s > 0
                        ? static_cast<double>(r.query_us.size()) /
                              r.query_window_s
                        : NAN;
           }));
  m.Pooled("query_p50_us", "us", 0.50, query);
  m.Pooled("query_p99_us", "us", 0.99, query);
  const auto topk = samples([](const RoundResult& r) { return r.topk_us; });
  m.Pooled("topk_p50_us", "us", 0.50, topk);
  m.Pooled("topk_p99_us", "us", 0.99, topk);
  const auto ckpt =
      samples([](const RoundResult& r) { return r.checkpoint_ms; });
  m.Pooled("checkpoint_p50_ms", "ms", 0.50, ckpt);
  m.Pooled("checkpoint_p95_ms", "ms", 0.95, ckpt);
  m.Pooled("recovery_p50_ms", "ms", 0.50,
           samples([](const RoundResult& r) { return r.recovery_ms; }));
  m.Scalar("durable_bytes_per_krec", "B/krec", scalar([](const RoundResult& r) {
             const auto it = r.counts.find("fs.bytes_written");
             const double bytes = it == r.counts.end() ? 0.0 : it->second;
             return bytes * 1000.0 / static_cast<double>(r.records);
           }));
  m.Scalar("topk_precision", "ratio", scalar([](const RoundResult& r) {
             return r.topk_precision;
           }));
  m.Scalar("topk_are", "ratio", scalar([](const RoundResult& r) {
             return r.topk_are;
           }));
  m.Scalar("failed_ops_ratio", "ratio",
           {attempted == 0 ? 1.0
                           : static_cast<double>(failed) /
                                 static_cast<double>(attempted)});
  m.Pooled("query.gen_late_p99_us", "us", 0.99,
           samples([](const RoundResult& r) { return r.gen_late_us; }));

  // Per-round exact counts (from the last timed round; they repeat).
  std::string counts = "{";
  if (!timed.empty()) {
    bool first = true;
    for (const auto& [name, value] : timed.back()->counts) {
      if (!first) counts += ",";
      first = false;
      counts += Quoted(name) + ":" + Num(value);
    }
  }
  counts += "}";

  // Traced rounds: the dump files plus the untraced/traced rate pairs.
  std::string trace_rounds = "[";
  for (size_t i = 0; i < traced.size(); ++i) {
    const RoundResult& r = *traced[i];
    if (i > 0) trace_rounds += ",";
    trace_rounds += "{\"file\":" + Quoted(r.trace_file) +
                    ",\"feed_us\":" + Num(r.feed_s * 1e6) +
                    ",\"records\":" + std::to_string(r.records) +
                    ",\"mops\":" + Num(Median(r.chunk_mops)) + "}";
  }
  trace_rounds += "]";

  std::string error_list = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) error_list += ",";
    error_list += Quoted(errors[i]);
  }
  error_list += "]";

  std::printf(
      "{\"workload\":%s,\"seed\":%" PRIu64 ",\"trace\":%d,\"rounds\":%zu,"
      "\"timed_rounds\":%zu,\"traced_rounds\":%zu,\"wall_s\":%s,"
      "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"errors\":%s,"
      "\"metrics\":%s,\"counts\":%s,\"trace_rounds\":%s,"
      "\"spans_per_thread\":%zu,\"host\":{\"nproc\":%u,\"store_fs\":%s}}\n",
      Quoted(options.workload).c_str(), options.seed, options.trace ? 1 : 0,
      rounds.size(), timed.size(), traced.size(),
      Num(SecondsSince(run_start)).c_str(), attempted, failed,
      error_list.c_str(), m.Json().c_str(), counts.c_str(),
      trace_rounds.c_str(), kSpansPerThread,
      std::thread::hardware_concurrency(),
      Quoted(FsTypeName(options.work_dir)).c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ltc_e2e --workload ingest_zipf|serve_agg|"
               "tenants_keyspace --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--scale F]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench
}  // namespace ltc

int main(int argc, char** argv) {
  ltc::perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--scale") {
        options.scale = std::stod(value);
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        return ltc::perfbench::Usage();
      }
    } catch (const std::exception&) {
      return ltc::perfbench::Usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.work_dir.empty() ||
      options.scale <= 0.0) {
    return ltc::perfbench::Usage();
  }
  try {
    return ltc::perfbench::Run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ltc_e2e: %s\n", e.what());
    return 1;
  }
}
