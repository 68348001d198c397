// Network-chaos battery for the aggregation tier (ctest label
// `netchaos`, run under asan by the aggregation CI job and under tsan
// by the tsan job): real sockets, a live aggregator-mode QueryServer,
// and N pusher threads hammered by seeded transport faults — refused
// connects, dropped and torn sends, injected latency, and the
// duplicate-forcing lost ack — while a chaos thread keeps arming new
// bursts mid-flight.
//
// The convergence claim under test is the tier's contract
// (docs/SERVING.md "Aggregation tier"): whatever the storm did to
// delivery — retries, duplicates, reorderings, torn frames, pusher
// "crashes" and restarts — once every node's final image lands, the
// aggregate is BIT-IDENTICAL to a sequential fold of those images.
// Not approximately right: identical bytes.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serial.h"
#include "core/ltc.h"
#include "core/read_snapshot.h"
#include "server/aggregator.h"
#include "server/key_codec.h"
#include "server/protocol.h"
#include "server/push_client.h"
#include "server/query_server.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "testing/chaos_injector.h"
#include "testing/faulty_transport.h"

namespace ltc {
namespace server {
namespace {

LtcConfig ChaosConfigLtc() {
  LtcConfig config;
  config.memory_bytes = 8 * 1024;
  config.period_mode = PeriodMode::kCountBased;
  config.items_per_period = 200;
  return config;
}

/// Node `node`'s deterministic item stream — each node skews toward its
/// own heavy hitters so the merged top-k genuinely mixes nodes.
std::vector<ItemId> NodeStream(uint64_t node, size_t n) {
  Rng rng(node * 77 + 13);
  std::vector<ItemId> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    items.push_back(rng.Bernoulli(0.3) ? node * 10 + rng.Uniform(3)
                                       : 1000 + rng.Uniform(400));
  }
  return items;
}

/// The node's finalized cumulative image after `prefix` records — what
/// a pusher ships at that barrier.
Ltc ImageAt(const LtcConfig& config, const std::vector<ItemId>& stream,
            size_t prefix) {
  Ltc table(config);
  for (size_t i = 0; i < prefix; ++i) table.Insert(stream[i]);
  table.Finalize();
  return table;
}

/// Minimal blocking query client (the ltc_query idiom, trimmed).
class QueryClient {
 public:
  explicit QueryClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~QueryClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  std::optional<DecodedResponse> RoundTrip(Opcode opcode,
                                           const std::string& request) {
    std::string wire = EncodeFrame(request);
    size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return std::nullopt;
      off += static_cast<size_t>(n);
    }
    while (true) {
      if (auto payload = parser_.Next()) {
        return DecodeResponse(opcode, *payload);
      }
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      parser_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameParser parser_;
};

/// An aggregator-mode server on an ephemeral port.
struct AggregatorServer {
  explicit AggregatorServer(const LtcConfig& config,
                            uint64_t stale_after_sec = 60)
      : aggregator(config, &hub, stale_after_sec) {
    hub.Publish(std::make_unique<Ltc>(config), 0);
    QueryServerConfig server_config;
    server_config.port = 0;
    server_config.max_push_frame_bytes = kMaxPushFrameBytes;
    server.emplace(hub, codec, 0, server_config);
    server->AttachAggregator(&aggregator);
  }

  ReadSnapshotHub hub;
  NumericKeyCodec codec;
  AggregatorCore aggregator;
  std::optional<QueryServer> server;
};

TEST(AggregationChaos, FaultStormOfPushersConvergesBitIdentically) {
  const LtcConfig config = ChaosConfigLtc();
  constexpr uint64_t kNodes = 4;
  constexpr size_t kEpochs = 6;
  constexpr size_t kRecordsPerEpoch = 400;

  telemetry::MetricsRegistry registry;
  AggregatorServer agg(config);
  std::string error;
  ASSERT_TRUE(agg.server->Start(&error)) << error;
  const uint16_t port = agg.server->port();

  // Pre-build every node's cumulative images; the final ones double as
  // the oracle inputs.
  std::vector<std::vector<ItemId>> streams;
  std::vector<std::vector<Ltc>> images;  // [node][epoch-1]
  for (uint64_t node = 0; node < kNodes; ++node) {
    streams.push_back(NodeStream(node + 1, kEpochs * kRecordsPerEpoch));
    std::vector<Ltc> node_images;
    for (size_t e = 1; e <= kEpochs; ++e) {
      node_images.push_back(
          ImageAt(config, streams.back(), e * kRecordsPerEpoch));
    }
    images.push_back(std::move(node_images));
  }

  // One faulty transport per node, all fed fresh bursts by the chaos
  // thread while background probabilities keep a lossy-network hum.
  std::vector<std::unique_ptr<TcpPushTransport>> tcp;
  std::vector<std::unique_ptr<FaultyTransport>> faulty;
  for (uint64_t node = 0; node < kNodes; ++node) {
    FaultyTransportConfig fault_config;
    fault_config.refuse_probability = 0.05;
    fault_config.drop_send_probability = 0.05;
    fault_config.short_write_probability = 0.05;
    fault_config.delay_probability = 0.10;
    fault_config.drop_ack_probability = 0.05;
    fault_config.delay_usec = 500;
    fault_config.seed = 900 + node;
    tcp.push_back(std::make_unique<TcpPushTransport>());
    faulty.push_back(
        std::make_unique<FaultyTransport>(tcp.back().get(), fault_config));
  }

  ChaosConfig chaos_config;
  chaos_config.seed = 4242;
  chaos_config.transport_fault_probability = 0.3;
  chaos_config.max_transport_burst = 2;
  ChaosInjector chaos(chaos_config);
  for (auto& transport : faulty) chaos.AttachTransport(transport.get());
  std::atomic<bool> storming{true};
  std::thread chaos_thread([&] {
    while (storming.load(std::memory_order_relaxed)) {
      chaos.Step();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  auto make_pusher_config = [&](uint64_t node) {
    SketchPusherConfig push_config;
    push_config.port = port;
    push_config.node_id = node + 1;
    push_config.io_deadline_usec = 2'000'000;
    push_config.retry.max_attempts = 12;
    push_config.retry.initial_delay_usec = 500;
    push_config.retry.max_delay_usec = 5'000;
    push_config.retry.seed = node + 1;
    return push_config;
  };

  std::atomic<uint64_t> total_delivered{0};
  std::atomic<uint64_t> total_retries{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> pushers;
  for (uint64_t node = 0; node < kNodes; ++node) {
    pushers.emplace_back([&, node] {
      auto pusher = std::make_unique<SketchPusher>(make_pusher_config(node),
                                                   faulty[node].get());
      for (size_t e = 1; e <= kEpochs; ++e) {
        // Mid-sequence "crash": the pusher process dies and restarts —
        // fresh connection, same node identity, epoch counter resumed.
        if (e == kEpochs / 2) {
          faulty[node]->Close();
          total_retries.fetch_add(pusher->retries());
          pusher = std::make_unique<SketchPusher>(make_pusher_config(node),
                                                  faulty[node].get());
        }
        // One guaranteed lost ack per node: the push applies, the ack
        // dies, and the retry MUST be deduplicated (a genuine
        // duplicate, not a race).
        if (e == 2) faulty[node]->Arm(TransportFault::kDropAck, 1);

        SketchPusher::Result result =
            pusher->Push(images[node][e - 1], e, e * kRecordsPerEpoch);
        if (result.terminal) {
          ADD_FAILURE() << "node " << node + 1 << " epoch " << e
                        << " terminally rejected: " << result.error;
          failed.store(true);
          return;
        }
        const bool final_epoch = e == kEpochs;
        // A mid-stream push may exhaust its retry budget under the
        // storm — the next cumulative image supersedes it. The FINAL
        // image must land, so re-push it until delivered.
        for (int tries = 0; final_epoch && !result.delivered && tries < 100;
             ++tries) {
          result = pusher->Push(images[node][e - 1], e, e * kRecordsPerEpoch);
          if (result.terminal) break;
        }
        if (final_epoch && !result.delivered) {
          ADD_FAILURE() << "node " << node + 1
                        << " could not deliver its final image: "
                        << result.error;
          failed.store(true);
          return;
        }
        if (result.delivered) total_delivered.fetch_add(1);
      }
      total_retries.fetch_add(pusher->retries());
    });
  }
  for (auto& t : pushers) t.join();
  storming.store(false);
  chaos_thread.join();
  ASSERT_FALSE(failed.load());

  // The served view answers from the merged aggregate while it is
  // still live.
  {
    QueryClient client(port);
    ASSERT_TRUE(client.connected());
    const auto stats = client.RoundTrip(Opcode::kStats, EncodeStatsRequest());
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->status, Status::kOk);
    ASSERT_EQ(stats->stats.nodes.size(), kNodes);
    for (uint64_t node = 0; node < kNodes; ++node) {
      EXPECT_EQ(stats->stats.nodes[node].node_id, node + 1);
      EXPECT_EQ(stats->stats.nodes[node].last_epoch, kEpochs);
    }
    const auto topk = client.RoundTrip(Opcode::kTopK, EncodeTopKRequest(5));
    ASSERT_TRUE(topk.has_value());
    EXPECT_EQ(topk->status, Status::kOk);
    EXPECT_EQ(topk->topk.size(), 5u);
  }
  agg.server->Stop();

  // THE claim: bit-identical to the sequential fold of the final
  // images, no matter what the storm did to delivery.
  Ltc oracle(config);
  uint64_t oracle_records = 0;
  for (uint64_t node = 0; node < kNodes; ++node) {
    ASSERT_TRUE(oracle.MergeFrom(images[node][kEpochs - 1]));
    oracle_records += kEpochs * kRecordsPerEpoch;
  }
  BinaryWriter oracle_bytes;
  oracle.Serialize(oracle_bytes);
  EXPECT_EQ(agg.aggregator.SerializeMerged(), oracle_bytes.data());
  EXPECT_EQ(agg.aggregator.total_records(), oracle_records);
  EXPECT_EQ(agg.aggregator.num_nodes(), kNodes);

  // The storm was real: every node took at least the armed lost ack,
  // so duplicates genuinely flowed.
  EXPECT_GT(chaos.transport_faults_armed(), 0u);
  uint64_t injected = 0;
  for (const auto& transport : faulty) {
    injected += transport->total_faults_injected();
  }
  EXPECT_GE(injected, kNodes);  // >= the armed kDropAck per node
  EXPECT_GE(agg.aggregator.merges_total(), kNodes);

  // The telemetry rows registered and counted.
  agg.aggregator.Collect(registry);
  agg.server->Collect(registry);
  const std::string exposition = telemetry::ExpositionText(registry);
  EXPECT_NE(exposition.find("ltc_agg_merges_total"), std::string::npos);
  EXPECT_NE(exposition.find("ltc_agg_pushes_duplicate_total"),
            std::string::npos);
  EXPECT_NE(exposition.find("ltc_agg_node_staleness_sec"), std::string::npos);
}

TEST(AggregationChaos, DeadPusherDegradesToStaleNotWedged) {
  const LtcConfig config = ChaosConfigLtc();
  AggregatorServer agg(config, /*stale_after_sec=*/1);
  std::string error;
  ASSERT_TRUE(agg.server->Start(&error)) << error;
  const uint16_t port = agg.server->port();

  // Node 1 pushes once, then dies forever.
  const auto stream = NodeStream(1, 500);
  {
    TcpPushTransport transport;
    SketchPusherConfig push_config;
    push_config.port = port;
    push_config.node_id = 1;
    SketchPusher pusher(push_config, &transport);
    const auto result = pusher.Push(ImageAt(config, stream, 500), 1, 500);
    ASSERT_TRUE(result.delivered);
    ASSERT_TRUE(result.applied);
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(2100));

  // The aggregator never wedges: queries still answer from the dead
  // node's last image, and STATS flags the row stale.
  QueryClient client(port);
  ASSERT_TRUE(client.connected());
  const auto stats = client.RoundTrip(Opcode::kStats, EncodeStatsRequest());
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(stats->stats.nodes.size(), 1u);
  EXPECT_EQ(stats->stats.nodes[0].node_id, 1u);
  EXPECT_GE(stats->stats.nodes[0].age_sec, 2u);
  EXPECT_EQ(stats->stats.nodes[0].stale, 1u);

  const auto topk = client.RoundTrip(Opcode::kTopK, EncodeTopKRequest(3));
  ASSERT_TRUE(topk.has_value());
  EXPECT_EQ(topk->status, Status::kOk);
  EXPECT_EQ(topk->topk.size(), 3u);

  // A second node joining later is merged on top of the stale image.
  TcpPushTransport transport;
  SketchPusherConfig push_config;
  push_config.port = port;
  push_config.node_id = 2;
  SketchPusher pusher(push_config, &transport);
  const auto second = pusher.Push(ImageAt(config, NodeStream(2, 300), 300),
                                  1, 300);
  EXPECT_TRUE(second.delivered);
  agg.server->Stop();
  EXPECT_EQ(agg.aggregator.num_nodes(), 2u);
  EXPECT_EQ(agg.aggregator.total_records(), 800u);
}

}  // namespace
}  // namespace server
}  // namespace ltc
