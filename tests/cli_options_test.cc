// Unit tests for the ltc_cli option parser.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli_options.h"

namespace ltc {
namespace {

std::optional<CliOptions> Parse(std::vector<std::string> args,
                                std::string* error = nullptr) {
  std::string local;
  return ParseCliOptions(args, error != nullptr ? error : &local);
}

TEST(CliOptions, DefaultsWithTraceOnly) {
  auto options = Parse({"trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->trace_path, "trace.csv");
  EXPECT_EQ(options->memory_bytes, 64u * 1024);
  EXPECT_DOUBLE_EQ(options->alpha, 1.0);
  EXPECT_DOUBLE_EQ(options->beta, 1.0);
  EXPECT_EQ(options->k, 10u);
  EXPECT_EQ(options->periods, 100u);
  EXPECT_TRUE(options->long_tail_replacement);
  EXPECT_TRUE(options->deviation_eliminator);
  EXPECT_FALSE(options->csv);
}

TEST(CliOptions, AllFlagsParsed) {
  auto options = Parse({"--memory", "2M", "--alpha", "0", "--beta", "1",
                        "--k", "50", "--periods", "500", "--duration",
                        "3600", "--d", "16", "--no-ltr", "--no-de", "--csv",
                        "--save", "ckpt.bin", "--load", "old.bin", "-"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->trace_path, "-");
  EXPECT_EQ(options->memory_bytes, 2u * 1024 * 1024);
  EXPECT_DOUBLE_EQ(options->alpha, 0.0);
  EXPECT_DOUBLE_EQ(options->beta, 1.0);
  EXPECT_EQ(options->k, 50u);
  EXPECT_EQ(options->periods, 500u);
  EXPECT_DOUBLE_EQ(options->duration, 3600.0);
  EXPECT_EQ(options->cells_per_bucket, 16u);
  EXPECT_FALSE(options->long_tail_replacement);
  EXPECT_FALSE(options->deviation_eliminator);
  EXPECT_TRUE(options->csv);
  EXPECT_EQ(options->save_path, "ckpt.bin");
  EXPECT_EQ(options->load_path, "old.bin");
}

TEST(CliOptions, ThreadsDefaultsToOne) {
  auto options = Parse({"trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->threads, 1u);
}

TEST(CliOptions, ThreadsParsed) {
  auto options = Parse({"--threads", "4", "trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->threads, 4u);
}

TEST(CliOptions, ThreadsRejections) {
  std::string error;
  EXPECT_FALSE(Parse({"--threads", "0", "t"}, &error).has_value());
  EXPECT_NE(error.find("--threads"), std::string::npos);
  EXPECT_FALSE(Parse({"--threads", "potato", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--threads", "1000", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--threads"}, &error).has_value());
}

TEST(CliOptions, ThreadsComposesWithSaveAndLoad) {
  auto options = Parse({"--threads", "4", "--save", "ck.bin", "--load",
                        "old.bin", "trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->threads, 4u);
  EXPECT_EQ(options->save_path, "ck.bin");
  EXPECT_EQ(options->load_path, "old.bin");
}

TEST(CliOptions, CheckpointEveryParsed) {
  auto options =
      Parse({"--save", "ck.bin", "--checkpoint-every", "5000", "trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->checkpoint_every, 5000u);
}

TEST(CliOptions, CheckpointEveryDefaultsOff) {
  auto options = Parse({"trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->checkpoint_every, 0u);
}

TEST(CliOptions, CheckpointEveryRejections) {
  std::string error;
  // Zero cadence and garbage are parse errors.
  EXPECT_FALSE(Parse({"--save", "c", "--checkpoint-every", "0", "t"}, &error)
                   .has_value());
  EXPECT_NE(error.find("--checkpoint-every"), std::string::npos);
  EXPECT_FALSE(
      Parse({"--save", "c", "--checkpoint-every", "potato", "t"}, &error)
          .has_value());
  // The rotation is anchored at the save path, so --save is required.
  EXPECT_FALSE(Parse({"--checkpoint-every", "100", "t"}, &error).has_value());
  EXPECT_NE(error.find("requires --save"), std::string::npos);
}

TEST(CliOptions, MetricsOutParsed) {
  auto options = Parse({"--metrics-out", "m.prom", "trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->metrics_out, "m.prom");
  EXPECT_EQ(options->stats_every, 0u);
}

TEST(CliOptions, MetricsOutDefaultsOff) {
  auto options = Parse({"trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_TRUE(options->metrics_out.empty());
  EXPECT_EQ(options->stats_every, 0u);
}

TEST(CliOptions, StatsEveryComposesWithMetricsOut) {
  auto options = Parse(
      {"--metrics-out", "m.json", "--stats-every", "5000", "trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->metrics_out, "m.json");
  EXPECT_EQ(options->stats_every, 5000u);
}

TEST(CliOptions, StatsEveryRejections) {
  std::string error;
  // Zero cadence and garbage are parse errors.
  EXPECT_FALSE(Parse({"--metrics-out", "m", "--stats-every", "0", "t"}, &error)
                   .has_value());
  EXPECT_NE(error.find("--stats-every"), std::string::npos);
  EXPECT_FALSE(
      Parse({"--metrics-out", "m", "--stats-every", "potato", "t"}, &error)
          .has_value());
  // The cadence writes the exposition file, so it needs a destination.
  EXPECT_FALSE(Parse({"--stats-every", "100", "t"}, &error).has_value());
  EXPECT_NE(error.find("requires --metrics-out"), std::string::npos);
  EXPECT_FALSE(Parse({"--metrics-out"}, &error).has_value());
}

TEST(CliOptions, ServeDefaultsOff) {
  auto options = Parse({"trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->serve_port, -1);
}

TEST(CliOptions, ServeParsesPortIncludingEphemeralZero) {
  auto options = Parse({"--serve", "8080", "trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->serve_port, 8080);

  options = Parse({"--serve", "0", "trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->serve_port, 0);

  options = Parse({"--serve", "65535", "trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->serve_port, 65535);
}

TEST(CliOptions, ServeRejections) {
  std::string error;
  EXPECT_FALSE(Parse({"--serve", "65536", "t"}, &error).has_value());
  EXPECT_NE(error.find("--serve"), std::string::npos);
  EXPECT_FALSE(Parse({"--serve", "-1", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--serve", "potato", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--serve", "80x", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--serve", "", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"t", "--serve"}, &error).has_value());
  EXPECT_NE(error.find("needs a value"), std::string::npos);
}

// The full --serve interaction matrix: serving composes with every
// other flag; the pre-existing dependency rules (--checkpoint-every
// needs --save, --stats-every needs --metrics-out) still hold with
// --serve in the mix and still fail with usage errors.
TEST(CliOptions, ServeFlagMatrix) {
  struct Case {
    std::vector<std::string> args;
    bool ok;
  };
  const Case cases[] = {
      {{"--serve", "0", "trace.csv"}, true},
      {{"--serve", "9000", "--threads", "4", "trace.csv"}, true},
      {{"--serve", "9000", "--save", "ck.bin", "trace.csv"}, true},
      {{"--serve", "9000", "--load", "ck.bin", "trace.csv"}, true},
      {{"--serve", "9000", "--save", "ck.bin", "--checkpoint-every", "100",
        "trace.csv"}, true},
      {{"--serve", "9000", "--metrics-out", "m.prom", "trace.csv"}, true},
      {{"--serve", "9000", "--metrics-out", "m.prom", "--stats-every",
        "100", "trace.csv"}, true},
      {{"--serve", "9000", "--threads", "8", "--save", "ck.bin",
        "--checkpoint-every", "50", "--metrics-out", "m.json",
        "--stats-every", "200", "--csv", "trace.csv"}, true},
      {{"--serve", "9000", "-"}, true},  // stdin trace serves fine
      // Invalid: the dependency rules hold regardless of --serve.
      {{"--serve", "9000", "--checkpoint-every", "100", "trace.csv"}, false},
      {{"--serve", "9000", "--stats-every", "100", "trace.csv"}, false},
      {{"--serve", "9000"}, false},  // still needs a trace
  };
  for (const Case& c : cases) {
    std::string joined;
    for (const auto& a : c.args) joined += a + " ";
    std::string error;
    const auto options = Parse(c.args, &error);
    EXPECT_EQ(options.has_value(), c.ok) << joined << " error: " << error;
    if (!c.ok) {
      EXPECT_FALSE(error.empty()) << joined;
    }
    if (options.has_value() && c.ok) {
      EXPECT_EQ(options->serve_port, c.args[1] == "0" ? 0 : 9000) << joined;
    }
  }
}

TEST(CliOptions, PushFlagsParsedWithDefaults) {
  auto options = Parse({"trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_TRUE(options->push_to.empty());
  EXPECT_EQ(options->push_every, 0u);
  EXPECT_EQ(options->node_id, 0u);
  EXPECT_FALSE(options->aggregate);

  options = Parse({"--push-to", "agg.example:9100", "--node-id", "7",
                   "--push-every", "50000", "trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->push_to, "agg.example:9100");
  EXPECT_EQ(options->node_id, 7u);
  EXPECT_EQ(options->push_every, 50000u);
}

TEST(CliOptions, AggregateParsed) {
  auto options = Parse({"--aggregate", "--serve", "0"});
  ASSERT_TRUE(options.has_value());
  EXPECT_TRUE(options->aggregate);
  EXPECT_TRUE(options->trace_path.empty());
  EXPECT_EQ(options->agg_stale_after, 60u);  // default

  options = Parse({"--aggregate", "--serve", "9100", "--agg-stale-after",
                   "5"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->agg_stale_after, 5u);
}

// The aggregation-tier role rules (docs/SERVING.md "Aggregation
// tier"): --aggregate is a server role with no trace, --push-to is a
// node role needing an identity, and the two never mix in one process.
TEST(CliOptions, AggregationRoleRejections) {
  std::string error;
  // --aggregate IS a query server; pushes arrive on the --serve port.
  EXPECT_FALSE(Parse({"--aggregate"}, &error).has_value());
  EXPECT_NE(error.find("--serve"), std::string::npos);
  // Its data arrives via PUSH_SKETCH, never a trace.
  EXPECT_FALSE(
      Parse({"--aggregate", "--serve", "0", "trace.csv"}, &error).has_value());
  EXPECT_NE(error.find("no trace"), std::string::npos);
  // One process, one role.
  EXPECT_FALSE(Parse({"--aggregate", "--serve", "0", "--push-to", "h:1"},
                     &error)
                   .has_value());
  EXPECT_NE(error.find("role"), std::string::npos);
  // The aggregator dedups on node identity, so a pusher must have one.
  EXPECT_FALSE(Parse({"--push-to", "h:1", "trace.csv"}, &error).has_value());
  EXPECT_NE(error.find("--node-id"), std::string::npos);
  EXPECT_FALSE(Parse({"--push-to", "h:1", "--node-id", "0", "trace.csv"},
                     &error)
                   .has_value());
  // Pushes ship flush-barrier clones of the single table.
  EXPECT_FALSE(Parse({"--push-to", "h:1", "--node-id", "1", "--threads", "4",
                      "trace.csv"},
                     &error)
                   .has_value());
  EXPECT_NE(error.find("--threads"), std::string::npos);
  // The aggregator holds no table of its own: nothing to save, load,
  // shard or checkpoint, and its metrics are written on exit.
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{"--save", "ck.bin"},
        {"--load", "ck.bin"},
        {"--threads", "2"},
        {"--checkpoint-every", "100", "--save", "ck.bin"},
        {"--stats-every", "100", "--metrics-out", "m.prom"}}) {
    std::vector<std::string> args = {"--aggregate", "--serve", "0"};
    args.insert(args.end(), extra.begin(), extra.end());
    EXPECT_FALSE(Parse(args, &error).has_value()) << extra[0];
    EXPECT_NE(error.find("--aggregate"), std::string::npos) << error;
  }
  // The cadence is meaningless without a destination.
  EXPECT_FALSE(
      Parse({"--push-every", "1000", "trace.csv"}, &error).has_value());
  EXPECT_NE(error.find("--push-to"), std::string::npos);
  // Value validation: HOST:PORT shape and numeric fields.
  EXPECT_FALSE(Parse({"--push-to", "", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--push-to", "noport", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--push-to", "h:0", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--push-to", "h:65536", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--node-id", "potato", "t"}, &error).has_value());
  // --push-every 0 is the documented "one final push" spelling, legal
  // alongside --push-to.
  const auto zero_cadence = Parse(
      {"--push-to", "h:1", "--node-id", "1", "--push-every", "0", "t"});
  ASSERT_TRUE(zero_cadence.has_value());
  EXPECT_EQ(zero_cadence->push_every, 0u);
}

TEST(CliOptions, StoreFlagsParsedWithDefaults) {
  auto options = Parse({"trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_TRUE(options->store_dir.empty());
  EXPECT_EQ(options->tenants, 1u);
  EXPECT_EQ(options->mem_budget_bytes, size_t{64} << 20);

  options = Parse({"--store", "/var/ltc/store", "--tenants", "16",
                   "--mem-budget", "8M", "trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->store_dir, "/var/ltc/store");
  EXPECT_EQ(options->tenants, 16u);
  EXPECT_EQ(options->mem_budget_bytes, 8u * 1024 * 1024);
}

TEST(CliOptions, StoreComposesWithCheckpointCadenceWithoutSave) {
  // In store mode --checkpoint-every sets the incremental-checkpoint
  // cadence; the store directory is the anchor, no --save needed.
  auto options =
      Parse({"--store", "dir", "--checkpoint-every", "5000", "trace.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->checkpoint_every, 5000u);

  options = Parse({"--store", "dir", "--metrics-out", "m.prom",
                   "--stats-every", "100", "--csv", "trace.csv"});
  ASSERT_TRUE(options.has_value());
}

// The store-mode role rules: --store is a batch feed against a local
// durable directory — no serving, pushing, sharding, or snapshot
// flags — and its knobs are meaningless outside it.
TEST(CliOptions, StoreRejections) {
  std::string error;
  EXPECT_FALSE(Parse({"--store", "", "t"}, &error).has_value());
  EXPECT_NE(error.find("--store"), std::string::npos);
  EXPECT_FALSE(Parse({"--store"}, &error).has_value());
  EXPECT_NE(error.find("needs a value"), std::string::npos);
  // Store mode still takes a trace.
  EXPECT_FALSE(Parse({"--store", "dir"}, &error).has_value());
  EXPECT_NE(error.find("no trace"), std::string::npos);
  // Tenant fan-out bounds.
  EXPECT_FALSE(Parse({"--store", "dir", "--tenants", "0", "t"}, &error)
                   .has_value());
  EXPECT_NE(error.find("--tenants"), std::string::npos);
  EXPECT_FALSE(
      Parse({"--store", "dir", "--tenants", "65537", "t"}, &error)
          .has_value());
  EXPECT_FALSE(
      Parse({"--store", "dir", "--tenants", "potato", "t"}, &error)
          .has_value());
  EXPECT_FALSE(
      Parse({"--store", "dir", "--mem-budget", "0", "t"}, &error)
          .has_value());
  EXPECT_NE(error.find("--mem-budget"), std::string::npos);
  // The store knobs require store mode.
  EXPECT_FALSE(Parse({"--tenants", "4", "t"}, &error).has_value());
  EXPECT_NE(error.find("requires --store"), std::string::npos);
  EXPECT_FALSE(Parse({"--mem-budget", "8M", "t"}, &error).has_value());
  EXPECT_NE(error.find("requires --store"), std::string::npos);
  // One process, one role / one durability mechanism.
  EXPECT_FALSE(
      Parse({"--store", "dir", "--serve", "0", "t"}, &error).has_value());
  EXPECT_NE(error.find("--serve"), std::string::npos);
  EXPECT_FALSE(Parse({"--store", "dir", "--push-to", "h:1", "--node-id",
                      "1", "t"}, &error)
                   .has_value());
  EXPECT_FALSE(Parse({"--store", "dir", "--aggregate", "--serve", "0"},
                     &error)
                   .has_value());
  EXPECT_FALSE(
      Parse({"--store", "dir", "--threads", "4", "t"}, &error).has_value());
  EXPECT_NE(error.find("--threads"), std::string::npos);
  EXPECT_FALSE(
      Parse({"--store", "dir", "--save", "ck.bin", "t"}, &error).has_value());
  EXPECT_NE(error.find("--save"), std::string::npos);
  EXPECT_FALSE(
      Parse({"--store", "dir", "--load", "ck.bin", "t"}, &error).has_value());
}

TEST(CliOptions, ToLtcConfigReflectsFlags) {
  auto options = Parse({"--memory", "10K", "--alpha", "2", "--beta", "3",
                        "--d", "4", "--no-ltr", "t.csv"});
  ASSERT_TRUE(options.has_value());
  LtcConfig config = options->ToLtcConfig();
  EXPECT_EQ(config.memory_bytes, 10u * 1024);
  EXPECT_DOUBLE_EQ(config.alpha, 2.0);
  EXPECT_DOUBLE_EQ(config.beta, 3.0);
  EXPECT_EQ(config.cells_per_bucket, 4u);
  EXPECT_EQ(config.EffectiveInitPolicy(), InitPolicy::kOne);
}

TEST(CliOptions, HelpShortCircuits) {
  auto options = Parse({"--help"});
  ASSERT_TRUE(options.has_value());
  EXPECT_TRUE(options->show_help);
  EXPECT_FALSE(CliUsage().empty());
}

TEST(CliOptions, Rejections) {
  std::string error;
  EXPECT_FALSE(Parse({}, &error).has_value());
  EXPECT_NE(error.find("no trace"), std::string::npos);

  EXPECT_FALSE(Parse({"--memory"}, &error).has_value());
  EXPECT_NE(error.find("needs a value"), std::string::npos);

  EXPECT_FALSE(Parse({"--memory", "potato", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--memory", "0", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--k", "0", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--alpha", "-1", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--bogus", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"a.csv", "b.csv"}, &error).has_value());
  EXPECT_FALSE(
      Parse({"--alpha", "0", "--beta", "0", "t"}, &error).has_value());

  // Numeric flags: no sign (strtoull would wrap "-1" to 2^64 - 1), no
  // value past the field's width, no NaN weight.
  EXPECT_FALSE(Parse({"--k", "-1", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--k", "+5", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--k", " 5", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--periods", "-1", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--periods", "4294967296", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--d", "-3", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--d", "4294967296", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--checkpoint-every", "-5", "--save", "ck.bin", "t"},
                     &error)
                   .has_value());
  EXPECT_FALSE(
      Parse({"--k", "99999999999999999999", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--memory", "-64K", "t"}, &error).has_value());
  EXPECT_FALSE(
      Parse({"--memory", "18014398509481984M", "t"}, &error).has_value());
  EXPECT_FALSE(Parse({"--alpha", "nan", "t"}, &error).has_value());
  EXPECT_NE(error.find("alpha"), std::string::npos);

  // One bucket (16 bytes per cell, times d) must fit in --memory: the
  // table keeps at least one bucket whatever the budget.
  EXPECT_FALSE(Parse({"--d", "100000000", "t"}, &error).has_value());
  EXPECT_NE(error.find("--memory"), std::string::npos);
  EXPECT_FALSE(Parse({"--memory", "64K", "--d", "4097", "t"}, &error)
                   .has_value());
  EXPECT_TRUE(Parse({"--memory", "64K", "--d", "4096", "t"}).has_value());
  EXPECT_TRUE(
      Parse({"--periods", "4294967295", "--d", "32", "t"}).has_value());
}

TEST(CliOptions, MemorySizeSuffixes) {
  EXPECT_EQ(ParseMemorySize("123"), 123u);
  EXPECT_EQ(ParseMemorySize("64K"), 64u * 1024);
  EXPECT_EQ(ParseMemorySize("64k"), 64u * 1024);
  EXPECT_EQ(ParseMemorySize("2M"), 2u * 1024 * 1024);
  EXPECT_FALSE(ParseMemorySize("").has_value());
  EXPECT_FALSE(ParseMemorySize("K").has_value());
  EXPECT_FALSE(ParseMemorySize("12G").has_value());
  EXPECT_FALSE(ParseMemorySize("1.5K").has_value());
}

}  // namespace
}  // namespace ltc
