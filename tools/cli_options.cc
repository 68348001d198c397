#include "cli_options.h"

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace ltc {
namespace {

bool ParseDoubleArg(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && !text.empty();
}

// Digits only: strtoull would also take leading blanks and a sign, and
// wrap "-1" to 2^64 - 1.
bool ParseU64Arg(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end == text.c_str() + text.size() && errno != ERANGE;
}

}  // namespace

std::optional<size_t> ParseMemorySize(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::string digits = text;
  size_t multiplier = 1;
  char suffix = digits.back();
  if (suffix == 'K' || suffix == 'k') {
    multiplier = 1024;
    digits.pop_back();
  } else if (suffix == 'M' || suffix == 'm') {
    multiplier = 1024 * 1024;
    digits.pop_back();
  }
  uint64_t value = 0;
  if (!ParseU64Arg(digits, &value) || value == 0 ||
      value > SIZE_MAX / multiplier) {
    return std::nullopt;
  }
  return static_cast<size_t>(value) * multiplier;
}

LtcConfig CliOptions::ToLtcConfig() const {
  LtcConfig config;
  config.memory_bytes = memory_bytes;
  config.cells_per_bucket = cells_per_bucket;
  config.alpha = alpha;
  config.beta = beta;
  config.long_tail_replacement = long_tail_replacement;
  config.deviation_eliminator = deviation_eliminator;
  config.period_mode = PeriodMode::kTimeBased;
  config.period_seconds = 1.0;  // runner overwrites from the stream
  return config;
}

std::string CliUsage() {
  return R"(usage: ltc_cli [options] <trace-file | ->

Finds the top-k significant items (s = alpha*f + beta*p) of a trace.
Trace format: one record per line, "<item>" or "<item>,<time-seconds>";
items may be integers or arbitrary tokens; '#' starts a comment.

options:
  --memory SIZE     memory budget, e.g. 65536, 64K, 1M   [64K]
  --alpha F         weight of frequency                  [1]
  --beta F          weight of persistency                [1]
  --k N             how many items to report             [10]
  --periods T       number of periods                    [100]
  --duration SEC    total trace span (0 = infer)         [infer]
  --d N             cells per bucket                     [8]
  --threads N       parallel ingestion: N hash-sharded tables, each fed
                    by its own worker thread (same total
                    memory budget; composes with --save/--load,
                    whose checkpoints then hold all N shards) [1]
  --no-ltr          disable Long-tail Replacement
  --no-de           disable the Deviation Eliminator
  --csv             machine-readable output
  --save FILE       checkpoint the table to FILE after the run
                    (checksummed frame, written atomically)
  --load FILE       restore the table from FILE before the run; if FILE
                    is missing or corrupt, recovery walks back through
                    the FILE.<seq>.snap rotation to the newest valid
                    snapshot. Needs a numeric trace: token IDs are
                    numbered anew in each run
  --checkpoint-every N
                    also snapshot every N records mid-run to
                    FILE.<seq>.snap (requires --save; keeps the
                    newest 3) [off]
  --metrics-out FILE
                    write a metrics exposition to FILE on exit
                    (atomically; FILE ending in .json gets the JSON
                    form, anything else the Prometheus text form)
  --stats-every N   also rewrite --metrics-out every N records, so a
                    long run can be watched live (requires
                    --metrics-out) [off]
  --trace-out FILE  install the always-on flight recorder and write its
                    Chrome trace-event JSON (open in Perfetto) to FILE
                    on exit and on SIGUSR1; also enables trace-context
                    propagation on --push-to frames and answers
                    DUMP_TRACE / `ltc_query trace` when serving
                    (docs/TELEMETRY.md) [off]
  --serve PORT      serve TOPK/ESTIMATE_*/STATS/PING queries over TCP on
                    PORT while the trace feeds and until SIGINT/SIGTERM
                    (PORT 0 = pick an ephemeral port; the bound port is
                    printed to stderr as "serving on port N"). Reads are
                    flush-barrier snapshots — see docs/SERVING.md.
                    Composes with every other flag [off]
  --push-to HOST:PORT
                    push flush-barrier sketch images to an aggregator
                    over LTCQ (PUSH_SKETCH) while feeding, with
                    deadline-bounded retries; requires --node-id and
                    --threads 1 and a numeric trace (see
                    docs/SERVING.md "Aggregation tier") [off]
  --push-every N    push cadence in records (0 = one final push at the
                    end of the trace; requires --push-to) [0]
  --node-id N       this node's stable identity at the aggregator
                    (>= 1; required with --push-to)
  --aggregate       be the aggregator: accept PUSH_SKETCH, serve the
                    merged view. Requires --serve; takes no trace and
                    no --save/--load/--threads/--checkpoint-every/
                    --stats-every.
                    Sketch shape comes from --memory/--d/--alpha/--beta,
                    which every pusher must match [off]
  --agg-stale-after SEC
                    seconds without a push before a node's STATS row is
                    flagged stale [60]
  --store DIR       paged multi-tenant store mode (docs/DURABILITY.md
                    "Paged store, WAL, and incremental checkpoints"):
                    records shard to --tenants sketches by item id, each
                    hosted crash-safely in DIR behind a buffer pool of
                    --mem-budget bytes. Every chunk is Put through the
                    write-ahead log; --checkpoint-every N takes an
                    incremental checkpoint every N records (no --save
                    needed); reopening with the same DIR recovers every
                    tenant, WAL replay included, and needs a numeric
                    trace. The report lists the
                    top-k per tenant. Conflicts with --serve, --push-to,
                    --aggregate, --threads, --save and --load [off]
  --tenants N       tenant sketches in --store mode; each record feeds
                    the tenant a mixed hash of its item id picks [1]
  --mem-budget SIZE buffer-pool budget for --store mode, e.g. 512K, 8M;
                    may be far smaller than total sketch bytes (cold
                    tenants' pages spill to DIR and page back in on
                    demand) [64M]
  --help            this text
)";
}

std::optional<CliOptions> ParseCliOptions(
    const std::vector<std::string>& args, std::string* error) {
  CliOptions options;
  auto fail = [&](const std::string& message) -> std::optional<CliOptions> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  // Whether the store-only knobs were given explicitly (their defaults
  // are meaningful only in --store mode, so a bare --tenants/--mem-budget
  // is a usage error we want to catch).
  bool tenants_set = false;
  bool mem_budget_set = false;

  size_t i = 0;
  auto next_value = [&](const std::string& flag,
                        std::string* out) -> bool {
    if (i + 1 >= args.size()) {
      if (error != nullptr) *error = flag + " needs a value";
      return false;
    }
    *out = args[++i];
    return true;
  };

  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      options.show_help = true;
      return options;
    } else if (arg == "--memory") {
      if (!next_value(arg, &value)) return std::nullopt;
      auto parsed = ParseMemorySize(value);
      if (!parsed) return fail("bad --memory '" + value + "'");
      options.memory_bytes = *parsed;
    } else if (arg == "--alpha" || arg == "--beta" || arg == "--duration") {
      if (!next_value(arg, &value)) return std::nullopt;
      double parsed;
      if (!ParseDoubleArg(value, &parsed) || parsed < 0) {
        return fail("bad " + arg + " '" + value + "'");
      }
      if (arg == "--alpha") options.alpha = parsed;
      if (arg == "--beta") options.beta = parsed;
      if (arg == "--duration") options.duration = parsed;
    } else if (arg == "--k" || arg == "--periods" || arg == "--d" ||
               arg == "--threads" || arg == "--checkpoint-every" ||
               arg == "--stats-every") {
      if (!next_value(arg, &value)) return std::nullopt;
      uint64_t parsed;
      uint64_t max = UINT64_MAX;
      if (arg == "--threads") max = 256;
      if (arg == "--periods" || arg == "--d") max = UINT32_MAX;
      if (!ParseU64Arg(value, &parsed) || parsed == 0 || parsed > max) {
        return fail("bad " + arg + " '" + value + "'");
      }
      if (arg == "--k") options.k = parsed;
      if (arg == "--periods") options.periods = static_cast<uint32_t>(parsed);
      if (arg == "--d") {
        options.cells_per_bucket = static_cast<uint32_t>(parsed);
      }
      if (arg == "--threads") options.threads = static_cast<uint32_t>(parsed);
      if (arg == "--checkpoint-every") options.checkpoint_every = parsed;
      if (arg == "--stats-every") options.stats_every = parsed;
    } else if (arg == "--no-ltr") {
      options.long_tail_replacement = false;
    } else if (arg == "--no-de") {
      options.deviation_eliminator = false;
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--save" || arg == "--load") {
      if (!next_value(arg, &value)) return std::nullopt;
      (arg == "--save" ? options.save_path : options.load_path) = value;
    } else if (arg == "--metrics-out") {
      if (!next_value(arg, &value)) return std::nullopt;
      options.metrics_out = value;
    } else if (arg == "--trace-out") {
      if (!next_value(arg, &value)) return std::nullopt;
      options.trace_out = value;
    } else if (arg == "--serve") {
      if (!next_value(arg, &value)) return std::nullopt;
      uint64_t parsed;
      if (!ParseU64Arg(value, &parsed) || parsed > 65535) {
        return fail("bad --serve port '" + value +
                    "' (need 0..65535; 0 = ephemeral)");
      }
      options.serve_port = static_cast<int32_t>(parsed);
    } else if (arg == "--push-to") {
      if (!next_value(arg, &value)) return std::nullopt;
      const size_t colon = value.rfind(':');
      uint64_t port = 0;
      if (colon == std::string::npos || colon == 0 ||
          !ParseU64Arg(value.substr(colon + 1), &port) || port == 0 ||
          port > 65535) {
        return fail("bad --push-to '" + value + "' (need HOST:PORT)");
      }
      options.push_to = value;
    } else if (arg == "--push-every" || arg == "--node-id" ||
               arg == "--agg-stale-after") {
      if (!next_value(arg, &value)) return std::nullopt;
      uint64_t parsed;
      if (!ParseU64Arg(value, &parsed)) {
        return fail("bad " + arg + " '" + value + "'");
      }
      if (arg == "--push-every") options.push_every = parsed;
      if (arg == "--node-id") {
        if (parsed == 0) return fail("--node-id must be >= 1");
        options.node_id = parsed;
      }
      if (arg == "--agg-stale-after") options.agg_stale_after = parsed;
    } else if (arg == "--store") {
      if (!next_value(arg, &value)) return std::nullopt;
      if (value.empty()) return fail("bad --store '' (need a directory)");
      options.store_dir = value;
    } else if (arg == "--tenants") {
      if (!next_value(arg, &value)) return std::nullopt;
      uint64_t parsed;
      if (!ParseU64Arg(value, &parsed) || parsed == 0 || parsed > 65536) {
        return fail("bad --tenants '" + value + "' (need 1..65536)");
      }
      options.tenants = parsed;
      tenants_set = true;
    } else if (arg == "--mem-budget") {
      if (!next_value(arg, &value)) return std::nullopt;
      auto parsed = ParseMemorySize(value);
      if (!parsed) return fail("bad --mem-budget '" + value + "'");
      options.mem_budget_bytes = *parsed;
      mem_budget_set = true;
    } else if (arg == "--aggregate") {
      options.aggregate = true;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      return fail("unknown option '" + arg + "'");
    } else {
      if (!options.trace_path.empty()) {
        return fail("multiple trace files given");
      }
      options.trace_path = arg;
    }
  }

  if (options.aggregate) {
    if (options.serve_port < 0) {
      return fail("--aggregate requires --serve (the aggregator IS a query "
                  "server; pushes arrive on the same port)");
    }
    if (!options.trace_path.empty()) {
      return fail("--aggregate takes no trace (its data arrives via "
                  "PUSH_SKETCH)");
    }
    if (!options.push_to.empty()) {
      return fail("--aggregate and --push-to are different roles; run one "
                  "process per role");
    }
    if (!options.save_path.empty() || !options.load_path.empty() ||
        options.threads != 1 || options.checkpoint_every > 0 ||
        options.stats_every > 0) {
      return fail("--aggregate does not take --save, --load, --threads, "
                  "--checkpoint-every or --stats-every (it holds no table "
                  "of its own to feed or checkpoint; --metrics-out is "
                  "written on exit)");
    }
  } else if (options.trace_path.empty()) {
    return fail("no trace file given (use '-' for stdin)");
  }
  if (!options.push_to.empty()) {
    if (options.node_id == 0) {
      return fail("--push-to requires --node-id (a stable identity the "
                  "aggregator dedups on)");
    }
    if (options.threads != 1) {
      return fail("--push-to requires --threads 1 (pushes serialize the "
                  "single table at its flush barrier; sharded pushes are "
                  "not mergeable across nodes)");
    }
  }
  if (options.push_every > 0 && options.push_to.empty()) {
    return fail("--push-every requires --push-to (it sets the push cadence)");
  }
  if (!options.store_dir.empty()) {
    if (options.aggregate) {
      return fail("--store and --aggregate are different roles; run one "
                  "process per role");
    }
    if (options.serve_port >= 0) {
      return fail("--store does not compose with --serve (store mode is a "
                  "batch feed; serve from a --load'ed table instead)");
    }
    if (!options.push_to.empty()) {
      return fail("--store does not compose with --push-to (store tenants "
                  "are durable locally, not pushed)");
    }
    if (options.threads != 1) {
      return fail("--store requires --threads 1 (tenants shard the stream "
                  "already; the store's Put is a quiescent barrier)");
    }
    if (!options.save_path.empty() || !options.load_path.empty()) {
      return fail("--store does not compose with --save/--load (the store "
                  "directory IS the durable state; reopen with the same "
                  "--store DIR to restore)");
    }
  } else {
    if (tenants_set) {
      return fail("--tenants requires --store (it sets the store's tenant "
                  "fan-out)");
    }
    if (mem_budget_set) {
      return fail("--mem-budget requires --store (it sizes the store's "
                  "buffer pool)");
    }
  }
  if (auto problem = options.ToLtcConfig().Validate()) return fail(*problem);
  // The table keeps at least one bucket whatever the budget, so a --d
  // past the budget would allocate d cells regardless.
  if (LtcConfig::BytesPerCell() * options.cells_per_bucket >
      options.memory_bytes) {
    return fail("--d " + std::to_string(options.cells_per_bucket) +
                " needs a --memory of at least one bucket (" +
                std::to_string(LtcConfig::BytesPerCell() *
                               options.cells_per_bucket) +
                " bytes)");
  }
  if (options.checkpoint_every > 0 && options.save_path.empty() &&
      options.store_dir.empty()) {
    return fail("--checkpoint-every requires --save (it anchors the "
                "snapshot rotation at the save path) or --store (where it "
                "sets the incremental-checkpoint cadence)");
  }
  if (options.stats_every > 0 && options.metrics_out.empty()) {
    return fail("--stats-every requires --metrics-out (it sets where the "
                "periodic exposition is written)");
  }
  return options;
}

}  // namespace ltc
