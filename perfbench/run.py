#!/usr/bin/env python3
"""End-to-end benchmark of the LTC system, with a per-layer ledger.

Builds the benchmark program ltc_e2e (perfbench/CMakeLists.txt) from
the sources in this checkout, runs one workload, attributes the traced
rounds to layers, prints a human-readable report, and prints one JSON
result as the last line of standard output.

    python3 perfbench/run.py --workload ingest_zipf --seed 1 \
        --seconds 45 --trace 0

--trace 0 reports the end-to-end metrics (no flight recorder is
installed); --trace 1 reports the per-layer metrics from rounds that
run with the recorder on. See perfbench/README.md for the workloads,
the metrics and what each layer metric should move.

Exit status: 0 when the run completed and every answer was correct; 1
when an answer was wrong (the result line says "correct": false) or the
run could not be carried out (no result line).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("ingest_zipf", "serve_agg", "tenants_keyspace")

# The end-to-end metrics of the final result line (--trace 0): those
# every workload produces, that are never 0, and whose run-to-run
# spread stays inside its bound on a shared host. The rest of the
# sixteen are printed in the report. README.md says why.
END_TO_END = (
    ("setup_s", "s"),
    ("ingest_mops", "Mrec/s"),
    ("commit_p50_ms", "ms"),
    ("topk_precision", "ratio"),
)

# Every end-to-end metric the report prints, in order.
REPORTED = (
    "setup_s", "ingest_mops", "commit_p50_ms", "commit_p95_ms", "query_qps",
    "query_p50_us", "query_p99_us", "topk_p50_us", "topk_p99_us",
    "checkpoint_p50_ms", "checkpoint_p95_ms", "recovery_p50_ms",
    "durable_bytes_per_krec", "topk_precision", "topk_are",
    "failed_ops_ratio",
)

# The per-layer metrics of the final result line (--trace 1): exact
# per-round counts from the layers the BENCHMARK.json workloads use,
# plus the two whole-run numbers of the ledger. Layer times, and the
# store rows of tenants_keyspace, are in the printed report.
PER_LAYER = (
    ("core.case1_ratio", "ratio"),
    ("core.payload_bytes", "B"),
    ("ingest.records_per_batch", "count"),
    ("ingest.shard_skew", "ratio"),
    ("ingest.dropped", "count"),
    ("ingest.shed", "count"),
    ("hub.publishes", "count"),
    ("hub.skipped_publishes", "count"),
    ("server.errors", "count"),
    ("push.attempts", "count"),
    ("push.retries", "count"),
    ("push.bytes", "B"),
    ("agg.merges", "count"),
    ("agg.duplicates", "count"),
    ("snapshot.save_bytes", "B"),
    ("fs.syncs", "count"),
    ("fs.bytes_written", "B"),
    ("fs.files_written", "count"),
    ("unattributed_us", "us"),
    ("trace.overhead_pct", "%"),
)

# A metric whose per-round values spread (interquartile range over
# median) wider than this is flagged in the report.
UNSTEADY_SPREAD = 0.10

RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds ltc_e2e; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found next to perfbench/ "
             "(run from a full checkout)")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "ltc_e2e",
                      "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(out_dir, "ltc_e2e")


def spread(values):
    """Interquartile range over median, as statistics.quantiles gives it."""
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else None


def percentile(sorted_values, p):
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return None
    rank = max(1, min(len(sorted_values),
                      math.ceil(p * len(sorted_values))))
    return sorted_values[rank - 1]


def self_times(events):
    """Self time per span: its duration minus its children's cover."""
    children = {}
    for e in events:
        children.setdefault(e["parent"], []).append(e)
    out = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        cover, cursor = 0, start
        kids = sorted(children.get(e["id"], ()), key=lambda k: k["ts"])
        for k in kids:
            lo, hi = max(k["ts"], cursor), min(k["ts"] + k["dur"], end)
            if hi > lo:
                cover += hi - lo
                cursor = hi
        out[e["id"]] = e["dur"] - cover
    return out


def load_trace(path, spans_per_thread, problems):
    with open(path) as f:
        dump = json.load(f)
    other = dump.get("otherData", {})
    if other.get("dropped_spans", 0) or other.get("truncated"):
        problems.append("%s: dropped or truncated spans" % path)
    per_tid = {}
    events = []
    for raw in dump["traceEvents"]:
        args = raw.get("args", {})
        per_tid[raw["tid"]] = per_tid.get(raw["tid"], 0) + 1
        events.append({
            "name": raw["name"], "ts": raw["ts"], "dur": raw["dur"],
            "tid": raw["tid"], "id": args.get("span_id"),
            "parent": args.get("parent_id"), "opcode": args.get("opcode"),
        })
    # A ring that filled may have wrapped: the run is invalid then.
    for tid, n in per_tid.items():
        if n >= spans_per_thread:
            problems.append("%s: thread %s filled its ring (%d spans)"
                            % (path, tid, n))
    return events


def ledger(result, problems):
    """Per-span-name count, p50, p99, total and self time per round."""
    rounds = result["trace_rounds"]
    by_name = {}
    unattributed = []
    for r in rounds:
        events = load_trace(r["file"], result["spans_per_thread"], problems)
        selfs = self_times(events)
        for e in events:
            key = e["name"]
            if key == "server.request" and e["opcode"] is not None:
                key = "server.request[op=%d]" % e["opcode"]
            row = by_name.setdefault(key, {"durs": [], "self": 0})
            row["durs"].append(e["dur"])
            row["self"] += selfs[e["id"]]
        feed = [e for e in events if e["name"] == "bench.feed"]
        if len(feed) != 1:
            problems.append("%s: expected one bench.feed span" % r["file"])
        else:
            unattributed.append(selfs[feed[0]["id"]])
    n = max(1, len(rounds))
    table = {}
    for name, row in sorted(by_name.items()):
        durs = sorted(row["durs"])
        table[name] = {
            "count": len(durs) / n,
            "p50_us": percentile(durs, 0.50),
            "p99_us": percentile(durs, 0.99),
            "total_us": sum(durs) / n,
            "self_us": row["self"] / n,
        }
    return table, (statistics.median(unattributed) if unattributed else None)


def layer_times(table, unattributed):
    """The per-layer time rows of README.md's map, from the ledger."""
    def col(name, field):
        row = table.get(name)
        return row[field] if row else None

    def total(*names):
        values = [col(n, "total_us") for n in names]
        values = [v for v in values if v is not None]
        return sum(values) if values else None

    est_rtt, est_req = col("client.Estimate", "p50_us"), col(
        "server.request[op=3]", "p50_us")
    return {
        "core.insert_us": total("core.InsertBatch"),
        "core.clone_us": total("core.CloneFinalize"),
        "ingest.push_us": total("ingest.PushBatch"),
        "ingest.flush_us": total("ingest.flush"),
        "ingest.checkpoint_us": total("ingest.Checkpoint"),
        "hub.publish_us": total("hub.publish"),
        "server.estimate_rtt_us": est_rtt,
        "server.topk_rtt_us": col("client.TopK", "p50_us"),
        "server.request_us": col("server.request[op=3]", "p50_us"),
        "server.queue_us": (est_rtt - est_req
                            if est_rtt is not None and est_req is not None
                            else None),
        "push.rtt_us": col("push.Push", "p50_us"),
        "agg.merge_us": total("agg.merge"),
        "agg.republish_us": total("agg.republish"),
        "store.put_us": col("store.Put", "p50_us"),
        "store.checkpoint_us": col("store.CheckpointDirty", "p50_us"),
        "snapshot.save_us": col("snapshot.save", "p50_us"),
        "fs.sync_us": total("fs.Sync", "fs.SyncDir"),
        "unattributed_us": unattributed,
    }


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float) and value != int(value):
        return "%.4g" % value
    return str(int(value)) if isinstance(value, float) else str(value)


def report_e2e(result):
    print("end-to-end (untraced rounds: %d timed after %d warm-up)"
          % (result["timed_rounds"], 1))
    print("  %-24s %14s %-8s %8s %8s" % ("metric", "value", "unit", "n",
                                         "spread"))
    for name in REPORTED:
        m = result["metrics"][name]
        s = spread(m["per_round"])
        flags = []
        value = m["value"]
        if value is None or m["n"] == 0:
            flags.append("not on this workload")
        elif not m["enough_samples"]:
            flags.append("fewer than 10 samples beyond the percentile")
            value = None
        if s is not None and s > UNSTEADY_SPREAD:
            flags.append("UNSTEADY")
        print("  %-24s %14s %-8s %8d %8s  %s"
              % (name, fmt(value), m["unit"], m["n"],
                 "n/a" if s is None else "%.3f" % s, "; ".join(flags)))
    late = result["metrics"]["query.gen_late_p99_us"]
    if late["n"]:
        print("  open-loop generator lateness p99: %s us" % fmt(late["value"]))


def report_ledger(table, times, counts, overhead):
    print("per-layer ledger (traced rounds; per round)")
    print("  %-30s %9s %10s %10s %12s %12s" % ("span", "count", "p50_us",
                                               "p99_us", "total_us",
                                               "self_us"))
    for name, row in table.items():
        print("  %-30s %9s %10s %10s %12s %12s"
              % (name, fmt(row["count"]), fmt(row["p50_us"]),
                 fmt(row["p99_us"]), fmt(row["total_us"]),
                 fmt(row["self_us"])))
    print("  layer times: " + ", ".join(
        "%s=%s" % (k, fmt(v)) for k, v in times.items() if v is not None))
    print("  counts: " + ", ".join("%s=%s" % (k, fmt(v))
                                   for k, v in sorted(counts.items())))
    print("  trace.overhead_pct=%s" % fmt(overhead))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier (tests use a tiny one)")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = os.path.join(out_dir, "work", args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("ltc_e2e timed out")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail("ltc_e2e exited with status %d" % proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    problems = []
    attempted, failed = result["attempted"], result["failed"]
    host = result["host"]
    print("workload %s seed %d trace %d: %d rounds in %.1f s; host nproc=%d, "
          "store filesystem %s" % (args.workload, args.seed, args.trace,
                                   result["rounds"], result["wall_s"],
                                   host["nproc"], host["store_fs"]))
    for error in result["errors"]:
        print("  FAILED: " + error)

    if args.trace == 0:
        report_e2e(result)
        metrics = {name: {"value": result["metrics"][name]["value"],
                          "unit": unit} for name, unit in END_TO_END}
    else:
        table, unattributed = ledger(result, problems)
        times = layer_times(table, unattributed)
        traced = [r["mops"] for r in result["trace_rounds"]]
        untraced = result["metrics"]["ingest_mops"]["value"]
        overhead = None
        if traced and untraced:
            overhead = (untraced / statistics.median(traced) - 1.0) * 100.0
        report_ledger(table, times, result["counts"], overhead)
        values = dict(result["counts"])
        values["unattributed_us"] = unattributed
        values["trace.overhead_pct"] = overhead
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
        attempted += 1
        if not result["trace_rounds"]:
            problems.append("no traced round ran")
    for problem in problems:
        print("  INVALID: " + problem)
    failed += len(problems)
    for name, metric in metrics.items():
        if metric["value"] is None:
            problems.append("metric %s has no value" % name)
            failed += 1

    with open(os.path.join(out_dir, "result_%s_trace%d.json"
                           % (args.workload, args.trace)), "w") as f:
        json.dump(result, f)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
