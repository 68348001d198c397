#!/usr/bin/env bash
# Graceful-shutdown end-to-end proof: SIGINT/SIGTERM ltc_cli mid-run
# and show that it flushes the pipeline, writes a final checkpoint and
# a complete --metrics-out exposition, and exits 128+signo — then that
# --load picks the checkpoint up cleanly.
#
# usage: graceful_shutdown.sh <ltc_gen> <ltc_cli> <work_dir>
#
# Companion to crash_recovery.sh: that script proves recovery after an
# unclean SIGKILL; this one proves the clean half of the contract —
# catchable signals produce durable state on purpose, not by luck.
set -u

fail() { echo "graceful_shutdown: FAIL: $*" >&2; exit 1; }

GEN="$(readlink -f "$1")" || fail "cannot resolve $1"
CLI="$(readlink -f "$2")" || fail "cannot resolve $2"
WORK="$3"

mkdir -p "$WORK" || fail "cannot create $WORK"
cd "$WORK" || fail "cannot cd $WORK"
rm -f trace.txt ck.bin ck.bin.*.snap metrics.prom out.csv cli.err fifo

"$GEN" --dataset zipf --records 400000 --periods 40 --seed 42 trace.txt \
  || fail "ltc_gen"

# --- Deterministic variant: signal guaranteed to land mid-run. -------
# Feed the trace over a fifo and hold the write end open: the CLI
# blocks reading stdin, we deliver SIGTERM, then close the fifo. The
# run then proceeds, observes the latched signal at the first chunk
# boundary, checkpoints, writes metrics, and exits 143.
mkfifo fifo || fail "mkfifo"
"$CLI" --threads 2 --save ck.bin --checkpoint-every 5000 \
  --metrics-out metrics.prom --csv - < fifo > out.csv 2> cli.err &
pid=$!
exec 3> fifo || fail "cannot open fifo for writing"
cat trace.txt >&3
sleep 0.2
kill -TERM "$pid" 2> /dev/null || fail "deterministic: cannot signal $pid"
sleep 0.2
exec 3>&-
wait "$pid"
status=$?
[ "$status" -eq 143 ] \
  || fail "deterministic: expected exit 143 (128+SIGTERM), got $status"
grep -q "interrupted by signal 15" cli.err \
  || fail "deterministic: missing shutdown notice: $(cat cli.err)"
[ -e ck.bin ] || fail "deterministic: no checkpoint written"
[ -s metrics.prom ] || fail "deterministic: no metrics exposition written"
grep -q "ltc_ingest_stalled" metrics.prom \
  || fail "deterministic: exposition is missing the stalled gauge"
"$CLI" --threads 2 --load ck.bin --csv trace.txt > out.csv 2> recover.err \
  || fail "deterministic: reload failed: $(cat recover.err)"
head -1 out.csv | grep -q "item,frequency" \
  || fail "deterministic: reload output malformed"
echo "graceful_shutdown: [deterministic] SIGTERM honored, state reloaded OK"

# --- Wall-clock variant: SIGINT racing a real run. -------------------
# The signal may land mid-run (exit 130) or after the run finished
# (exit 0); both are correct. Either way durable state must exist.
run_one() {
  local threads_flag="$1" delay="$2" label="$3"
  rm -f ck.bin ck.bin.*.snap metrics.prom cli.err
  # shellcheck disable=SC2086
  "$CLI" $threads_flag --save ck.bin --checkpoint-every 5000 \
    --metrics-out metrics.prom --csv trace.txt > /dev/null 2> cli.err &
  local pid=$!
  sleep "$delay"
  kill -INT "$pid" 2> /dev/null
  wait "$pid"
  local status=$?
  if [ "$status" -eq 130 ]; then
    grep -q "interrupted by signal 2" cli.err \
      || fail "[$label] missing shutdown notice: $(cat cli.err)"
  elif [ "$status" -ne 0 ]; then
    fail "[$label] expected exit 130 or 0, got $status: $(cat cli.err)"
  fi
  [ -e ck.bin ] || fail "[$label] no checkpoint on disk (exit $status)"
  [ -s metrics.prom ] || fail "[$label] no metrics exposition (exit $status)"
  # shellcheck disable=SC2086
  "$CLI" $threads_flag --load ck.bin --csv trace.txt > out.csv \
    2> recover.err || fail "[$label] reload failed: $(cat recover.err)"
  head -1 out.csv | grep -q "item,frequency" \
    || fail "[$label] reload output malformed"
  echo "graceful_shutdown: [$label] exit $status; state reloaded OK"
}

for delay in 0.05 0.15; do
  run_one ""            "$delay" "single-t${delay}"
  run_one "--threads 2" "$delay" "sharded-t${delay}"
done

rm -f fifo
echo "graceful_shutdown: PASS"
