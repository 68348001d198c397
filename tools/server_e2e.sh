#!/usr/bin/env bash
# Query-serving end-to-end proof (docs/SERVING.md): start
# `ltc_cli --serve`, drive every protocol opcode through ltc_query,
# deliver SIGTERM while a request is in flight, and assert the graceful
# half of the serving contract:
#   * the in-flight request is still answered,
#   * the connection ends with a clean FIN (an RST would surface as
#     ECONNRESET in the probe client),
#   * the server process exits 128+signo with durable state flushed,
#   * the exposition contains the ltc_server_* families.
#
# usage: server_e2e.sh <ltc_gen> <ltc_cli> <ltc_query> <work_dir>
#
# Companion to graceful_shutdown.sh: that script proves the ingest side
# of a catchable signal; this one proves the serving side.
set -u

fail() { echo "server_e2e: FAIL: $*" >&2; exit 1; }

GEN="$(readlink -f "$1")" || fail "cannot resolve $1"
CLI="$(readlink -f "$2")" || fail "cannot resolve $2"
QUERY="$(readlink -f "$3")" || fail "cannot resolve $3"
WORK="$4"

mkdir -p "$WORK" || fail "cannot create $WORK"
cd "$WORK" || fail "cannot cd $WORK"
rm -f trace.txt serve.err metrics.prom query.out query.err

RECORDS=200000
"$GEN" --dataset zipf --records "$RECORDS" --periods 20 --seed 7 trace.txt \
  || fail "ltc_gen"

start_server() {
  # shellcheck disable=SC2086
  "$CLI" $1 --serve 0 --metrics-out metrics.prom trace.txt \
    > /dev/null 2> serve.err &
  server_pid=$!
  port=""
  for _ in $(seq 100); do
    port=$(grep -oE 'serving on port [0-9]+' serve.err 2> /dev/null \
             | grep -oE '[0-9]+$' || true)
    [ -n "$port" ] && break
    kill -0 "$server_pid" 2> /dev/null || fail "server died: $(cat serve.err)"
    sleep 0.1
  done
  [ -n "$port" ] || fail "server never announced its port: $(cat serve.err)"
}

# The port is announced before the feed starts, so a query sent at once
# can beat the first feed barrier (an empty snapshot, no topk rows).
# Wait until the served snapshot holds the whole trace.
wait_fed() {
  for _ in $(seq 600); do
    "$QUERY" --port "$port" stats 2> /dev/null \
      | grep -q "^stats snapshot_seq=[0-9]* records=$RECORDS " && return
    kill -0 "$server_pid" 2> /dev/null || fail "server died: $(cat serve.err)"
    sleep 0.1
  done
  fail "served snapshot never reached records=$RECORDS: $(cat serve.err)"
}

stop_server() {
  kill -TERM "$server_pid" 2> /dev/null
  wait "$server_pid"
  local status=$?
  [ "$status" -eq 143 ] \
    || fail "expected server exit 143 (128+SIGTERM), got $status: $(cat serve.err)"
  grep -q "drained" serve.err || fail "no drain notice: $(cat serve.err)"
}

run_suite() {
  local label="$1"
  wait_fed

  # --- All five query opcodes (plus PING) through ltc_query. ---------
  "$QUERY" --port "$port" ping stats topk 5 sig 1 freq 1 pers 1 \
    > query.out 2> query.err || fail "[$label] query batch failed: $(cat query.err)"
  grep -q "^pong snapshot_seq=" query.out || fail "[$label] no pong"
  grep -q "^stats snapshot_seq=" query.out || fail "[$label] no stats"
  grep -q "5 item(s)" query.out || fail "[$label] no topk rows"
  grep -q "^sig 1 = " query.out || fail "[$label] no significance"
  grep -q "^freq 1 = " query.out || fail "[$label] no frequency"
  grep -q "^pers 1 = " query.out || fail "[$label] no persistency"

  # Served answers must agree with the sequential report for the same
  # barrier: the trace is fully fed by now, so TOPK's head item equals
  # the offline run's head item.
  "$QUERY" --port "$port" topk 1 > head.out || fail "[$label] topk 1"

  # --- Typed error frames, not dropped connections. -------------------
  "$QUERY" --port "$port" sig "" > /dev/null 2> query.err
  [ $? -eq 3 ] || fail "[$label] zero-length key should exit 3"
  grep -q "bad_key" query.err || fail "[$label] expected bad_key: $(cat query.err)"

  # --- SIGTERM mid-query: answered, then FIN (never RST). -------------
  python3 - "$port" "$server_pid" <<'PYEOF' || fail "[$label] mid-query drain"
import socket, struct, os, signal, sys

port, server_pid = int(sys.argv[1]), int(sys.argv[2])
sock = socket.create_connection(("127.0.0.1", port), timeout=10)
# One PING frame: u32 LE length prefix + opcode 0x01.
sock.sendall(struct.pack("<I", 1) + b"\x01")
# The request bytes are committed to the socket; now kill the server.
os.kill(server_pid, signal.SIGTERM)

def recv_exact(n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise SystemExit("connection closed before the response")
        buf += chunk
    return buf

try:
    length = struct.unpack("<I", recv_exact(4))[0]
    payload = recv_exact(length)
except ConnectionResetError:
    raise SystemExit("RST during drain (graceful FIN expected)")
if not payload or payload[0] != 0:
    raise SystemExit("mid-query request not answered kOk: %r" % payload)
# Drain to EOF: a clean FIN reads as b""; an RST raises.
try:
    tail = sock.recv(4096)
except ConnectionResetError:
    raise SystemExit("RST instead of FIN after the response")
if tail:
    raise SystemExit("unexpected trailing bytes: %r" % tail)
print("drain probe: answered + FIN")
PYEOF

  wait "$server_pid"
  local status=$?
  [ "$status" -eq 143 ] \
    || fail "[$label] expected server exit 143, got $status: $(cat serve.err)"
  grep -q "drained" serve.err || fail "[$label] no drain notice: $(cat serve.err)"

  # --- The exposition carries the server families. --------------------
  [ -s metrics.prom ] || fail "[$label] no metrics exposition"
  grep -q "^ltc_server_requests_total" metrics.prom \
    || fail "[$label] exposition missing ltc_server_requests_total"
  grep -q "^ltc_server_connections_opened_total" metrics.prom \
    || fail "[$label] exposition missing connection counters"
  echo "server_e2e: [$label] all opcodes served, drained on SIGTERM"
}

start_server ""
run_suite "single"

start_server "--threads 2"
run_suite "sharded"

# --- ltc_query deadlines: a hung server costs one timeout, exit 5. ----
# A listener that accepts and then never answers — the half-open peer
# that used to hang the client forever.
rm -f hung.port
python3 - > hung.port 2> /dev/null <<'PYEOF' &
import socket, time
srv = socket.socket()
srv.bind(("127.0.0.1", 0))
srv.listen(1)
print(srv.getsockname()[1], flush=True)
conns = []
end = time.time() + 30
while time.time() < end:
    srv.settimeout(max(0.1, end - time.time()))
    try:
        conns.append(srv.accept()[0])  # accept, never respond
    except socket.timeout:
        break
PYEOF
hung_pid=$!
hung_port=""
for _ in $(seq 100); do
  hung_port=$(cat hung.port 2> /dev/null)
  [ -n "$hung_port" ] && break
  sleep 0.1
done
[ -n "$hung_port" ] || fail "hung listener never reported its port"
"$QUERY" --port "$hung_port" --timeout-ms 300 ping > /dev/null 2> query.err
status=$?
[ "$status" -eq 5 ] \
  || fail "hung server should exit 5 (deadline), got $status: $(cat query.err)"
grep -q "timed out" query.err \
  || fail "expected a timeout notice: $(cat query.err)"
kill "$hung_pid" 2> /dev/null
wait "$hung_pid" 2> /dev/null
echo "server_e2e: hung server correctly answered with exit 5"

echo "server_e2e: PASS"
