#!/usr/bin/env bash
# daemon_smoke.sh — black-box smoke of the pandad service daemon:
# start it over a fresh catalog directory with the telemetry plane up,
# write an array from one client process, read it back bit-exact from
# a second, probe every telemetry endpoint (/healthz, /metrics,
# /sessions, /slo, /dump) plus pandastat -check mid-run, reload the
# tuning via SIGHUP, join an elastic I/O node mid-run and drain it back
# out with its data migrated off, drain via SIGTERM, and fsck the
# directory; then start the daemon again over the same directory and
# read both arrays back by name from a fresh client before a second
# drain and fsck.
# Gates on every exit status plus the fsck verdict and the validity of
# the dumped flight-recorder trace. Artifacts (daemon log, catalog/data
# directory, structured event log, dumped trace) land in
# $DAEMON_SMOKE_OUT (default ./daemon-artifacts) for CI upload.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${DAEMON_SMOKE_OUT:-daemon-artifacts}
rm -rf "$OUT"
mkdir -p "$OUT"
DATA="$OUT/data"
LOG="$OUT/pandad.log"
CFG="$OUT/tuning.json"
ADDRFILE="$OUT/addr"
HTTPADDRFILE="$OUT/http-addr"

go build -o "$OUT/pandad" ./cmd/pandad
go build -o "$OUT/pandafsck" ./cmd/pandafsck
go build -o "$OUT/pandastat" ./cmd/pandastat
go build -o "$OUT/pandatrace" ./cmd/pandatrace

echo '{"max_inflight": 2, "pipeline": 2, "slo_default_ms": 30000}' >"$CFG"
"$OUT/pandad" -addr 127.0.0.1:0 -dir "$DATA" -config "$CFG" -addr-file "$ADDRFILE" \
  -slots 8 -ions 2 -max-ions 4 -optimeout 60s -http 127.0.0.1:0 -http-addr-file "$HTTPADDRFILE" >"$LOG" 2>&1 &
PID=$!
JPID=""
trap 'kill -9 "$PID" $JPID 2>/dev/null || true' EXIT

for _ in $(seq 100); do [ -s "$ADDRFILE" ] && [ -s "$HTTPADDRFILE" ] && break; sleep 0.1; done
[ -s "$ADDRFILE" ] || { echo "daemon never published its address"; cat "$LOG"; exit 1; }
[ -s "$HTTPADDRFILE" ] || { echo "daemon never published its telemetry address"; cat "$LOG"; exit 1; }
ADDR=$(cat "$ADDRFILE")
HTTP=$(cat "$HTTPADDRFILE")
echo "daemon on $ADDR, telemetry on $HTTP (pid $PID)"

# The startup line is structured JSON, not prose.
grep -q 'startup {"addr"' "$LOG" || { echo "no structured startup line"; cat "$LOG"; exit 1; }

# Client A writes; a separate client process B reads it back bit-exact
# knowing only the array's name — the catalog supplies the schema.
"$OUT/pandad" -connect "$ADDR" -smoke write -array smoke -nodes 2 -tenant a
"$OUT/pandad" -connect "$ADDR" -smoke read -array smoke -nodes 2 -tenant b

# Telemetry plane, mid-run: health, readiness, metrics, sessions, SLO.
curl -fsS "http://$HTTP/healthz" | grep -q ok || { echo "/healthz not ok"; exit 1; }
curl -fsS "http://$HTTP/readyz" | grep -q ready || { echo "/readyz not ready"; exit 1; }
curl -fsS "http://$HTTP/metrics" | grep -q '"sessions_attached"' \
  || { echo "/metrics missing sessions_attached"; exit 1; }
# One smoke write by tenant a is one operation, however many I/O nodes
# served it.
curl -fsS "http://$HTTP/metrics" | grep -Eq '^  "tenant_ops_a": 1,?$' \
  || { echo "/metrics: tenant_ops_a is not exactly 1 after one write"; curl -fsS "http://$HTTP/metrics" | grep tenant_; exit 1; }
curl -fsS "http://$HTTP/sessions" | grep -q '"sessions"' || { echo "/sessions malformed"; exit 1; }
curl -fsS "http://$HTTP/slo" | grep -q '"default_ms": 30000' \
  || { echo "/slo missing the configured objective"; curl -fsS "http://$HTTP/slo"; exit 1; }
echo "telemetry endpoints OK"

# Operator-requested flight-recorder dump; the trace must validate.
DUMP=$(curl -fsS "http://$HTTP/dump" | sed -n 's/.*"path": "\(.*\)".*/\1/p')
[ -s "$DUMP" ] || { echo "/dump produced no trace"; cat "$LOG"; exit 1; }
"$OUT/pandatrace" -check "$DUMP"
cp "$DUMP" "$OUT/trace-dump.json"
echo "flight-recorder dump OK ($DUMP)"

# The CLI agrees the daemon is healthy.
"$OUT/pandastat" -addr "$HTTP" -check
"$OUT/pandastat" -addr "$HTTP" >"$OUT/pandastat.txt"
"$OUT/pandastat" -addr "$HTTP" -json | grep -q '"sessions"' || { echo "pandastat -json carries no session table"; exit 1; }
# Watch mode never exits by itself; its second refresh is the first to
# carry per-tenant throughput (a delta over the interval).
timeout 2 "$OUT/pandastat" -addr "$HTTP" -watch -interval 300ms >"$OUT/pandastat-watch.txt" || [ $? -eq 124 ]
grep -q 'MB/s' "$OUT/pandastat-watch.txt" || { echo "pandastat -watch never showed a rate"; cat "$OUT/pandastat-watch.txt"; exit 1; }

# Live reload: rewrite the config, SIGHUP, and require the new knobs
# to become observable through info.
echo '{"max_inflight": 4, "weights": {"a": 7}, "pipeline": 1, "slo_default_ms": 30000}' >"$CFG"
kill -HUP "$PID"
INFO=""
for _ in $(seq 100); do
  INFO=$("$OUT/pandad" -connect "$ADDR" -smoke info)
  echo "$INFO" | grep -q '"MaxInflight": 4' && break
  sleep 0.1
done
echo "$INFO" | grep -q '"MaxInflight": 4' || { echo "reload not observed"; echo "$INFO"; cat "$LOG"; exit 1; }
echo "reload observed (max_inflight 2 -> 4)"

# The reloaded daemon still serves collectives.
"$OUT/pandad" -connect "$ADDR" -smoke write -array smoke2 -nodes 2 -tenant a
"$OUT/pandad" -connect "$ADDR" -smoke read -array smoke2 -nodes 2 -tenant a

# Elastic pool: a new I/O node joins the running daemon mid-run, the
# committed arrays rebalance onto it, and both still read back
# bit-exact; then an operator drain migrates its chunks off and the
# joined process exits 0.
"$OUT/pandad" -join "$ADDR" -dir "$OUT/join1" >"$OUT/join1.log" 2>&1 &
JPID=$!
for _ in $(seq 100); do
  curl -fsS "http://$HTTP/servers" | grep -q '"active": 3' && break
  sleep 0.1
done
curl -fsS "http://$HTTP/servers" | grep -q '"active": 3' \
  || { echo "joined node never became active"; curl -fsS "http://$HTTP/servers"; cat "$OUT/join1.log"; exit 1; }
"$OUT/pandastat" -addr "$HTTP" servers >"$OUT/pandastat-servers.txt"
"$OUT/pandad" -connect "$ADDR" -smoke read -array smoke -nodes 2 -tenant b
"$OUT/pandad" -connect "$ADDR" -smoke read -array smoke2 -nodes 2 -tenant a
echo "elastic join OK (pool of 3)"

"$OUT/pandastat" -addr "$HTTP" drain-server 2
wait "$JPID" || { echo "joined node exited dirty after drain"; cat "$OUT/join1.log"; exit 1; }
JPID=""
"$OUT/pandad" -connect "$ADDR" -smoke read -array smoke -nodes 2 -tenant b
"$OUT/pandad" -connect "$ADDR" -smoke read -array smoke2 -nodes 2 -tenant a
"$OUT/pandafsck" -v "$OUT/join1"
echo "elastic drain OK (slot released, data migrated off)"

# Graceful drain: SIGTERM must finish in-flight work, commit, and
# exit 0.
kill -TERM "$PID"
wait "$PID"
trap - EXIT

# fsck gate over what the daemon left behind.
"$OUT/pandafsck" -v "$DATA"
grep -q "drained" "$LOG" || { echo "daemon did not report a drain"; cat "$LOG"; exit 1; }

# The structured event log must carry the full lifecycle.
EVENTS="$DATA/events.jsonl"
[ -s "$EVENTS" ] || { echo "no events.jsonl"; exit 1; }
for ev in startup attach open detach reconfigure dump drain drained \
  server_join server_drain server_left rebalance_start rebalance_done; do
  grep -q "\"event\":\"$ev\"" "$EVENTS" \
    || { echo "event log missing $ev"; cat "$EVENTS"; exit 1; }
done
cp "$EVENTS" "$OUT/events.jsonl"
echo "event log OK ($(wc -l <"$EVENTS") events)"

# Restart over the same directory: the catalog alone names the arrays
# and their schemas, so a fresh client process reads both back by name.
LOG2="$OUT/pandad-restart.log"
rm -f "$ADDRFILE"
"$OUT/pandad" -addr 127.0.0.1:0 -dir "$DATA" -addr-file "$ADDRFILE" \
  -slots 8 -ions 2 -max-ions 4 -optimeout 60s >"$LOG2" 2>&1 &
PID=$!
trap 'kill -9 "$PID" 2>/dev/null || true' EXIT
for _ in $(seq 100); do [ -s "$ADDRFILE" ] && break; sleep 0.1; done
[ -s "$ADDRFILE" ] || { echo "restarted daemon never published its address"; cat "$LOG2"; exit 1; }
ADDR=$(cat "$ADDRFILE")
grep -q 'recovered: 2 arrays catalogued' "$LOG2" \
  || { echo "restarted daemon did not recover both arrays"; cat "$LOG2"; exit 1; }
"$OUT/pandad" -connect "$ADDR" -smoke read -array smoke -nodes 2 -tenant b
"$OUT/pandad" -connect "$ADDR" -smoke read -array smoke2 -nodes 2 -tenant a
kill -TERM "$PID"
wait "$PID"
trap - EXIT
"$OUT/pandafsck" -v "$DATA"
grep -q "drained" "$LOG2" || { echo "restarted daemon did not report a drain"; cat "$LOG2"; exit 1; }
echo "restart OK (both arrays read back by name)"
echo "daemon smoke OK"
