#!/usr/bin/env bash
# churn_smoke.sh — black-box churn battery for the elastic server pool:
# a pandad daemon with spare pool capacity takes two runtime joiners
# (pandad -join), one is SIGKILLed and must be declared lost by its
# lease, the arrays are rewritten around the corpse and read back
# bit-exact, the surviving joiner is drained out with its data migrated
# off, and the daemon exits through a clean SIGTERM drain with every
# directory — including the dead node's — passing pandafsck. The full
# membership story must land in events.jsonl. Artifacts go to
# $CHURN_SMOKE_OUT (default ./churn-artifacts) for CI upload.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${CHURN_SMOKE_OUT:-churn-artifacts}
rm -rf "$OUT"
mkdir -p "$OUT"
DATA="$OUT/data"
LOG="$OUT/pandad.log"
ADDRFILE="$OUT/addr"
HTTPADDRFILE="$OUT/http-addr"

go build -o "$OUT/pandad" ./cmd/pandad
go build -o "$OUT/pandafsck" ./cmd/pandafsck
go build -o "$OUT/pandastat" ./cmd/pandastat

# Short lease so the SIGKILL below is detected in seconds.
"$OUT/pandad" -addr 127.0.0.1:0 -dir "$DATA" -addr-file "$ADDRFILE" \
  -max-ions 5 -lease 2s -heartbeat 500ms \
  -http 127.0.0.1:0 -http-addr-file "$HTTPADDRFILE" >"$LOG" 2>&1 &
PID=$!
J1PID=""
J2PID=""
trap 'kill -9 "$PID" $J1PID $J2PID 2>/dev/null || true' EXIT

for _ in $(seq 100); do [ -s "$ADDRFILE" ] && [ -s "$HTTPADDRFILE" ] && break; sleep 0.1; done
[ -s "$ADDRFILE" ] || { echo "daemon never published its address"; cat "$LOG"; exit 1; }
ADDR=$(cat "$ADDRFILE")
HTTP=$(cat "$HTTPADDRFILE")
echo "daemon on $ADDR, telemetry on $HTTP (pid $PID)"

pool() { curl -fsS "http://$HTTP/servers"; }
wait_pool() { # wait_pool PATTERN DESCRIPTION
  for _ in $(seq 100); do pool | grep -q "$1" && return 0; sleep 0.2; done
  echo "pool never reached: $2"; pool; cat "$LOG"; exit 1
}

"$OUT/pandad" -connect "$ADDR" -smoke write -array c1 -nodes 2 -seed 11
"$OUT/pandad" -connect "$ADDR" -smoke write -array c2 -nodes 2 -seed 12

# Joiner 1: the pool grows to 3 and pre-join data survives.
"$OUT/pandad" -join "$ADDR" -dir "$OUT/join1" >"$OUT/join1.log" 2>&1 &
J1PID=$!
wait_pool '"active": 3' "joiner 1 active"
"$OUT/pandad" -connect "$ADDR" -smoke read -array c1 -nodes 2 -seed 11
"$OUT/pandad" -connect "$ADDR" -smoke read -array c2 -nodes 2 -seed 12
echo "join 1 OK (pool of 3)"

# Joiner 2, then SIGKILL it: the lease must declare the slot lost.
"$OUT/pandad" -join "$ADDR" -dir "$OUT/join2" >"$OUT/join2.log" 2>&1 &
J2PID=$!
wait_pool '"active": 4' "joiner 2 active"
kill -9 "$J2PID"
wait "$J2PID" 2>/dev/null || true
J2PID=""
wait_pool '"state": "lost"' "SIGKILLed joiner declared lost"
echo "loss detected via lease expiry"

# Rewrite around the corpse and verify; the dead slot is planned out.
"$OUT/pandad" -connect "$ADDR" -smoke write -array c1 -nodes 2 -seed 21
"$OUT/pandad" -connect "$ADDR" -smoke write -array c2 -nodes 2 -seed 22
"$OUT/pandad" -connect "$ADDR" -smoke read -array c1 -nodes 2 -seed 21
"$OUT/pandad" -connect "$ADDR" -smoke read -array c2 -nodes 2 -seed 22
echo "rewrite around the lost node OK"

# Drain joiner 1 (slot 2: first vacancy above the two residents): its
# chunks migrate off first and the process exits 0.
"$OUT/pandastat" -addr "$HTTP" drain-server 2 >"$OUT/pandastat-drain.txt"
wait "$J1PID" || { echo "drained node exited dirty"; cat "$OUT/join1.log"; exit 1; }
J1PID=""
"$OUT/pandad" -connect "$ADDR" -smoke read -array c1 -nodes 2 -seed 21
"$OUT/pandad" -connect "$ADDR" -smoke read -array c2 -nodes 2 -seed 22
wait_pool '"active": 2' "pool back to the residents"
# No leaked leases: every surviving row is pinned (lease_ms -1).
if pool | grep -q '"lease_ms": [0-9]'; then
  echo "leaked lease after churn"; pool; exit 1
fi
echo "drain OK (pool back to 2, no leases)"

# Graceful daemon exit, then fsck every directory the churn touched —
# the killed node's may hold warn-level debris, never a broken commit.
kill -TERM "$PID"
wait "$PID"
trap - EXIT
"$OUT/pandafsck" -v "$DATA"
"$OUT/pandafsck" -v "$OUT/join1"
"$OUT/pandafsck" -v "$OUT/join2"
# Repair sweeps whatever the killed node left; its directory still scrubs.
"$OUT/pandafsck" -repair "$OUT/join2"
"$OUT/pandafsck" -v "$OUT/join2"

EVENTS="$DATA/events.jsonl"
cp "$EVENTS" "$OUT/events.jsonl"
for ev in server_join server_drain server_left server_lost rebalance_start rebalance_done; do
  grep -q "\"event\":\"$ev\"" "$EVENTS" \
    || { echo "event log missing $ev"; cat "$EVENTS"; exit 1; }
done
echo "membership event log OK"
echo "churn smoke OK"
