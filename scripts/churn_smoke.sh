#!/usr/bin/env bash
# churn_smoke.sh — black-box churn battery for the elastic server pool:
# a pandad daemon with spare pool capacity takes three runtime joiners
# (pandad -join). One is SIGKILLed and must be declared lost within a
# second, by the end of its control connection rather than its 2s
# lease; the arrays are rewritten around the corpse and read back
# bit-exact. One is SIGSTOPped with both its sockets open and must be
# declared lost by its lease. The first joiner is drained out with its
# data migrated off, and the daemon exits through a clean SIGTERM drain
# with every directory — the dead and the stopped node's included —
# passing pandafsck. The full membership story must land in
# events.jsonl. Artifacts go to $CHURN_SMOKE_OUT (default
# ./churn-artifacts) for CI upload.
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

# Short lease so the SIGSTOP below is detected in seconds.
"$OUT/pandad" -addr 127.0.0.1:0 -dir "$DATA" -addr-file "$ADDRFILE" \
  -max-ions 5 -lease 2s -heartbeat 500ms \
  -http 127.0.0.1:0 -http-addr-file "$HTTPADDRFILE" >"$LOG" 2>&1 &
PID=$!
J1PID=""
J2PID=""
J3PID=""
# The trap also ends the stopped joiner, on success as on failure.
trap 'kill -9 $PID $J1PID $J2PID $J3PID 2>/dev/null || true' EXIT

for _ in $(seq 100); do [ -s "$ADDRFILE" ] && [ -s "$HTTPADDRFILE" ] && break; sleep 0.1; done
[ -s "$ADDRFILE" ] || { echo "daemon never published its address"; cat "$LOG"; exit 1; }
ADDR=$(cat "$ADDRFILE")
HTTP=$(cat "$HTTPADDRFILE")
echo "daemon on $ADDR, telemetry on $HTTP (pid $PID)"

pool() { curl -fsS "http://$HTTP/servers"; }
wait_pool() { # wait_pool PATTERN DESCRIPTION [TENTHS] — give up after TENTHS/10 s (default 20 s)
  for _ in $(seq "${3:-200}"); do pool | grep -q "$1" && return 0; sleep 0.1; done
  echo "pool never reached: $2"; pool; cat "$LOG"; exit 1
}
rebalances() { grep -c '"event":"rebalance_done"' "$DATA/events.jsonl" || true; }

"$OUT/pandad" -connect "$ADDR" -smoke write -array c1 -nodes 2 -seed 11
"$OUT/pandad" -connect "$ADDR" -smoke write -array c2 -nodes 2 -seed 12

# Joiner 1: the pool grows to 3 and pre-join data survives.
"$OUT/pandad" -join "$ADDR" -dir "$OUT/join1" >"$OUT/join1.log" 2>&1 &
J1PID=$!
wait_pool '"active": 3' "joiner 1 active"
"$OUT/pandad" -connect "$ADDR" -smoke read -array c1 -nodes 2 -seed 11
"$OUT/pandad" -connect "$ADDR" -smoke read -array c2 -nodes 2 -seed 12
echo "join 1 OK (pool of 3)"

# Joiner 2, then SIGKILL it: the end of its control connection must
# declare the slot lost within a second — well inside the 2s lease.
"$OUT/pandad" -join "$ADDR" -dir "$OUT/join2" >"$OUT/join2.log" 2>&1 &
J2PID=$!
wait_pool '"active": 4' "joiner 2 active"
T0=$(date +%s%N)
kill -9 "$J2PID"
wait_pool '"state": "lost"' "SIGKILLed joiner declared lost" 20
MS=$((($(date +%s%N) - T0) / 1000000))
[ "$MS" -le 1000 ] || { echo "SIGKILLed joiner declared lost after ${MS}ms, want <= 1000ms"; exit 1; }
wait "$J2PID" 2>/dev/null || true
J2PID=""
echo "loss detected ${MS}ms after the kill, when the control connection ended"

# Rewrite around the corpse and verify; the dead slot is planned out.
"$OUT/pandad" -connect "$ADDR" -smoke write -array c1 -nodes 2 -seed 21
"$OUT/pandad" -connect "$ADDR" -smoke write -array c2 -nodes 2 -seed 22
"$OUT/pandad" -connect "$ADDR" -smoke read -array c1 -nodes 2 -seed 21
"$OUT/pandad" -connect "$ADDR" -smoke read -array c2 -nodes 2 -seed 22
echo "rewrite around the lost node OK"

# Joiner 3 takes the lost slot (lowest vacancy after the drainable 2).
# Once its join rebalance is done — so no operation waits on it — it is
# SIGSTOPped with both sockets open: only the lease can declare it lost.
DONE=$(rebalances)
"$OUT/pandad" -join "$ADDR" -dir "$OUT/join3" >"$OUT/join3.log" 2>&1 &
J3PID=$!
wait_pool '"active": 4' "joiner 3 active"
for _ in $(seq 200); do [ "$(rebalances)" -gt "$DONE" ] && break; sleep 0.1; done
[ "$(rebalances)" -gt "$DONE" ] || { echo "joiner 3's rebalance never finished"; cat "$LOG"; exit 1; }
kill -STOP "$J3PID"
wait_pool '"state": "lost"' "SIGSTOPped joiner declared lost by its lease"
"$OUT/pandad" -connect "$ADDR" -smoke read -array c1 -nodes 2 -seed 21
"$OUT/pandad" -connect "$ADDR" -smoke read -array c2 -nodes 2 -seed 22
echo "silent joiner lost via lease expiry"

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
# The stopped joiner is still stopped; the exit trap ends it.
kill -TERM "$PID"
wait "$PID"
PID=""
"$OUT/pandafsck" -v "$DATA"
"$OUT/pandafsck" -v "$OUT/join1"
"$OUT/pandafsck" -v "$OUT/join2"
"$OUT/pandafsck" -v "$OUT/join3"
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
