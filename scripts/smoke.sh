#!/usr/bin/env bash
# smoke.sh — CI smoke test of the real deployment: start a 3-process
# cluster, drive it briefly with haload, and assert that operations
# commit, every peer link connects, and the replicas expose consistent
# commutative totals and identical bank balances. Artifacts (per-node logs, the haload JSON report)
# stay in $RUNDIR for upload.
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
export RUNDIR="${RUNDIR:-/tmp/fragdb-smoke}"
CLUSTER="$REPO/scripts/cluster.sh"
trap '"$CLUSTER" stop >/dev/null 2>&1 || true' EXIT

"$CLUSTER" start 3 unrestricted
(cd "$REPO" && go build -o "$RUNDIR/haload" ./cmd/haload)

TARGETS=127.0.0.1:8100,127.0.0.1:8101,127.0.0.1:8102
"$RUNDIR/haload" -targets "$TARGETS" -clients 16 -duration 5s \
  -quiet -out "$RUNDIR/smoke.json"

fail() { echo "SMOKE FAIL: $*" >&2; exit 1; }

committed=$(sed -n 's/^ *"committed": \([0-9]*\),*/\1/p' "$RUNDIR/smoke.json" | head -1)
failed=$(sed -n 's/^ *"failed": \([0-9]*\),*/\1/p' "$RUNDIR/smoke.json" | head -1)
[ -n "$committed" ] && [ "$committed" -gt 100 ] ||
  fail "too few commits: ${committed:-none}"
[ "${failed:-1}" = 0 ] || fail "transport failures during healthy run: $failed"

# Every peer link must report connected.
for i in 0 1 2; do
  down=$(curl -fsS "http://127.0.0.1:$((8100 + i))/healthz" |
    grep -c '"connected": false' || true)
  [ "$down" = 0 ] || fail "node $i reports disconnected peers"
done

# Commutative totals must converge to the same value at every replica.
for _ in $(seq 1 100); do
  counters=$(for i in 0 1 2; do
    curl -fsS "http://127.0.0.1:$((8100 + i))/state" |
      sed -n 's/^ *"counter": \([0-9]*\),*/\1/p'
  done)
  [ "$(echo "$counters" | sort -u | wc -l)" = 1 ] && converged=1 && break
  converged=0
  sleep 0.2
done
[ "${converged:-0}" = 1 ] || fail "counter totals did not converge: $counters"

# The central office folds ACTIVITY into BALANCES at node 0; once it
# has caught up, every replica must hold the same balances.
for _ in $(seq 1 100); do
  balances=$(for i in 0 1 2; do
    curl -fsS "http://127.0.0.1:$((8100 + i))/state" |
      sed -n '/"balances"/,/}/p' | tr -d ' \n'
    echo
  done)
  [ "$(echo "$balances" | sort -u | wc -l)" = 1 ] && agreed=1 && break
  agreed=0
  sleep 0.2
done
[ "${agreed:-0}" = 1 ] || fail "balances differ across replicas: $balances"

echo "SMOKE OK: $committed commits, counters converged at $(echo "$counters" | head -1)," \
  "balances agree: $(echo "$balances" | head -1)"
