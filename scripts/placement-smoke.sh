#!/usr/bin/env bash
# placement-smoke.sh — CI smoke test of adaptive placement on a real
# cluster: start 3 hanode processes with the placement controller
# enabled, drive a skewed counter workload whose locality shifts
# mid-run, and assert at least one automatic migration completed — visible both in /admin/placement and
# as a changed counter-agent home — while the replicas stayed
# consistent. Artifacts (load report, placement snapshots, node logs)
# stay in $RUNDIR for upload.
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
export RUNDIR="${RUNDIR:-/tmp/fragdb-placement-smoke}"
CLUSTER="$REPO/scripts/cluster.sh"
TARGETS=127.0.0.1:8100,127.0.0.1:8101,127.0.0.1:8102
trap '"$CLUSTER" stop >/dev/null 2>&1 || true' EXIT

"$CLUSTER" start 3 unrestricted \
  -placement -placement-interval 500ms
(cd "$REPO" && go build -o "$RUNDIR/haload" ./cmd/haload)

# All-bump mix, 90% aimed at a remote counter, re-aimed at 6s: the
# access pattern the controller exists to chase.
"$RUNDIR/haload" -targets "$TARGETS" -clients 16 -duration 12s -quiet \
  -mix bump=1 -skew 0.9 -shift-at 6s -out "$RUNDIR/load.json"
# Let in-flight moves and quasi-applies finish before inspecting.
sleep 2

fail() {
  echo "PLACEMENT SMOKE FAIL: $*" >&2
  for i in 0 1 2; do
    echo "--- node $i placement:" >&2
    cat "$RUNDIR/placement$i.json" >&2 || true
  done
  exit 1
}

total_moves=0
for i in 0 1 2; do
  curl -fsS "http://127.0.0.1:810$i/admin/placement" \
    >"$RUNDIR/placement$i.json" || fail "node $i /admin/placement unreachable"
  # History records carry a boolean "completed" — match only the
  # integer status counter.
  moves=$(sed -n 's/^ *"completed": \([0-9][0-9]*\),*$/\1/p' "$RUNDIR/placement$i.json" | head -1)
  total_moves=$((total_moves + ${moves:-0}))
done
[ "$total_moves" -ge 1 ] ||
  fail "no automatic migration completed anywhere (total=$total_moves)"
grep -q '"agent":' "$RUNDIR"/placement*.json ||
  fail "no migration history recorded despite completed count"

# The skewed load must have actually committed, and every replica must
# agree on the counter total after the moves.
commits=$(sed -n 's/^ *"committed": \([0-9]*\),*/\1/p' "$RUNDIR/load.json" | head -1)
[ -n "$commits" ] && [ "$commits" -gt 0 ] || fail "load committed nothing"
totals=""
for i in 0 1 2; do
  curl -fsS "http://127.0.0.1:810$i/state" >"$RUNDIR/state$i.json" ||
    fail "node $i /state unreachable"
  ctr=$(sed -n 's/^ *"counter": \([0-9]*\),*/\1/p' "$RUNDIR/state$i.json" | head -1)
  totals+="${totals:+ }$ctr"
done
set -- $totals
[ "$1" = "$2" ] && [ "$2" = "$3" ] ||
  fail "replicas disagree on counter total: $totals"

echo "PLACEMENT SMOKE OK: $total_moves migrations, $commits commits, counter=$1 on all nodes"
