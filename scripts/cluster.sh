#!/usr/bin/env bash
# cluster.sh — launch and manage a local multi-process fragdb cluster.
#
#   scripts/cluster.sh start [n] [option] [hanode flags...]
#                                           start n hanode processes
#                                           (default 3, unrestricted);
#                                           trailing flags pass through
#                                           to every hanode (and to
#                                           restarts)
#   scripts/cluster.sh stop                 SIGTERM every node
#   scripts/cluster.sh kill9 <id>           kill -9 one node
#   scripts/cluster.sh restart <id>         relaunch a killed node
#   scripts/cluster.sh drop <id> <peer> <1|0>  set/clear a drop rule
#   scripts/cluster.sh partition <id> <1|0> isolate/heal node <id>
#                                           (drop rules on both sides)
#   scripts/cluster.sh status               per-node /healthz
#
# start and restart return once every node's /healthz reports every
# peer connected, and print how long that took (exit 1 after 10 s).
#
# State (pids, logs, the built hanode binary) lives in $RUNDIR, default
# /tmp/fragdb-cluster. Engine ports start at $ENGINE_BASE (7100), HTTP
# ports at $HTTP_BASE (8100).
set -euo pipefail

RUNDIR="${RUNDIR:-/tmp/fragdb-cluster}"
ENGINE_BASE="${ENGINE_BASE:-7100}"
HTTP_BASE="${HTTP_BASE:-8100}"
HOST=127.0.0.1
REPO="$(cd "$(dirname "$0")/.." && pwd)"

engine_addr() { echo "$HOST:$((ENGINE_BASE + $1))"; }
http_addr()   { echo "$HOST:$((HTTP_BASE + $1))"; }

peers_list() {
  local n="$1" out="" i
  for ((i = 0; i < n; i++)); do
    out+="${out:+,}$(engine_addr "$i")"
  done
  echo "$out"
}

launch_node() {
  local id="$1" n="$2" option="$3"
  local extra=()
  [ -s "$RUNDIR/extra" ] && mapfile -t extra <"$RUNDIR/extra"
  "$RUNDIR/hanode" \
    -id "$id" \
    -peers "$(peers_list "$n")" \
    -http "$(http_addr "$id")" \
    -option "$option" \
    ${extra[@]+"${extra[@]}"} \
    >>"$RUNDIR/node$id.log" 2>&1 &
  echo $! >"$RUNDIR/node$id.pid"
}

now_ms() { echo $(($(date +%s%N) / 1000000)); }

# wait_linked <since_ms>: poll every node's /healthz until each answers
# and reports every peer connected; print the links still down on
# timeout.
wait_linked() {
  local since="$1" n i body down
  n=$(cat "$RUNDIR/n")
  while (($(now_ms) - since < 10000)); do
    down=""
    for ((i = 0; i < n; i++)); do
      body=$(curl -fsS "http://$(http_addr "$i")/healthz" 2>/dev/null | tr -d ' \n') || body=""
      if [ -z "$body" ]; then
        down+=" node$i:http"
      elif [[ "$body" == *'"connected":false'* ]]; then
        down+=" node$i:peers"
      fi
    done
    if [ -z "$down" ]; then
      echo "links up: $((n * (n - 1))) links in $(($(now_ms) - since)) ms"
      return 0
    fi
    sleep 0.01
  done
  echo "links not up after $(($(now_ms) - since)) ms:$down" >&2
  return 1
}

cmd_start() {
  local n="${1:-3}" option="${2:-unrestricted}"
  [ $# -gt 0 ] && shift
  [ $# -gt 0 ] && shift
  mkdir -p "$RUNDIR"
  rm -f "$RUNDIR"/node*.pid "$RUNDIR"/node*.log
  echo "$n" >"$RUNDIR/n"
  echo "$option" >"$RUNDIR/option"
  if [ $# -gt 0 ]; then
    printf '%s\n' "$@" >"$RUNDIR/extra"
  else
    : >"$RUNDIR/extra"
  fi
  (cd "$REPO" && go build -o "$RUNDIR/hanode" ./cmd/hanode)
  local i since
  since=$(now_ms)
  for ((i = 0; i < n; i++)); do
    launch_node "$i" "$n" "$option"
  done
  wait_linked "$since"
  echo "cluster up: $n nodes, option=$option, http $(http_addr 0)..$(http_addr $((n - 1)))"
}

cmd_stop() {
  local pidfile pid
  for pidfile in "$RUNDIR"/node*.pid; do
    [ -e "$pidfile" ] || continue
    pid=$(cat "$pidfile")
    kill "$pid" 2>/dev/null || true
    rm -f "$pidfile"
  done
  echo "cluster stopped"
}

cmd_kill9() {
  local id="$1" pid
  pid=$(cat "$RUNDIR/node$id.pid")
  kill -9 "$pid"
  echo "node $id killed (pid $pid)"
}

cmd_restart() {
  local id="$1" since
  since=$(now_ms)
  launch_node "$id" "$(cat "$RUNDIR/n")" "$(cat "$RUNDIR/option")"
  echo "node $id relaunched (pid $(cat "$RUNDIR/node$id.pid"))"
  wait_linked "$since"
}

cmd_drop() {
  local id="$1" peer="$2" drop="$3"
  curl -fsS -X POST "http://$(http_addr "$id")/admin/drop?peer=$peer&drop=$drop"
}

cmd_partition() {
  local id="$1" drop="$2" n i
  n=$(cat "$RUNDIR/n")
  for ((i = 0; i < n; i++)); do
    [ "$i" = "$id" ] && continue
    cmd_drop "$id" "$i" "$drop" || true
    cmd_drop "$i" "$id" "$drop" || true
  done
  if [ "$drop" = 1 ]; then
    echo "node $id isolated"
  else
    echo "node $id healed"
  fi
}

cmd_status() {
  local n i
  n=$(cat "$RUNDIR/n")
  for ((i = 0; i < n; i++)); do
    echo "--- node $i ($(http_addr "$i")):"
    curl -fsS "http://$(http_addr "$i")/healthz" 2>/dev/null || echo "  unreachable"
  done
}

case "${1:-}" in
start)     shift; cmd_start "$@" ;;
stop)      shift; cmd_stop ;;
kill9)     shift; cmd_kill9 "$@" ;;
restart)   shift; cmd_restart "$@" ;;
drop)      shift; cmd_drop "$@" ;;
partition) shift; cmd_partition "$@" ;;
status)    shift; cmd_status ;;
*)
  sed -n '2,19p' "$0"
  exit 2
  ;;
esac
