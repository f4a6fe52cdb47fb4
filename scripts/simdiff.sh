#!/usr/bin/env bash
# simdiff.sh — compare the simulator's output at a git ref with the
# working tree's, byte for byte.
#
#   scripts/simdiff.sh <ref>
#
# Exports <ref> into a temporary directory (git archive, so nothing is
# registered in .git and an interrupted run leaves no worktree behind),
# builds haexp and hachaos there and from the working tree, and runs
# the same suite with each:
#
#   haexp                                    seed 42, then seeds 1-8
#   hachaos -seeds 64 -workers 1 -profile p  every profile
#   hachaos -seeds 1024 -profile moving
#   hachaos -replay s -profile p -v          s in 1 7 23 64, every profile
#
# Each run's stdout, stderr and exit status land in one file per run.
# Prints a unified diff of the two sets and exits 1 iff any run's
# output differs (2 on a usage or build error). The temporary
# directory honours $TMPDIR and is removed on exit.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <ref>" >&2
  exit 2
fi
REF="$1"
REPO="$(cd "$(dirname "$0")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

PROFILES="readlocks acyclic unrestricted moving bank compaction placement"

mkdir -p "$TMP/src" "$TMP/old/bin" "$TMP/new/bin"
git -C "$REPO" archive "$REF" | tar -x -C "$TMP/src" || exit 2
for cmd in haexp hachaos; do
  (cd "$TMP/src" && go build -o "$TMP/old/bin/$cmd" "./cmd/$cmd") || exit 2
  (cd "$REPO" && go build -o "$TMP/new/bin/$cmd" "./cmd/$cmd") || exit 2
done

# run <side> <name> <cmd> [args...] records one run's output and status.
run() {
  local side="$1" name="$2" cmd="$3"
  shift 3
  local status=0
  "$TMP/$side/bin/$cmd" "$@" >"$TMP/$side/out/$name" 2>&1 || status=$?
  echo "exit $status" >>"$TMP/$side/out/$name"
}

for side in old new; do
  mkdir -p "$TMP/$side/out"
  run "$side" haexp-seed42 haexp
  for s in 1 2 3 4 5 6 7 8; do
    run "$side" "haexp-seed$s" haexp -seed "$s"
  done
  for p in $PROFILES; do
    run "$side" "hachaos-$p-64" hachaos -seeds 64 -workers 1 -profile "$p"
    for s in 1 7 23 64; do
      run "$side" "hachaos-$p-replay$s" hachaos -replay "$s" -profile "$p" -v
    done
  done
  run "$side" hachaos-moving-1024 hachaos -seeds 1024 -profile moving
done

runs=0 differ=0
for f in "$TMP/new/out"/*; do
  name="$(basename "$f")"
  runs=$((runs + 1))
  diff -u --label "$REF/$name" --label "worktree/$name" "$TMP/old/out/$name" "$f" ||
    differ=$((differ + 1))
done
if [ "$differ" -eq 0 ]; then
  echo "simdiff: $runs runs byte-identical to $REF"
  exit 0
fi
echo "simdiff: $differ of $runs runs differ from $REF" >&2
exit 1
