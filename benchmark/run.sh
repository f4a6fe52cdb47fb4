#!/usr/bin/env bash
# Builds fragbench and the hanode it drives from this tree into
# .bench_build/ (GOCACHE included, so nothing outside the checkout is
# touched) and runs fragbench with the given arguments. BENCHMARK.json's
# command is `bash benchmark/run.sh`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
[ -n "${HOME:-}" ] || export GOPATH="$out/gopath" # go needs one of the two, even with nothing to download
(cd "$here" && go build -o "$out/fragbench" ./cmd/fragbench && go build -o "$out/hanode" fragdb/cmd/hanode)
exec "$out/fragbench" -root "$root" "$@"
