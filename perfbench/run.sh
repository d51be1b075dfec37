#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload dse-grid --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the benchmark binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
