#!/usr/bin/env bash
# Builds the programs under test and the benchmark from this checkout, then
# runs the benchmark. Run from the checkout root:
#
#   bash perfbench/run.sh [size flags] --workload sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go build -o "$build/bin/" ./cmd/sweep ./cmd/sharingd ./cmd/fleet >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
