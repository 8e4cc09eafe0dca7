#!/usr/bin/env bash
# Builds lonad and the benchmark from the checkout's sources, then runs the
# benchmark with the arguments given. Run it from the repository root:
#
#   bash benchmark/run.sh --workload hot-repeat --seed 1 --seconds 15 --trace 0
#
# Everything it writes — build cache, binaries, scratch files, trace.json —
# stays under .bench_build/ in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/lonad" ./cmd/lonad
go build -C benchmark -o "$build/lonabench" .
exec "$build/lonabench" -lonad "$build/lonad" -work "$build" "$@"
