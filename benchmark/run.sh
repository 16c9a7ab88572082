#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it: the entry point
# BENCHMARK.json names. Everything the build and the run write — the Go
# build cache included — stays under .bench_build/ in the current
# directory, which must be the repository root. The benchmark is a module of
# its own (benchmark/go.mod), so it is built from its directory; it then
# builds the daemons from the root.
#
#   bash benchmark/run.sh --workload trickle --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/incgraphd ]; then
	echo "benchmark/run.sh: run from the root of a checkout (go.mod and cmd/incgraphd not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters and env file there.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C benchmark -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" -build-dir "$out" "$@"
