#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command") and the harness's
# build file: build ./benchmark from source with the module at the root
# of the checkout and run it from there, keeping everything the toolchain
# writes — build cache, work directory, telemetry mode, binary — under
# .bench_build in the checkout. By hand, `go run ./benchmark <flags>`
# does the same with your own Go cache.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod beside benchmark/: nothing to build" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config/go/telemetry"
# With no telemetry state in its config dir the go command starts a
# detached uploader child that outlives it; mode "off" starts none.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false
export XDG_CONFIG_HOME="$build/config"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
