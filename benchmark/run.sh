#!/usr/bin/env bash
# The command BENCHMARK.json names. It compiles the benchmark program and
# runs it with the arguments given. Everything the build writes — the Go
# build cache, temporary files, the binaries — goes under .bench_build/ in
# the checkout, so a run reads and writes nothing outside it. Developers
# can equally `go run ./benchmark`, which uses their own build cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
