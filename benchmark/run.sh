#!/bin/bash
# Builds the benchmark from source and runs it, keeping everything the
# build writes (Go's build cache, temporary files, the binary) under
# .bench_build in the directory it is run from — the root of a checkout.
# BENCHMARK.json's command; by hand, `go run ./benchmark` does the same
# with Go's usual cache.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
