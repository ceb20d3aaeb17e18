#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, keeping
# everything the build and the run write inside the checkout: the Go
# build cache, temporary files, the binaries, the database directories
# and the span files all live under .bench_build/. Run it from the
# module root:
#
#   bash benchmark/run.sh --workload read_cached --seed 1 --seconds 10 --trace 0
#
# `go run ./benchmark ...` does the same with the user's own Go cache.
set -euo pipefail
work="$PWD/.bench_build"
mkdir -p "$work/gocache" "$work/gomod" "$work/tmp" "$work/bin"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$work/bin/benchmark" ./benchmark
exec "$work/bin/benchmark" -workdir "$work" "$@"
