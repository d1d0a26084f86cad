#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# run write stays under the current directory: the Go build cache and
# the binary in .bench_build, scratch files, traces and the exact-count
# ledger in .bench_out. Build output goes to standard error, so the last
# line of standard output is the benchmark's JSON result.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$root/.bench_out" "$@"
