#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload zipf_hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temp files, WAL and L2 directories, span files) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/work"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/work" "$@"
