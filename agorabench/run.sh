#!/usr/bin/env bash
# Builds the agora benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, e.g.
#
#   bash agorabench/run.sh --workload scatter-read --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and run output stays inside the checkout:
# .bench_build holds the Go caches and the binary, .bench_out the span files,
# result records and (while a run lasts) the shard directories.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C agorabench build -o "$build/agorabench" .
exec "$build/agorabench" "$@"
