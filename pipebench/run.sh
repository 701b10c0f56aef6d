#!/usr/bin/env bash
# Builds the whole-pipeline benchmark from source and runs it. Run it from
# the repository root, for example:
#
#   bash pipebench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and temporary build files stay under
# .bench_build/ in the working directory: a fresh checkout compiles once,
# later runs reuse the cache.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/cache" "$out/tmp"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd pipebench && go build -buildvcs=false -o "$out/pipebench" .)
exec "$out/pipebench" "$@"
