#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository root:
#
#   bash benchmark/run.sh --workload arith-global --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh compare <base-results-dir> <head-results-dir>
#
# The benchmark is its own Go module (benchmark/go.mod) that builds against
# the repository one directory up. Everything the build and the run write —
# Go build cache, temporary files, the binary, job stores and trace files —
# stays under .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/benchmark" && go build -o "$out/alsrac-bench" .)
cd "$root"
exec "$out/alsrac-bench" "$@"
