#!/usr/bin/env bash
# bench.sh — run the core benchmarks (simulation, candidate generation,
# optimizer script, candidate ranking, end-to-end flow, service job
# throughput, cluster dispatch) and record ns/op, B/op and allocs/op as JSON.
# Usage: scripts/bench.sh OUT.json; BENCHTIME overrides the per-benchmark
# time (default 1s). The output path is required: benchcheck.sh gates on the
# committed BENCH_*.json records, so a run must never overwrite one by
# default.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
    echo "usage: scripts/bench.sh OUT.json" >&2
    exit 2
fi
out="$1"
benchtime="${BENCHTIME:-1s}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench 'BenchmarkSimulate$|BenchmarkGenerate$|BenchmarkOptimize$|BenchmarkALSRACFlowRCA32$' \
    -benchmem -benchtime="$benchtime" . | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkRankCandidates$|BenchmarkSessionStep$|BenchmarkWindowedFlow$' \
    -benchmem -benchtime="$benchtime" ./internal/core | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkServiceThroughput$' \
    -benchmem -benchtime="$benchtime" ./internal/service | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkCertifyExhaustive$|BenchmarkCertifySAT$' \
    -benchmem -benchtime="$benchtime" ./internal/exact | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkClusterDispatch$' \
    -benchmem -benchtime="$benchtime" ./internal/cluster | tee -a "$tmp"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; b = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "B/op") b = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "    \"%s\": {\"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", \
        name, ns, (b == "" ? 0 : b), (allocs == "" ? 0 : allocs)
}
BEGIN { printf "{\n  \"benchmarks\": {\n" }
END   { printf "\n  }\n}\n" }
' "$tmp" > "$out"

echo "wrote $out"
