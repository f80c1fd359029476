#!/usr/bin/env bash
# Tier-1 verification: build, vet, gofmt, the project's own analyzer suite (all
# seven rules — determinism, concurrency, tailmask, plus the
# interprocedural allocflow, leaks, ctxflow and errwrap on the shared
# dataflow engine), the full test suite, vet and tests of the benchmark
# module, the race detector over the concurrency-bearing packages, and a
# short fuzz smoke over the property-tested kernels. Any failure is fatal
# (set -e): a vet finding, an unformatted file, an alsraclint diagnostic, a
# race, or a fuzz counterexample all fail the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt -l lists unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go run ./cmd/alsraclint ./...
go test ./...
# benchmark/ is a module of its own, which the ./... patterns above skip.
(cd benchmark && go vet ./... && go test ./...)
go test -race ./internal/wordops ./internal/sim ./internal/resub ./internal/window ./internal/errest ./internal/opt ./internal/core ./internal/exact ./internal/exact/sat ./internal/obs ./internal/service ./internal/faultfs ./internal/cluster

# Chaos gate: the seeded fault-injection matrix (torn writes, injected
# errnos, crash points, worker panics, crash-loop quarantine, network
# faults) on both transports, plus the lease and store faults over the
# wire, under the race detector. Set CHAOS=0 to skip locally; CI always
# runs it.
CHAOS="${CHAOS:-1}"
if [ "$CHAOS" != "0" ]; then
    go test -race -run '^TestChaos' ./internal/service
    go test -race -run '^Test(ClusterKill|LongStepKeepsLease|CASConcurrent|TornCheckpoint)' ./internal/cluster
fi

# Daemon e2e smoke: submit over HTTP, poll to completion, scrape /metrics,
# graceful shutdown.
scripts/smoke_daemon.sh

# Cluster e2e smoke: a daemon with no local workers (-coordinator) + two
# remote workers, kill -9 the owning worker
# after its first checkpoint, assert the survivor finishes bit-identically
# to a single-process run, and that a duplicate submission is a cache hit.
scripts/smoke_cluster.sh

# Fuzz smoke: 10 seconds per target (go runs one -fuzz target at a time).
FUZZTIME="${FUZZTIME:-10s}"
go test -run='^$' -fuzz='^FuzzCoverScan$' -fuzztime="$FUZZTIME" ./internal/resub
go test -run='^$' -fuzz='^FuzzISOP$' -fuzztime="$FUZZTIME" ./internal/tt
go test -run='^$' -fuzz='^FuzzCutTruth$' -fuzztime="$FUZZTIME" ./internal/cut
go test -run='^$' -fuzz='^FuzzEspresso$' -fuzztime="$FUZZTIME" ./internal/espresso
go test -run='^$' -fuzz='^FuzzAIGERParse$' -fuzztime="$FUZZTIME" ./internal/aiger
go test -run='^$' -fuzz='^FuzzBLIFParse$' -fuzztime="$FUZZTIME" ./internal/blif
go test -run='^$' -fuzz='^FuzzMiterSAT$' -fuzztime="$FUZZTIME" ./internal/exact
go test -run='^$' -fuzz='^FuzzCASFrame$' -fuzztime="$FUZZTIME" ./internal/service
go test -run='^$' -fuzz='^FuzzRankKernel$' -fuzztime="$FUZZTIME" ./internal/errest
go test -run='^$' -fuzz='^FuzzMFFC$' -fuzztime="$FUZZTIME" ./internal/aig
