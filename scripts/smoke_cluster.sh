#!/usr/bin/env bash
# smoke_cluster.sh — end-to-end smoke test of the alsracd cluster: start a
# coordinator and two workers, submit a job, kill -9 the worker that owns it
# right after its first checkpoint upload, and assert the other worker
# resumes and finishes with a result bitwise-identical to a single-process
# run of the same spec. Also checks the duplicate-submission cache hit and
# the cluster metrics surface.
# Usage: scripts/smoke_cluster.sh [port] (default 18447; port+1 is used for
# the single-process reference daemon).
set -euo pipefail
cd "$(dirname "$0")/.."

port="${1:-18447}"
refport=$((port + 1))
base="http://localhost:$port"
refbase="http://localhost:$refport"
dir="$(mktemp -d)"

go build -o "$dir/alsracd" ./cmd/alsracd

spec="metric=er&threshold=0.05&seed=3&eval=8192&workers=1"

cleanup() {
    kill "${coord_pid:-0}" "${w1_pid:-0}" "${w2_pid:-0}" "${ref_pid:-0}" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

wait_healthy() { # base-url log-file
    for i in $(seq 1 50); do
        if curl -sf "$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "server at $1 never became healthy"; cat "$2"; exit 1
}

poll_done() { # base-url job-id what
    local state=""
    for i in $(seq 1 600); do
        state="$(curl -sf "$1/jobs/$2" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')"
        case "$state" in
            done) return 0 ;;
            failed|cancelled|quarantined) echo "$3 ended in state $state"; exit 1 ;;
        esac
        sleep 0.1
    done
    echo "$3 stuck in state $state"; exit 1
}

# --- single-process reference run -----------------------------------------
"$dir/alsracd" -addr "localhost:$refport" -dir "$dir/ref" >"$dir/ref.log" 2>&1 &
ref_pid=$!
wait_healthy "$refbase" "$dir/ref.log"
rid="$(curl -sf -X POST --data-binary @examples/circuits/cla16.blif \
    "$refbase/jobs?$spec" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p')"
[ -n "$rid" ] || { echo "reference submit failed"; exit 1; }
poll_done "$refbase" "$rid" "reference job"
curl -sf "$refbase/jobs/$rid/result" >"$dir/reference.aag"
kill -TERM "$ref_pid"; wait "$ref_pid" 2>/dev/null || true
echo "reference run done ($(head -1 "$dir/reference.aag"))"

# --- cluster: coordinator + two workers -----------------------------------
"$dir/alsracd" -coordinator -addr "localhost:$port" -dir "$dir/coord" \
    -lease-ttl 2s -poll-interval 100ms >"$dir/coord.log" 2>&1 &
coord_pid=$!
wait_healthy "$base" "$dir/coord.log"

"$dir/alsracd" -worker -join "$base" -name victim -checkpoint-every 1 \
    >"$dir/w1.log" 2>&1 &
w1_pid=$!
"$dir/alsracd" -worker -join "$base" -name successor -checkpoint-every 1 \
    >"$dir/w2.log" 2>&1 &
w2_pid=$!
echo "coordinator up (pid $coord_pid), workers $w1_pid and $w2_pid"

id="$(curl -sf -X POST --data-binary @examples/circuits/cla16.blif \
    "$base/jobs?$spec" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p')"
[ -n "$id" ] || { echo "cluster submit failed"; exit 1; }
echo "submitted cluster job $id"

# Wait for the first checkpoint upload, then SIGKILL whichever worker owns
# the job — a real kill -9: no farewell checkpoint, no graceful anything.
owner=""
for i in $(seq 1 600); do
    ckpts="$(curl -sf "$base/metrics" | sed -n 's/^alsrac_cluster_checkpoints_total \([0-9]*\)$/\1/p')"
    if [ "${ckpts:-0}" -ge 1 ]; then
        owner="$(curl -sf "$base/jobs/$id" | sed -n 's/.*"worker": "\(w[0-9]*\)".*/\1/p')"
        break
    fi
    sleep 0.05
done
[ -n "$owner" ] || { echo "no checkpoint observed (job finished too fast or never ran)"; cat "$dir/coord.log"; exit 1; }
if grep -q "worker $owner (victim) registered" "$dir/coord.log"; then
    victim_pid=$w1_pid
elif grep -q "worker $owner (successor) registered" "$dir/coord.log"; then
    victim_pid=$w2_pid
else
    echo "cannot map owner $owner to a worker pid"; cat "$dir/coord.log"; exit 1
fi
kill -9 "$victim_pid"
echo "killed owning worker $owner (pid $victim_pid) after first checkpoint"

# The survivor must inherit the lease after expiry and finish the job.
poll_done "$base" "$id" "cluster job"
curl -sf "$base/jobs/$id/result" >"$dir/cluster.aag"
cmp "$dir/reference.aag" "$dir/cluster.aag" || {
    echo "BIT-IDENTITY VIOLATION: cluster kill-and-resume result differs from single-process run"
    exit 1
}
echo "kill-and-resume result is bitwise identical to the single-process run"

# Reassignment and checkpoint counters must have moved.
metrics="$(curl -sf "$base/metrics")"
printf '%s\n' "$metrics" | awk '/^alsrac_cluster_reassignments_total / { exit $2 >= 1 ? 0 : 1 }' || {
    echo "no reassignment recorded:"; printf '%s\n' "$metrics" | grep alsrac_cluster; exit 1; }
printf '%s\n' "$metrics" | awk '/^alsrac_cluster_leases_expired_total / { exit $2 >= 1 ? 0 : 1 }' || {
    echo "no lease expiry recorded:"; printf '%s\n' "$metrics" | grep alsrac_cluster; exit 1; }

# Duplicate submission: same circuit, same spec — must be an instant cache
# hit served from the content-addressed store, never reaching a worker.
dup="$(curl -sf -X POST --data-binary @examples/circuits/cla16.blif "$base/jobs?$spec")"
printf '%s' "$dup" | grep -q '"cache_hit": true' || { echo "duplicate was not a cache hit: $dup"; exit 1; }
printf '%s' "$dup" | grep -q '"state": "done"' || { echo "duplicate not instantly done: $dup"; exit 1; }
did="$(printf '%s' "$dup" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p')"
curl -sf "$base/jobs/$did/result" >"$dir/dup.aag"
cmp "$dir/reference.aag" "$dir/dup.aag" || { echo "cache hit served different bytes"; exit 1; }
metrics="$(curl -sf "$base/metrics")"
printf '%s\n' "$metrics" | grep -q '^alsrac_cluster_cache_hits_total 1$' || {
    echo "cache-hit counter did not move"; exit 1; }
echo "duplicate submission served from cache, bitwise identical"

# Graceful teardown of coordinator and surviving worker.
kill -TERM "$coord_pid"
for i in $(seq 1 100); do
    if ! kill -0 "$coord_pid" 2>/dev/null; then break; fi
    if [ "$i" = 100 ]; then echo "coordinator did not shut down"; cat "$dir/coord.log"; exit 1; fi
    sleep 0.1
done
echo "cluster smoke test passed"
