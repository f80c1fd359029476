#!/usr/bin/env bash
# smoke_daemon.sh — end-to-end smoke test of the alsracd daemon: build it,
# start it, submit an example circuit over HTTP, follow the job to
# completion, fetch the result, scrape /metrics, and shut down gracefully.
# Usage: scripts/smoke_daemon.sh [port] (default 18337).
set -euo pipefail
cd "$(dirname "$0")/.."

port="${1:-18337}"
base="http://localhost:$port"
dir="$(mktemp -d)"
log="$dir/alsracd.log"

go build -o "$dir/alsracd" ./cmd/alsracd

"$dir/alsracd" -addr "localhost:$port" -dir "$dir/jobs" -jobs 2 >"$log" 2>&1 &
pid=$!
cleanup() {
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

# Wait for the daemon to come up.
for i in $(seq 1 50); do
    if curl -sf "$base/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then echo "daemon never became healthy"; cat "$log"; exit 1; fi
    sleep 0.1
done
echo "daemon healthy on port $port"

# Refusals: POST /jobs refuses what alsrac refuses with a 400 naming the
# limit or the parameter, and creates no job. A 65-output circuit under
# metric=nmed (the value metrics read the outputs as one 64-bit number),
# r=1.5 (the shrink factor lies in (0, 1]), threshold=Inf (a non-finite
# float) and the misspelt thresold=0.5 (an unknown parameter).
wide="$dir/wide.blif"
{
    printf '.model wide\n.inputs a b\n.outputs'
    for o in $(seq 0 64); do printf ' o%d' "$o"; done
    printf '\n'
    for o in $(seq 0 64); do printf '.names a b o%d\n11 1\n' "$o"; done
    printf '.end\n'
} >"$wide"
for req in "$wide|metric=nmed|supports at most 64" "examples/circuits/cla16.blif|r=1.5|scale (r)" \
           "examples/circuits/cla16.blif|threshold=Inf|threshold (threshold) must be finite" \
           "examples/circuits/cla16.blif|metric=er&thresold=0.5|unknown parameter \\\"thresold\\\""; do
    IFS='|' read -r file query want <<<"$req"
    code="$(curl -s -o "$dir/refused.json" -w '%{http_code}' -X POST --data-binary @"$file" "$base/jobs?$query")"
    if [ "$code" != 400 ] || ! grep -qF "$want" "$dir/refused.json"; then
        echo "POST /jobs?$query: status $code, want 400 naming \"$want\":"; cat "$dir/refused.json"; exit 1
    fi
done
if curl -sf "$base/jobs" | grep -q '"id"'; then
    echo "a refused submission created a job:"; curl -sf "$base/jobs"; exit 1
fi
echo "refusals OK"

# Submit the example circuit.
submit="$(curl -sf -X POST --data-binary @examples/circuits/cla16.blif \
    "$base/jobs?metric=er&threshold=0.05&seed=3&eval=1024")"
id="$(printf '%s' "$submit" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p')"
if [ -z "$id" ]; then echo "submit failed: $submit"; exit 1; fi
# A refusal allocates no job id.
if [ "$id" != j000001 ]; then echo "first accepted job is $id, want j000001"; exit 1; fi
echo "submitted job $id"

# Poll until the job reaches a terminal state.
state=""
for i in $(seq 1 600); do
    status="$(curl -sf "$base/jobs/$id?history=0")"
    state="$(printf '%s' "$status" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')"
    case "$state" in
        done) break ;;
        failed|cancelled) echo "job ended in state $state: $status"; exit 1 ;;
    esac
    if [ "$i" = 600 ]; then echo "job stuck in state $state"; exit 1; fi
    sleep 0.1
done
echo "job $id done"

# The event stream must replay to a terminal event.
events="$(curl -sf "$base/jobs/$id/events")"
printf '%s\n' "$events" | grep -q '"state":"done"' || {
    echo "event stream has no terminal event:"; printf '%s\n' "$events"; exit 1; }

# Fetch the result and sanity-check it is an AIGER file.
curl -sf "$base/jobs/$id/result" >"$dir/result.aag"
head -c 4 "$dir/result.aag" | grep -q "aag " || {
    echo "result is not ASCII AIGER:"; head -1 "$dir/result.aag"; exit 1; }
echo "result: $(head -1 "$dir/result.aag")"

# Scrape /metrics and check the counters moved.
metrics="$(curl -sf "$base/metrics")"
printf '%s\n' "$metrics" | grep -q '^alsrac_jobs_submitted_total 1$' || {
    echo "unexpected submitted counter:"; printf '%s\n' "$metrics" | grep alsrac_jobs; exit 1; }
printf '%s\n' "$metrics" | grep -q '^alsrac_jobs{state="done"} 1$' || {
    echo "job not counted as done:"; printf '%s\n' "$metrics" | grep alsrac_jobs; exit 1; }

# The robustness series must be exported even when nothing went wrong (a
# clean run reports them at 0) so dashboards and alerts can rely on them.
for series in alsrac_checkpoint_fallback_total alsrac_store_retries_total \
              alsrac_jobs_quarantined_total alsrac_worker_panics_total; do
    printf '%s\n' "$metrics" | grep -q "^$series " || {
        echo "missing robustness series $series:"; printf '%s\n' "$metrics"; exit 1; }
done
echo "metrics OK"

# Certified job type: metric=maxerr runs the same circuit with every commit
# proven by the exact max-error checker. The bound defaults to the threshold.
submit="$(curl -sf -X POST --data-binary @examples/circuits/cla16.blif \
    "$base/jobs?metric=maxerr&threshold=0.05&seed=3&eval=1024")"
cid="$(printf '%s' "$submit" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p')"
if [ -z "$cid" ]; then echo "certified submit failed: $submit"; exit 1; fi
echo "submitted certified job $cid"

state=""
for i in $(seq 1 600); do
    status="$(curl -sf "$base/jobs/$cid?history=0")"
    state="$(printf '%s' "$status" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')"
    case "$state" in
        done) break ;;
        failed|cancelled) echo "certified job ended in state $state: $status"; exit 1 ;;
    esac
    if [ "$i" = 600 ]; then echo "certified job stuck in state $state"; exit 1; fi
    sleep 0.1
done
echo "certified job $cid done"

# Its NDJSON stream must carry certified step events — and never a plain
# "applied" one: in certified mode every commit goes through the checker.
events="$(curl -sf "$base/jobs/$cid/events")"
printf '%s\n' "$events" | grep -q '"kind":"certified"' || {
    echo "no certified event in stream:"; printf '%s\n' "$events" | head -5; exit 1; }
printf '%s\n' "$events" | grep -q '"kind":"applied"' && {
    echo "plain applied event in a certified job:"; printf '%s\n' "$events" | head -5; exit 1; }

# The certification instruments must be exported and the call counter moved.
metrics="$(curl -sf "$base/metrics")"
printf '%s\n' "$metrics" | grep -q '^alsrac_certify_total{backend="' || {
    echo "missing alsrac_certify_total:"; printf '%s\n' "$metrics" | grep alsrac_certify; exit 1; }
printf '%s\n' "$metrics" | awk '/^alsrac_certify_total\{/ { sum += $2 } END { exit sum > 0 ? 0 : 1 }' || {
    echo "alsrac_certify_total never moved:"; printf '%s\n' "$metrics" | grep alsrac_certify; exit 1; }
for series in alsrac_certify_rejected_total alsrac_sat_conflicts_total; do
    printf '%s\n' "$metrics" | grep -q "^$series " || {
        echo "missing certification series $series:"; printf '%s\n' "$metrics" | grep alsrac; exit 1; }
done
printf '%s\n' "$metrics" | grep -q '^alsrac_certify_seconds_count{backend="' || {
    echo "missing alsrac_certify_seconds histogram:"; printf '%s\n' "$metrics" | grep alsrac_certify; exit 1; }
echo "certified job metrics OK"

# Graceful shutdown must complete promptly.
kill -TERM "$pid"
for i in $(seq 1 100); do
    if ! kill -0 "$pid" 2>/dev/null; then break; fi
    if [ "$i" = 100 ]; then echo "daemon did not shut down"; cat "$log"; exit 1; fi
    sleep 0.1
done
wait "$pid" 2>/dev/null || true
grep -q "shutdown complete" "$log" || { echo "no clean shutdown in log:"; cat "$log"; exit 1; }
echo "daemon smoke test passed"
