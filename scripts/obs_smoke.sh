#!/bin/sh
# obs_smoke.sh — end-to-end observability smoke test.
#
# Builds cacheserved, starts it on an ephemeral port, exercises /healthz and
# both /metrics formats, drives one simulation through /v1/evaluate, and
# greps the Prometheus exposition for the metric families the README
# documents (including a histogram with cumulative buckets). Exits non-zero
# on the first failure. Run via `make obs-smoke`.
set -eu

GO=${GO:-go}
CURL=${CURL:-curl}
workdir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
    echo "obs-smoke: FAIL: $*" >&2
    echo "--- server stdout ---" >&2
    cat "$workdir/stdout" >&2 || true
    echo "--- server stderr (access log) ---" >&2
    cat "$workdir/stderr" >&2 || true
    exit 1
}

echo "obs-smoke: building cacheserved"
$GO build -o "$workdir/cacheserved" ./cmd/cacheserved

"$workdir/cacheserved" -addr 127.0.0.1:0 -log-format json \
    >"$workdir/stdout" 2>"$workdir/stderr" &
pid=$!

# The bound address is printed to stdout as "cacheserved: listening on ...".
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^cacheserved: listening on //p' "$workdir/stdout")
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || fail "server exited before listening"
    sleep 0.1
done
[ -n "$addr" ] && echo "obs-smoke: serving on $addr" || fail "no listen address after 5s"

$CURL -fsS "http://$addr/healthz" >/dev/null || fail "/healthz unreachable"

# One real simulation so the counters and histograms have observations.
$CURL -fsS -X POST "http://$addr/v1/evaluate" \
    -d '{"mix":"FGO1","ref_limit":20000}' >/dev/null || fail "evaluate request failed"

prom="$workdir/metrics.prom"
$CURL -fsS "http://$addr/metrics" >"$prom" || fail "/metrics unreachable"
for family in \
    "# TYPE cacheeval_requests_total counter" \
    "# TYPE cacheeval_sim_runs_total counter" \
    "# TYPE cacheeval_memo_hit_ratio gauge" \
    "# TYPE cacheeval_evaluate_duration_seconds histogram" \
    "# TYPE cacheeval_engine_refs_per_second histogram"; do
    grep -qF "$family" "$prom" || fail "missing exposition line: $family"
done
grep -qE 'cacheeval_evaluate_duration_seconds_bucket\{le="\+Inf"\} [1-9]' "$prom" \
    || fail "evaluate histogram has no observations"
grep -qE 'cacheeval_engine_refs_total 20000' "$prom" \
    || fail "engine refs counter did not see the simulation"

# JSON format still serves the expvar snapshot with the derived ratios.
json="$workdir/metrics.json"
$CURL -fsS "http://$addr/metrics?format=json" >"$json" || fail "/metrics?format=json unreachable"
for key in memo_hit_ratio sim_seconds_avg; do
    grep -qF "\"$key\"" "$json" || fail "JSON metrics missing $key"
done

# The access log on stderr must carry structured request lines.
grep -qF '"msg":"request"' "$workdir/stderr" || fail "no JSON access log lines on stderr"
grep -qF '"request_id"' "$workdir/stderr" || fail "access log lines lack request_id"

# --- async jobs: submit, stream, and diff against the synchronous answer ---
sweep_req='{"mixes":["FGO1"],"sizes":[1024,4096],"ref_limit":20000}'

echo "obs-smoke: submitting async sweep job"
$CURL -fsS -X POST "http://$addr/v1/jobs" \
    -d "{\"sweep\":$sweep_req}" >"$workdir/job.json" || fail "job create failed"
# writeJSON indents with two spaces, so the id line is '  "id": "..."'.
job_id=$(sed -n 's/^  "id": "\([0-9a-f]*\)",*$/\1/p' "$workdir/job.json")
[ -n "$job_id" ] || fail "no job id in create reply: $(cat "$workdir/job.json")"

# Consume the NDJSON stream to completion (-N disables curl buffering).
$CURL -fsSN "http://$addr/v1/jobs/$job_id/events" >"$workdir/events.ndjson" \
    || fail "event stream failed"
for typ in accepted started run_start cell summary done; do
    grep -qF "\"type\":\"$typ\"" "$workdir/events.ndjson" \
        || fail "event stream missing \"$typ\" event"
done

# The terminal summary must equal the synchronous answer, canonically.
sed -n 's/^{"seq":[0-9]*,"type":"summary","elapsed_ms":[0-9.]*,"data"://p' \
    "$workdir/events.ndjson" | sed 's/}$//' >"$workdir/summary.json"
[ -s "$workdir/summary.json" ] || fail "could not extract summary payload"
$CURL -fsS -X POST "http://$addr/v1/sweep" -d "$sweep_req" >"$workdir/sync.json" \
    || fail "synchronous sweep failed"
$GO run ./scripts/jobdiff.go "$workdir/summary.json" "$workdir/sync.json" \
    || fail "job summary differs from synchronous response"

# Job status is resumable after the stream closed.
$CURL -fsS "http://$addr/v1/jobs/$job_id" >"$workdir/status.json" || fail "job status failed"
grep -qF '"state": "done"' "$workdir/status.json" || fail "job not done in status"
grep -qF '"summary"' "$workdir/status.json" || fail "status missing summary"

# Job and Go-runtime telemetry joined the exposition.
$CURL -fsS "http://$addr/metrics" >"$prom" || fail "/metrics unreachable after job"
for family in \
    "# TYPE cacheeval_jobs_requests_total counter" \
    "# TYPE cacheeval_jobs_created_total counter" \
    "# TYPE cacheeval_jobs_events_emitted_total counter" \
    "# TYPE cacheeval_jobs_active gauge" \
    "# TYPE cacheeval_go_goroutines gauge" \
    "# TYPE cacheeval_go_heap_inuse_bytes gauge" \
    "# TYPE cacheeval_go_gc_pause_seconds histogram"; do
    grep -qF "$family" "$prom" || fail "missing exposition line: $family"
done
grep -qE 'cacheeval_jobs_created_total [1-9]' "$prom" || fail "jobs counter did not move"

echo "obs-smoke: OK"
