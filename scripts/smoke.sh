#!/usr/bin/env bash
# End-to-end smoke test for the doppeld service: boot it on a kernel-chosen
# free port, execute one run through the HTTP API, assert the /metrics
# endpoint exposes simulator metric families, and check that /v1/leakcheck
# and `leakcheck -contracts -json` render the same contract rows (needs
# jq). Used by `make smoke` and CI.
set -euo pipefail

# :0 lets the kernel pick a free port; the bound address is parsed from the
# server's "listening on" log line. SMOKE_ADDR overrides for debugging.
REQ_ADDR="${SMOKE_ADDR:-127.0.0.1:0}"
BIN="$(mktemp -d)/doppeld"
LOG="$(mktemp)"
PID=""

cleanup() {
    if [ -n "$PID" ]; then
        kill "$PID" 2>/dev/null || true
        wait "$PID" 2>/dev/null || true
    fi
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/doppeld
go build -o "$(dirname "$BIN")/leakcheck" ./cmd/leakcheck

"$BIN" -addr "$REQ_ADDR" >"$LOG" 2>&1 &
PID=$!

# Wait for the server to log its bound address, then for it to be healthy.
ADDR=""
i=0
while [ -z "$ADDR" ]; do
    ADDR=$(sed -n 's/.*doppeld: listening on \([0-9.:]*\).*/\1/p' "$LOG" | head -1)
    [ -n "$ADDR" ] && break
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "smoke: doppeld exited before binding" >&2
        cat "$LOG" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "smoke: doppeld never logged its address" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done

i=0
until curl -sf "http://${ADDR}/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "smoke: doppeld did not become healthy on ${ADDR}" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done

# One traced run: must succeed and return events. (A `case` match, not a
# pipe into grep -q: the response can be large, and under pipefail an
# early-exiting reader would turn the writer's SIGPIPE into a failure.)
RUN=$(curl -sf -X POST "http://${ADDR}/v1/run" \
    -H 'Content-Type: application/json' \
    -d '{"workload":"stream","scheme":"dom","ap":true,"scale":"test","trace":true}')
case "$RUN" in
*'"events":'*) ;;
*)
    echo "smoke: traced run returned no events: $RUN" >&2
    exit 1
    ;;
esac

# The metrics endpoint must expose simulator and engine families.
METRICS=$(curl -sf "http://${ADDR}/metrics")
for family in sim_cycles_total sim_cache_hits_total sim_shadow_lifetime_cycles engine_jobs_total; do
    grep -q "^${family}" <<<"$METRICS" || {
        echo "smoke: /metrics missing ${family}" >&2
        head -40 <<<"$METRICS" >&2
        exit 1
    }
done

# Both front doors build contract rows through one function: the served
# matrix must equal the CLI's contract rows for the same sweep.
SERVED=$(curl -sf -X POST "http://${ADDR}/v1/leakcheck" \
    -H 'Content-Type: application/json' \
    -d '{"schemes":["unsafe","dom"],"seeds":4}')
LOCAL=$("$(dirname "$BIN")/leakcheck" -contracts -json -seeds 4 -schemes unsafe,dom -mutations=false)
jq -en --argjson served "$SERVED" --argjson local "$LOCAL" \
    '$served.matrix == $local.contracts and ($served.matrix | length) == 4' >/dev/null || {
    echo "smoke: /v1/leakcheck matrix differs from leakcheck -contracts -json rows" >&2
    jq -n --argjson served "$SERVED" --argjson local "$LOCAL" '{served: $served.matrix, local: $local.contracts}' >&2
    exit 1
}

echo "smoke: ok on ${ADDR} (traced run + $(grep -c '^[a-z]' <<<"$METRICS") metric lines + contract rows)"
