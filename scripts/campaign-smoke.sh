#!/usr/bin/env bash
# Campaign end-to-end smoke: run a small coverage-guided leakcheck campaign
# with a persistent corpus, restart it against the same corpus and assert
# the second run resumes (replays inputs instead of re-simulating, dedups
# known reproducers), then assert the refusals: a corrupted record and a
# wrong-version header must both be rejected, not silently re-explored, and
# a warm-started campaign (-warmup) must exit 2 without writing a corpus.
# Used by `make campaign-smoke` and CI.
#
# CAMPAIGN_SMOKE_BUDGET overrides the first run's evaluation budget.
set -euo pipefail

DIR="$(mktemp -d)"
cleanup() { rm -rf "$DIR"; }
trap cleanup EXIT

BIN="$DIR/leakcheck"
CORPUS="$DIR/corpus.dgcf"
BUDGET="${CAMPAIGN_SMOKE_BUDGET:-16}"

go build -o "$BIN" ./cmd/leakcheck

echo "campaign-smoke: fresh campaign (budget $BUDGET)"
OUT1="$("$BIN" -campaign -budget "$BUDGET" -schemes unsafe,dom -ap off \
    -seed 1 -corpus "$CORPUS")"
echo "$OUT1" | sed 's/^/  /'
case "$OUT1" in
*"ok: no unmutated secure config leaks"*) ;;
*)
    echo "campaign-smoke: first run did not report a clean secure verdict" >&2
    exit 1
    ;;
esac
case "$OUT1" in
*"(0 resumed)"*) ;;
*)
    echo "campaign-smoke: fresh run claims to have resumed inputs" >&2
    exit 1
    ;;
esac
if [ "$(head -c 4 "$CORPUS")" != "DGCF" ]; then
    echo "campaign-smoke: corpus file missing its format magic" >&2
    exit 1
fi

echo "campaign-smoke: restart against the same corpus"
OUT2="$("$BIN" -campaign -budget 8 -schemes unsafe,dom -ap off \
    -seed 2 -corpus "$CORPUS")"
echo "$OUT2" | sed 's/^/  /'
RESUMED="$(printf '%s\n' "$OUT2" | sed -n 's/.*inputs (\([0-9]*\) resumed).*/\1/p')"
if [ -z "$RESUMED" ] || [ "$RESUMED" -eq 0 ]; then
    echo "campaign-smoke: restarted run resumed nothing from the corpus" >&2
    exit 1
fi
echo "campaign-smoke: resumed $RESUMED corpus inputs"

echo "campaign-smoke: planted cleanup weakening must be hunted down"
OUT3="$("$BIN" -campaign -budget 32 -schemes 'cleanup!cleanup-no-lru-undo' \
    -ap off -seed 1 -corpus "$DIR/cleanup.dgcf")"
echo "$OUT3" | sed 's/^/  /'
case "$OUT3" in
*"cleanup!cleanup-no-lru-undo"*) ;;
*)
    echo "campaign-smoke: campaign found no leak for the planted cleanup weakening" >&2
    exit 1
    ;;
esac
case "$OUT3" in
*"ok: no unmutated secure config leaks"*) ;;
*)
    echo "campaign-smoke: mutated-config leaks must not fail the secure verdict" >&2
    exit 1
    ;;
esac

echo "campaign-smoke: corrupted corpus must be refused"
cp "$CORPUS" "$DIR/corrupt.dgcf"
printf '\xff' | dd of="$DIR/corrupt.dgcf" bs=1 seek=40 conv=notrunc 2>/dev/null
if ERR="$("$BIN" -campaign -budget 4 -schemes unsafe -ap off \
    -corpus "$DIR/corrupt.dgcf" 2>&1)"; then
    echo "campaign-smoke: corrupted corpus was accepted" >&2
    exit 1
fi
case "$ERR" in
*corrupt*) ;;
*)
    echo "campaign-smoke: corruption refusal did not name the cause: $ERR" >&2
    exit 1
    ;;
esac

echo "campaign-smoke: wrong-version corpus must be refused"
cp "$CORPUS" "$DIR/future.dgcf"
printf '\xee' | dd of="$DIR/future.dgcf" bs=1 seek=4 conv=notrunc 2>/dev/null
if ERR="$("$BIN" -campaign -budget 4 -schemes unsafe -ap off \
    -corpus "$DIR/future.dgcf" 2>&1)"; then
    echo "campaign-smoke: wrong-version corpus was accepted" >&2
    exit 1
fi
case "$ERR" in
*"corpus format version"*) ;;
*)
    echo "campaign-smoke: version refusal did not name the versions: $ERR" >&2
    exit 1
    ;;
esac

echo "campaign-smoke: warm-started campaign must be refused"
set +e
ERR="$("$BIN" -campaign -warmup 1 -budget 4 -schemes unsafe -ap off \
    -corpus "$DIR/warm.dgcf" 2>&1)"
STATUS=$?
set -e
if [ "$STATUS" -ne 2 ]; then
    echo "campaign-smoke: -warmup campaign exited $STATUS, want 2: $ERR" >&2
    exit 1
fi
if [ -e "$DIR/warm.dgcf" ]; then
    echo "campaign-smoke: refused -warmup campaign wrote a corpus file" >&2
    exit 1
fi

echo "campaign-smoke: OK"
