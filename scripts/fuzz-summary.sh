#!/usr/bin/env bash
# Runs one native fuzz target with the given `go test` arguments, streams
# its output, and appends the run's final "new interesting" count to the
# job summary ($GITHUB_STEP_SUMMARY; stdout when unset). The Go fuzzer
# counts minimisation calls as executions, so a run's execs mostly measure
# minimisation; the inputs it found new coverage with track exploration.
# Exits with go test's status. Used by the nightly fuzz job:
#
#   scripts/fuzz-summary.sh -fuzz=FuzzCheckpointDecode -fuzztime=2m \
#       -fuzzminimizetime=100x -run '^$' ./internal/checkpoint
set -uo pipefail

LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT

go test "$@" 2>&1 | tee "$LOG"
status=${PIPESTATUS[0]}

target=$(printf '%s\n' "$@" | sed -n 's/^-fuzz=//p')
found=$(grep -o 'new interesting: [0-9]* (total: [0-9]*)' "$LOG" | tail -n 1)
echo "- \`$target\`: ${found:-no progress line (the run stopped before fuzzing)}, exit $status" \
    >> "${GITHUB_STEP_SUMMARY:-/dev/stdout}"
exit "$status"
