#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload figures-cold --seed 1 --seconds 20 --trace 0
#
# Build caches, binaries, scratch files and spans all stay under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOTMPDIR"
go -C bench build -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
