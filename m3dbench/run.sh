#!/usr/bin/env bash
# Builds the benchmark harness against the sources of the checkout it is
# run from and executes it with the given arguments. Run from the
# repository root:
#
#   bash m3dbench/run.sh                                   # all four workloads
#   bash m3dbench/run.sh --workload serve-hot --seed 3 --seconds 20 --trace 0
#   bash m3dbench/run.sh compare a.json b.json
#
# Every build artefact, Go cache and scratch file stays under
# .bench_build/ in the checkout; nothing is read from or written to the
# user's Go caches or configuration.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
    XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
    GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd "$root/m3dbench" && go build -o "$build/m3dbench" .)
exec "$build/m3dbench" "$@"
