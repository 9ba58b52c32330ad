#!/bin/sh
# profilecheck.sh — smoke test for the profiling harness. Runs one
# case-study pair benchmark iteration (the reduced 2D/M3D pair and its
# GDS/DEF exports), one 4096-corner yield benchmark
# iteration and one corner-batched STA kernel iteration under the CPU
# and heap profilers (exactly what `make profile` and `make
# profile-yield` do, at minimum duration) and
# asserts all profiles are produced, non-empty, and parseable by `go
# tool pprof`. Keeps the perf workflow from rotting silently: if a
# benchmark is renamed or the profile flags break, `make check` fails.
#
#   ./scripts/profilecheck.sh                 # temp dir, cleaned up
#   PROFILE_DIR=prof ./scripts/profilecheck.sh   # keep the profiles
set -eu

CLEANUP=""
if [ -n "${PROFILE_DIR:-}" ]; then
    DIR="$PROFILE_DIR"
    mkdir -p "$DIR"
else
    DIR="$(mktemp -d)"
    CLEANUP="$DIR"
fi
trap '[ -n "$CLEANUP" ] && rm -rf "$CLEANUP"' EXIT

go test -run '^$' -bench 'BenchmarkCaseStudyPair$' -benchtime 1x \
    -cpuprofile "$DIR/cpu.out" -memprofile "$DIR/mem.out" \
    -o "$DIR/flow.test" ./internal/flow/ >/dev/null

for f in cpu.out mem.out; do
    if ! [ -s "$DIR/$f" ]; then
        echo "profilecheck: $DIR/$f missing or empty" >&2
        exit 1
    fi
    go tool pprof -top "$DIR/flow.test" "$DIR/$f" >/dev/null
done

go test -run '^$' -bench 'BenchmarkMonteCarloYield4096$' -benchtime 1x \
    -cpuprofile "$DIR/yield_cpu.out" -memprofile "$DIR/yield_mem.out" \
    -o "$DIR/vary.test" ./internal/vary/ >/dev/null

for f in yield_cpu.out yield_mem.out; do
    if ! [ -s "$DIR/$f" ]; then
        echo "profilecheck: $DIR/$f missing or empty" >&2
        exit 1
    fi
    go tool pprof -top "$DIR/vary.test" "$DIR/$f" >/dev/null
done

go test -run '^$' -bench 'BenchmarkBatchCornerSTA$' -benchtime 1x \
    -cpuprofile "$DIR/batch_cpu.out" -memprofile "$DIR/batch_mem.out" \
    -o "$DIR/sta.test" ./internal/sta/ >/dev/null

for f in batch_cpu.out batch_mem.out; do
    if ! [ -s "$DIR/$f" ]; then
        echo "profilecheck: $DIR/$f missing or empty" >&2
        exit 1
    fi
    go tool pprof -top "$DIR/sta.test" "$DIR/$f" >/dev/null
done
echo "profilecheck: OK"
