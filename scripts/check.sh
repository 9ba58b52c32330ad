#!/bin/sh
# check.sh — the full pre-merge gate: gofmt, vet, build, race-enabled
# tests, and a short fuzz smoke over every text parser. Steps that have a
# Makefile target call it, so each package list lives in one place. Run
# from the repo root:
#
#   ./scripts/check.sh            # everything (slowest part: -race tests)
#   FUZZTIME=30s ./scripts/check.sh   # longer fuzz smoke
set -eu

FUZZTIME="${FUZZTIME:-10s}"

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
make vet

echo "== go build =="
make build

echo "== go test -race =="
make race

echo "== benchmark harness (m3dbench) vet + tests =="
# m3dbench is its own module (replace m3d => ../), so ./... above does
# not reach it.
(cd m3dbench && go vet ./... && go test ./...)

echo "== concurrency equivalence suite (race + shuffle) =="
make race-equiv

echo "== obs golden + trace schema =="
go test ./internal/obs/ ./internal/report/ ./cmd/m3dreport/

echo "== m3dflow trace + export smoke =="
# A real (small) flow batch with tracing and every export on: must exit
# 0, emit a parseable JSONL trace (one object per line, span + metrics
# events), and write a non-empty file for each export the flags ask
# for (-gds writes the 2D and the M3D layout, -verilog, -def).
SMOKE_TMP="$(mktemp -d)"
go run ./cmd/m3dflow -side 2 -cs 2,4 -trace "$SMOKE_TMP/trace.jsonl" \
    -gds "$SMOKE_TMP/out" -verilog "$SMOKE_TMP/out.v" -def "$SMOKE_TMP/out.def" >/dev/null
go run ./scripts/tracecheck "$SMOKE_TMP/trace.jsonl"
for f in out_2d.gds out_m3d.gds out.v out.def; do
    if [ ! -s "$SMOKE_TMP/$f" ]; then
        echo "m3dflow export smoke: $f is missing or empty" >&2
        exit 1
    fi
done
rm -rf "$SMOKE_TMP"

echo "== serve smoke =="
# Boot cmd/m3dserve on an ephemeral port, replay the sweep_default
# golden over real HTTP, then SIGTERM and require a graceful drain.
make serve-smoke

echo "== jobs smoke =="
# Boot cmd/m3dserve with an on-disk job store, run a flow job to done,
# SIGTERM mid-job (the drain parks it checkpointed), then restart on the
# same store and require byte-identical resumed artifacts.
make jobs-smoke

echo "== dse smoke =="
# Boot cmd/m3dserve again and stream one small /v1/dse exploration:
# the chunked frontier snapshots must be monotone, mutually
# non-dominated, and converge with the pinned grid totals.
make dse-smoke

echo "== yield smoke =="
# Boot cmd/m3dserve once more and stream one pinned /v1/yield
# Monte-Carlo run: sample counts must strictly increase, quantile
# bands stay ordered, yield curves stay monotone in period, the body
# must match yield_stream.golden.json, and the server must drain
# gracefully.
# A second pass streams 4096 corners under a wall-clock budget: the
# end-to-end check that yield runs through the corner-batched STA kernel
# (a 4096-corner run completes in well under a second on one core; the
# 30 s budget only catches a fall-back to one full timing walk per
# corner).
make yield-smoke

echo "== invariant suite =="
# Property-based guarantees of the Sec. III model (randomized seeded
# draws), the paper's headline EDP band, and the inter-tier variation
# sampler (yield monotonicity, quantile order, correlation collapse).
make invariants

echo "== fuzz smoke (${FUZZTIME}/target) =="
make fuzz FUZZTIME="$FUZZTIME"

echo "== profile harness smoke =="
# The `make profile` pipeline must keep producing parseable pprof
# profiles of the reduced flow and the yield window; see
# scripts/profilecheck.sh.
make profilecheck

echo "== benchmark regression gate =="
# >THRESHOLD_PCT (default 25%) ns/op — or >ALLOC_THRESHOLD_PCT
# allocs/op — regression vs bench/BENCH_0.json fails the check; see
# scripts/benchdiff.sh and EXPERIMENTS.md.
make benchdiff

echo "OK: all checks passed"
