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
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
# -timeout: the flow suite runs ~8 min under -race on a single core,
# close enough to go test's 10m default to flake on slow machines.
go test -race -timeout 30m ./...

echo "== benchmark harness (m3dbench) vet + tests =="
# m3dbench is its own module (replace m3d => ../), so ./... above does
# not reach it.
(cd m3dbench && go vet ./... && go test ./...)

echo "== concurrency equivalence suite (race + shuffle) =="
make race-equiv

echo "== obs golden + trace schema =="
go test ./internal/obs/ ./internal/report/ ./cmd/m3dreport/

echo "== m3dflow trace smoke =="
# A real (small) flow batch with tracing on: must exit 0 and emit a
# parseable JSONL trace (one object per line, span + metrics events).
TRACE_TMP="$(mktemp)"
go run ./cmd/m3dflow -side 2 -cs 2,4 -trace "$TRACE_TMP" >/dev/null
go run ./scripts/tracecheck "$TRACE_TMP"
rm -f "$TRACE_TMP"

echo "== serve smoke =="
# Boot cmd/m3dserve on an ephemeral port, replay the sweep_default
# golden over real HTTP, then SIGTERM and require a graceful drain.
go run ./scripts/servesmoke

echo "== jobs smoke =="
# Boot cmd/m3dserve with an on-disk job store, run a flow job to done,
# SIGTERM mid-job (the drain parks it checkpointed), then restart on the
# same store and require byte-identical resumed artifacts.
./scripts/jobsmoke.sh

echo "== dse smoke =="
# Boot cmd/m3dserve again and stream one small /v1/dse exploration:
# the chunked frontier snapshots must be monotone, mutually
# non-dominated, and converge with the pinned grid totals.
./scripts/dsesmoke.sh

echo "== yield smoke =="
# Boot cmd/m3dserve once more and stream one pinned /v1/yield
# Monte-Carlo run: sample counts must strictly increase, quantile
# bands stay ordered, yield curves stay monotone in period, and the
# server must drain gracefully.
./scripts/yieldsmoke.sh

echo "== invariant suite =="
# Property-based guarantees of the Sec. III model (randomized seeded
# draws), the paper's headline EDP band, and the inter-tier variation
# sampler (yield monotonicity, quantile order, correlation collapse).
make invariants

echo "== fuzz smoke (${FUZZTIME}/target) =="
make fuzz FUZZTIME="$FUZZTIME"

echo "== profile harness smoke =="
# The `make profile` pipeline must keep producing parseable pprof
# profiles of the reduced flow; see scripts/profilecheck.sh.
./scripts/profilecheck.sh

echo "== benchmark regression gate =="
# >THRESHOLD_PCT (default 25%) ns/op — or >ALLOC_THRESHOLD_PCT
# allocs/op — regression vs bench/BENCH_0.json fails the check; see
# scripts/benchdiff.sh and EXPERIMENTS.md.
./scripts/benchdiff.sh

echo "OK: all checks passed"
