#!/bin/sh
# yieldsmoke.sh — end-to-end gate for the POST /v1/yield streaming
# endpoint: boots cmd/m3dserve on an ephemeral port, streams one pinned
# Monte-Carlo timing-yield run and checks the refinement invariants
# (strictly increasing sample counts, ordered p5/p50/p95 bands, yield
# curve monotone in period, single trailing done element), compares the
# body with the serve suite's yield_stream.golden.json, then requires a
# graceful drain. A second large-batch pass streams 4096
# corners under a wall-clock budget — the end-to-end check that yield
# runs through the corner-batched STA kernel (a 4096-corner run
# completes in ~0.25 s on one core; the 30 s budget only catches a
# fall-back to one full timing walk per corner). Run from the repo
# root.
set -eu
go run ./scripts/yieldsmoke "$@"
exec go run ./scripts/yieldsmoke -samples 4096 -batch 1024 -budget 30s
