#!/bin/sh
# check.sh — the full pre-merge gate: `make check`, run from the repo
# root wherever it is called from. The step list and each step's command
# live in the Makefile alone.
#
#   ./scripts/check.sh                # everything (slowest part: -race tests)
#   FUZZTIME=30s ./scripts/check.sh   # longer fuzz smoke
set -eu
cd "$(dirname "$0")/.."
exec make check
