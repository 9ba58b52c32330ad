# Developer entry points. `make check` is the pre-merge gate the CI-less
# workflow relies on; the individual targets are for quick iteration.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check vet build test race race-equiv fuzz bench obsbench benchdiff invariants report serve serve-smoke dse-smoke jobs-smoke yield-smoke profile profile-yield profilecheck

check:
	FUZZTIME=$(FUZZTIME) ./scripts/check.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -timeout: the flow suite runs ~8 min under -race on a single core,
# close enough to go test's 10m default to flake on slow machines.
race:
	$(GO) test -race -timeout 30m ./...

# The concurrency equivalence suite: differential oracles for the
# corner-batched STA, RunMany and the Monte-Carlo engine, shuffled and
# repeated under the race detector. Route and place have no concurrent
# path (every flow stage runs serially), so their suites run under plain
# `go test ./...` and `go test -race ./...` only.
# -timeout: the flow suite alone runs ~8 min under -race on one core,
# so count=2 overruns go test's 10m default.
race-equiv:
	$(GO) test -race -shuffle=on -count=2 -timeout 45m ./internal/sta/ ./internal/flow/ ./internal/vary/

fuzz:
	for pkg in verilog def lef liberty; do \
		$(GO) test -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/$$pkg/ || exit 1; \
	done
	$(GO) test -fuzz=FuzzSweepRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzBatchRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzDSERequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzJobsRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzYieldRequest -fuzztime=$(FUZZTIME) ./internal/serve/

# The property-based invariant suite (speedup ≤ N, EDP/bandwidth and
# thermal monotonicity, degenerate-to-2D), the headline-band tests, and
# the inter-tier variation sampler invariants (yield monotonicity,
# quantile order, correlation collapse).
invariants:
	$(GO) test -run 'TestInvariant' -count=1 -v ./internal/analytic/
	$(GO) test -run 'TestHeadline' -count=1 ./internal/core/
	$(GO) test -run 'TestInvariant' -count=1 -v ./internal/vary/

# Benchmark regression gate: fails on >25% ns/op or >25% allocs/op
# regression vs the committed bench/BENCH_0.json baseline (see
# EXPERIMENTS.md).
benchdiff:
	./scripts/benchdiff.sh

# CPU + heap profile of the reduced flow pipeline. Writes prof/cpu.out,
# prof/mem.out and prints the top entries; dig deeper with
#   go tool pprof prof/flow.test prof/cpu.out
#   go tool pprof -sample_index=alloc_objects prof/flow.test prof/mem.out
profile:
	mkdir -p prof
	$(GO) test -run '^$$' -bench 'BenchmarkRunFlowReduced$$' -benchtime 3x -benchmem \
		-cpuprofile prof/cpu.out -memprofile prof/mem.out \
		-o prof/flow.test ./internal/flow/
	$(GO) tool pprof -top -nodecount 15 prof/flow.test prof/cpu.out
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_objects prof/flow.test prof/mem.out

# CPU + heap profiles of the Monte-Carlo yield path: a 4096-corner yield
# run on a 16-stage chain (corner draws plus the corner-batched STA
# kernel), then the kernel alone on the routed 2x2 systolic fixture,
# a design large enough for the per-arc work to show. Each run takes
# about a millisecond or less, so the benchmarks run for a duration
# rather than a count to give the profiler enough samples. Writes
# prof/yield_{cpu,mem}.out and prof/batch_{cpu,mem}.out and prints the
# top entries; dig deeper with
#   go tool pprof prof/vary.test prof/yield_cpu.out
#   go tool pprof prof/sta.test prof/batch_cpu.out
profile-yield:
	mkdir -p prof
	$(GO) test -run '^$$' -bench 'BenchmarkMonteCarloYield4096$$' -benchtime 2s -benchmem \
		-cpuprofile prof/yield_cpu.out -memprofile prof/yield_mem.out \
		-o prof/vary.test ./internal/vary/
	$(GO) tool pprof -top -nodecount 15 prof/vary.test prof/yield_cpu.out
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_objects prof/vary.test prof/yield_mem.out
	$(GO) test -run '^$$' -bench 'BenchmarkBatchCornerSTA$$' -benchtime 2s -benchmem \
		-cpuprofile prof/batch_cpu.out -memprofile prof/batch_mem.out \
		-o prof/sta.test ./internal/sta/
	$(GO) tool pprof -top -nodecount 15 prof/sta.test prof/batch_cpu.out
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_objects prof/sta.test prof/batch_mem.out

# Smoke the profiling harness (part of `make check`).
profilecheck:
	./scripts/profilecheck.sh

# Run the HTTP evaluation service on localhost:8080 (see README).
serve:
	$(GO) run ./cmd/m3dserve

serve-smoke:
	$(GO) run ./scripts/servesmoke

# End-to-end /v1/dse streaming gate (part of `make check`).
dse-smoke:
	$(GO) run ./scripts/dsesmoke

# End-to-end async job tier gate: submit, poll, SIGTERM mid-job, resume
# from the on-disk checkpoints byte-identically (part of `make check`).
jobs-smoke:
	$(GO) run ./scripts/jobsmoke

# End-to-end /v1/yield streaming gate: one pinned Monte-Carlo timing
# yield run over real HTTP with refinement invariants checked, then a
# 4096-corner run under a wall-clock budget (part of `make check`).
yield-smoke:
	$(GO) run ./scripts/yieldsmoke
	$(GO) run ./scripts/yieldsmoke -samples 4096 -batch 1024 -budget 30s

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSweep' -benchtime 2s ./internal/analytic/
	$(GO) test -run '^$$' -bench 'BenchmarkRunMany' -benchtime 1x ./internal/flow/

# Observability overhead: no-op tracer + registry vs uninstrumented flow.
obsbench:
	$(GO) test -run '^$$' -bench 'BenchmarkRunFlow' -benchtime 4x -count 3 ./internal/flow/

report:
	$(GO) run ./cmd/m3dreport
