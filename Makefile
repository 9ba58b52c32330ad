# Developer entry points. `make check` is the pre-merge gate the CI-less
# workflow relies on: it runs the gate's targets in order and stops at
# the first that fails (scripts/check.sh runs it from any directory).
# The other targets are for quick iteration.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check fmt vet build test race bench-harness race-equiv fuzz bench obsbench benchdiff invariants report serve smoke profile profile-yield profilecheck

check:
	@for t in fmt vet build race bench-harness race-equiv smoke fuzz profilecheck benchdiff; do \
		echo "== make $$t =="; \
		$(MAKE) --no-print-directory $$t || exit 1; \
	done; \
	echo "OK: all checks passed"

# Fails when gofmt would reformat any file, and names the files.
fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

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

# The benchmark harness is its own module (replace m3d => ../), so
# ./... does not reach it.
bench-harness:
	cd m3dbench && $(GO) vet ./... && $(GO) test ./...

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
	for pkg in verilog def lef liberty gds; do \
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

# Benchmark regression gate against the base commit (HEAD when a
# tracked file differs from it, else HEAD~1, so a committed change
# compares against its parent): 10 interleaved pairs on this host; fails
# when a tracked benchmark is slower in 9 of 10 pairs by more than 25%
# in the median, or allocates more than 25% more per op (see
# EXPERIMENTS.md).
benchdiff:
	./scripts/benchdiff.sh

# CPU + heap profile of one flow-casestudy benchmark operation: the
# reduced 2D/M3D case-study pair, then the GDS and DEF of both designs.
# Writes prof/cpu.out, prof/mem.out and prints the top entries; dig
# deeper with
#   go tool pprof prof/flow.test prof/cpu.out
#   go tool pprof -sample_index=alloc_objects prof/flow.test prof/mem.out
profile:
	mkdir -p prof
	$(GO) test -run '^$$' -bench 'BenchmarkCaseStudyPair$$' -benchtime 3x -benchmem \
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

# End-to-end gate over the compiled binaries: m3dflow's trace and
# exports, then two m3dserve boots on one job store (healthz, the
# sweep, DSE and yield goldens, a 4096-corner yield under a wall-clock
# budget, /metrics, and a flow job interrupted by SIGTERM and resumed
# byte-identically by the second boot); see scripts/smoke/main.go.
smoke:
	$(GO) run ./scripts/smoke

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSweep' -benchtime 2s ./internal/analytic/
	$(GO) test -run '^$$' -bench 'BenchmarkRunMany' -benchtime 1x ./internal/flow/

# Observability overhead: no-op tracer + registry vs uninstrumented flow.
obsbench:
	$(GO) test -run '^$$' -bench 'BenchmarkRunFlow' -benchtime 4x -count 3 ./internal/flow/

report:
	$(GO) run ./cmd/m3dreport
