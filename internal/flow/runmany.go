package flow

import (
	"context"

	"m3d/internal/exec"
	"m3d/internal/tech"
)

// RunMany executes the flow for every spec on the exec worker pool and
// returns the results in spec order (pool width, cancellation, tracing
// and metrics via the shared exec.Option surface; default width is
// exec.DefaultWorkers). Each run is independent: the shared PDK is
// read-only throughout the flow, and all randomized stages (tier
// partitioning, global placement, annealed refinement) draw from per-run
// generators seeded by the spec's Seed, so batches are race-detector
// clean and each spec's result is identical to a serial Run of the same
// spec.
//
// Identical specs are evaluated once behind a single-flight memo cache
// and share one *Result; the registry's flow.memo.hits / flow.memo.misses
// counters account for the cache. Exports are written from the returned
// results (Result.WriteGDS/WriteVerilog/WriteDEF).
func RunMany(p *tech.PDK, specs []SoCSpec, opts ...exec.Option) ([]*Result, error) {
	return runMany(exec.Resolve(opts...), p, specs)
}

// RunManyContext is RunMany under an explicit context: cancellation stops
// dispatch (error matches errs.ErrCanceled) and a tracer/registry on the
// context instruments the runs.
func RunManyContext(ctx context.Context, p *tech.PDK, specs []SoCSpec, opts ...exec.Option) ([]*Result, error) {
	return runMany(resolve(ctx, opts), p, specs)
}

func runMany(st *exec.Settings, p *tech.PDK, specs []SoCSpec) ([]*Result, error) {
	cache := &exec.Cache[SoCSpec, *Result]{}
	hits := st.Metrics.Counter("flow.memo.hits")
	misses := st.Metrics.Counter("flow.memo.misses")
	st.Label = "flow.runmany"
	return exec.MapWith(st, specs, func(ctx context.Context, _ int, spec SoCSpec) (*Result, error) {
		key := spec.withDefaults()
		return cache.DoMetered(key, hits, misses, func() (*Result, error) {
			return runWith(ctx, st, p, key)
		})
	})
}
