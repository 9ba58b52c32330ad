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
// spec. Every spec runs, duplicates included. Exports are written from
// the returned results (Result.WriteGDS/WriteVerilog/WriteDEF).
func RunMany(p *tech.PDK, specs []SoCSpec, opts ...exec.Option) ([]*Result, error) {
	st := exec.Resolve(opts...)
	st.Label = "flow.runmany"
	return exec.MapWith(st, specs, func(ctx context.Context, _ int, spec SoCSpec) (*Result, error) {
		return runWith(ctx, st, p, spec)
	})
}
