package analytic

import (
	"fmt"

	"m3d/internal/errs"
)

// DesignPoint is one coordinate of the combined Case 1 × Case 3 design
// space the adaptive explorer (internal/dse) walks: a BEOL memory access
// FET width relaxation δ (Case 1), a number of interleaved compute+memory
// tier pairs Y (Case 3), and a total-bandwidth scale applied on top of
// the per-CS bandwidth share (the Fig. 8 axis).
type DesignPoint struct {
	Delta     float64
	TierPairs int
	BWScale   float64
}

// Validate checks the coordinate ranges. Violations match errs.ErrBadSpec.
func (d DesignPoint) Validate() error {
	if d.Delta < 1 {
		return fmt.Errorf("analytic: δ=%g must be ≥ 1: %w", d.Delta, errs.ErrBadSpec)
	}
	if d.TierPairs < 1 {
		return fmt.Errorf("analytic: tier pairs %d must be ≥ 1: %w", d.TierPairs, errs.ErrBadSpec)
	}
	if d.BWScale <= 0 {
		return fmt.Errorf("analytic: bandwidth scale %g must be positive: %w", d.BWScale, errs.ErrBadSpec)
	}
	return nil
}

// PointResult is the objective extraction for one DesignPoint: everything
// a multi-objective explorer ranks designs by, plus the geometry behind
// it. Speedup and EDPBenefit are against the commensurately-grown 2D
// baseline (Eq. 9 semantics); Footprint is the common grown footprint in
// the AreaModel's units (nm² for the case-study model) — the explorer
// minimizes it while maximizing the other objectives.
type PointResult struct {
	Point DesignPoint
	// N is the M3D design's parallel CS count: the Case 1 freed-Si count
	// replicated per interleaved pair (Case 3).
	N int
	// N2DNew is the grown 2D baseline's CS count (Eq. 9).
	N2DNew int
	// Footprint is the common chip footprint (grows once δ·A_cells
	// outgrows the original die).
	Footprint float64
	// Speedup / EnergyRatio / EDPBenefit vs the grown 2D baseline.
	Speedup     float64
	EnergyRatio float64
	EDPBenefit  float64
}

// CasePoint evaluates one DesignPoint of the combined design space on a
// load sequence: Case 1 geometry at δ fixes the common footprint and the
// per-pair CS count, Case 3 replicates compute and banked memory across Y
// interleaved pairs (N and total bandwidth both scale with Y), and
// bwScale scales the M3D total bandwidth on top of the preserved per-CS
// share. The 2D baseline is the Eq. 9 commensurately-grown chip — it
// gains CSs from the grown die but keeps its single Si memory system.
//
// CasePoint is a pure function of (p, a, loads, d): the adaptive
// explorer fans it out on the worker pool, unmemoized (points are cheap),
// with deterministic results at any width.
func CasePoint(p Params, a AreaModel, loads []Load, d DesignPoint) (PointResult, error) {
	if err := p.Validate(); err != nil {
		return PointResult{}, err
	}
	if err := d.Validate(); err != nil {
		return PointResult{}, err
	}
	if len(loads) == 0 {
		return PointResult{}, fmt.Errorf("analytic: no loads: %w", errs.ErrBadSpec)
	}
	geo, err := a.Case1(d.Delta)
	if err != nil {
		return PointResult{}, err
	}
	n := geo.N3D * d.TierPairs
	// Per-CS bandwidth share preserved from the reference design, scaled
	// by the pair count (one banked memory system per pair) and the
	// explored bandwidth scale.
	perCSB3D := p.B3D / float64(p.N)
	b3d := perCSB3D * float64(geo.N3D) * float64(d.TierPairs) * d.BWScale

	var t2, t3, e2, e3 float64
	for _, w := range loads {
		t2 += tLike(p, w, geo.N2DNew, p.B2D)
		t3 += tLike(p, w, n, b3d)
		e2 += eLike(p, w, geo.N2DNew, p.B2D, p.Alpha2D, p.EMIdle2D)
		e3 += eLike(p, w, n, b3d, p.Alpha3D, p.EMIdle3D)
	}
	s := t2 / t3
	return PointResult{
		Point:       d,
		N:           n,
		N2DNew:      geo.N2DNew,
		Footprint:   geo.Footprint,
		Speedup:     s,
		EnergyRatio: e2 / e3,
		EDPBenefit:  s * e2 / e3,
	}, nil
}
