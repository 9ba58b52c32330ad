package analytic

import (
	"context"
	"fmt"
	"math"

	"m3d/internal/errs"
	"m3d/internal/exec"
	"m3d/internal/obs"
)

// tLike is the generalized Eq. 4 time: n parallel CSs sharing total
// bandwidth b. The load runs on min(N#, n) of them, one when N# < 1
// (Sec. III.A); eLike applies the same rule.
func tLike(p Params, w Load, n int, b float64) float64 {
	nm := n
	if w.NPart < nm {
		nm = w.NPart
	}
	if nm < 1 {
		nm = 1
	}
	return math.Max(w.D0*float64(n)/b, w.F0/(float64(nm)*p.PPeak))
}

// eLike is the generalized Eq. 7/11 energy: n parallel CSs, total
// bandwidth b, memory access energy alpha, memory idle energy emIdle.
func eLike(p Params, w Load, n int, b, alpha, emIdle float64) float64 {
	nm := n
	if w.NPart < nm {
		nm = w.NPart
	}
	if nm < 1 {
		nm = 1
	}
	t := tLike(p, w, n, b)
	return alpha*w.D0 +
		emIdle*(t-w.D0*float64(n)/b) +
		float64(n-nm)*p.ECIdle*t +
		float64(nm)*p.ECIdle*(t-w.F0/(float64(nm)*p.PPeak)) +
		p.EC*w.F0
}

// Case1Benefit evaluates Eqs. 10-12: the M3D EDP benefit at BEOL FET width
// relaxation δ, against the commensurately-grown 2D baseline with N_2D^new
// parallel CSs. The per-CS memory bandwidth of both chips is preserved as
// CS counts change (banks scale with CSs in M3D; the 2D baseline keeps its
// single memory system).
func Case1Benefit(p Params, a AreaModel, loads []Load, delta float64) (Result, Case1Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, Case1Result{}, err
	}
	geo, err := a.Case1(delta)
	if err != nil {
		return Result{}, Case1Result{}, err
	}
	if len(loads) == 0 {
		return Result{}, Case1Result{}, fmt.Errorf("analytic: no loads: %w", errs.ErrBadSpec)
	}
	// M3D bandwidth: per-CS share preserved from the reference design.
	perCSB3D := p.B3D / float64(p.N)
	b3d := perCSB3D * float64(geo.N3D)

	var t2, t3, e2, e3 float64
	for _, w := range loads {
		t2 += tLike(p, w, geo.N2DNew, p.B2D)
		t3 += tLike(p, w, geo.N3D, b3d)
		e2 += eLike(p, w, geo.N2DNew, p.B2D, p.Alpha2D, p.EMIdle2D)
		e3 += eLike(p, w, geo.N3D, b3d, p.Alpha3D, p.EMIdle3D)
	}
	s := t2 / t3
	return Result{Speedup: s, EnergyRatio: e2 / e3, EDPBenefit: s * e2 / e3}, geo, nil
}

// Case2Benefit evaluates the via-pitch case: β is converted to an
// effective δ (via-pitch-limited cell growth) and fed through Case 1.
func Case2Benefit(p Params, a AreaModel, loads []Load, beta float64,
	viasPerCell int, pitch, cellArea2D float64) (Result, Case1Result, error) {

	delta, err := Case2Delta(beta, viasPerCell, pitch, cellArea2D)
	if err != nil {
		return Result{}, Case1Result{}, err
	}
	return Case1Benefit(p, a, loads, delta)
}

// Case3Benefit evaluates Y interleaved compute+memory tier pairs vs the
// original 2D baseline: N scales as Y·⌊1+γ_cells+γ_perif⌋ (each memory
// tier brings its own peripherals/IO), and total M3D bandwidth scales with
// Y (one banked memory system per pair).
func Case3Benefit(p Params, a AreaModel, loads []Load, y int) (Result, int, error) {
	if err := p.Validate(); err != nil {
		return Result{}, 0, err
	}
	n, err := a.Case3N(y)
	if err != nil {
		return Result{}, 0, err
	}
	if len(loads) == 0 {
		return Result{}, 0, fmt.Errorf("analytic: no loads: %w", errs.ErrBadSpec)
	}
	b3d := p.B3D * float64(y)
	var t2, t3, e2, e3 float64
	for _, w := range loads {
		t2 += T2D(p, w)
		t3 += tLike(p, w, n, b3d)
		e2 += E2D(p, w)
		e3 += eLike(p, w, n, b3d, p.Alpha3D, p.EMIdle3D)
	}
	s := t2 / t3
	return Result{Speedup: s, EnergyRatio: e2 / e3, EDPBenefit: s * e2 / e3}, n, nil
}

// SweepPoint is one cell of the Fig. 8 heat map.
type SweepPoint struct {
	NumCS      int
	BWScale    float64
	EDPBenefit float64
}

// sweepPoint computes one Fig. 8 grid cell: an M3D design with n CSs and
// b×B2D total bandwidth vs the 1-CS 2D baseline.
func sweepPoint(p Params, w Load, n int, b float64) SweepPoint {
	b3d := p.B2D * b
	t2 := T2D(p, w)
	t3 := tLike(p, w, n, b3d)
	e2 := E2D(p, w)
	e3 := eLike(p, w, n, b3d, p.Alpha3D, p.EMIdle3D)
	return SweepPoint{
		NumCS:      n,
		BWScale:    b,
		EDPBenefit: (t2 / t3) * (e2 / e3),
	}
}

// validateSweepAxes mirrors the serial sweep's error order: the first
// offending axis value in row-major (csCounts outer, bwScales inner)
// iteration order is reported. Violations match errs.ErrBadSpec.
func validateSweepAxes(csCounts []int, bwScales []float64) error {
	for _, n := range csCounts {
		if n < 1 {
			return fmt.Errorf("analytic: CS count %d must be ≥ 1: %w", n, errs.ErrBadSpec)
		}
		for _, b := range bwScales {
			if b <= 0 {
				return fmt.Errorf("analytic: bandwidth scale %g must be positive: %w", b, errs.ErrBadSpec)
			}
		}
	}
	return nil
}

// SweepBandwidthCS evaluates the Fig. 8 grid: EDP benefit as a function of
// parallel CS count and total-bandwidth scale, for a workload with the
// given compute intensity (ops per bit). Each point is an M3D design with
// n CSs and b×B2D total bandwidth vs the 1-CS 2D baseline.
//
// Points are evaluated concurrently on the exec worker pool (the shared
// exec.Option surface controls width, cancellation, tracing and
// metrics); results are returned in the serial row-major order (csCounts
// outer, bwScales inner) and are bit-identical to the serial evaluation
// at any pool width. Points are not memoized: computing one is cheaper
// than a cache lookup (EXPERIMENTS.md, "Point caches deleted"). When a
// tracer is attached the whole grid runs under one "analytic.sweep"
// span.
func SweepBandwidthCS(p Params, w Load, csCounts []int, bwScales []float64, opts ...exec.Option) ([]SweepPoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := validateSweepAxes(csCounts, bwScales); err != nil {
		return nil, err
	}
	if len(csCounts) == 0 || len(bwScales) == 0 {
		return nil, nil
	}
	st := exec.Resolve(opts...)
	if st.Label == "" {
		st.Label = "sweep.point"
	}
	if st.Tracer != nil {
		sp := st.Tracer.StartSpan("analytic.sweep",
			obs.Int("cs_axis", len(csCounts)), obs.Int("bw_axis", len(bwScales)))
		defer sp.End()
	}
	return exec.GridWith(st, csCounts, bwScales, func(_ context.Context, n int, b float64) (SweepPoint, error) {
		return sweepPoint(p, w, n, b), nil
	})
}

// sweepBandwidthCSSerial is the seed implementation, retained as the
// reference for the parallel-equivalence tests.
func sweepBandwidthCSSerial(p Params, w Load, csCounts []int, bwScales []float64) ([]SweepPoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var out []SweepPoint
	for _, n := range csCounts {
		if n < 1 {
			return nil, fmt.Errorf("analytic: CS count %d must be ≥ 1", n)
		}
		for _, b := range bwScales {
			if b <= 0 {
				return nil, fmt.Errorf("analytic: bandwidth scale %g must be positive", b)
			}
			out = append(out, sweepPoint(p, w, n, b))
		}
	}
	return out, nil
}
