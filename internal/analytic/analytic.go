// Package analytic implements the paper's Sec. III analytical framework
// verbatim: execution-time and energy models for iso-footprint,
// iso-on-chip-memory-capacity M3D chips vs 2D baselines (Eqs. 1-8), the
// area model that converts freed Si CMOS area into parallel computing
// sub-systems (Eq. 2), and the three design-space cases — BEOL memory
// access FET width relaxation δ (Case 1, Eqs. 9-12), M3D via pitch β
// (Case 2), and multiple interleaved compute/memory tier pairs Y (Case 3)
// with the Eq. 17 thermal limit.
package analytic

import (
	"fmt"
	"math"

	"m3d/internal/errs"
)

// Params carries the abstract machine quantities of Sec. III. The JSON
// names are the /v1/sweep wire form.
type Params struct {
	// PPeak is ops/cycle of one computing sub-system (the paper's P_peak).
	PPeak float64 `json:"p_peak"`
	// B2D is the baseline total memory bandwidth in bits/cycle.
	B2D float64 `json:"b_2d"`
	// B3D is the M3D total memory bandwidth in bits/cycle (8×B2D in the
	// case study: 8× banks).
	B3D float64 `json:"b_3d"`
	// N is the number of parallel CSs in the M3D chip (Eq. 2).
	N int `json:"n"`

	// Alpha2D / Alpha3D are memory access energies, J/bit (α_2D, α_3D).
	Alpha2D float64 `json:"alpha_2d"`
	Alpha3D float64 `json:"alpha_3d"`
	// EC is compute energy per op (E_C); identical for 2D and M3D since
	// both implement CSs in Si CMOS.
	EC float64 `json:"e_c"`
	// ECIdle is CS idle energy per cycle (E_C^idle).
	ECIdle float64 `json:"e_c_idle"`
	// EMIdle2D / EMIdle3D are memory idle energies per cycle (E_M^idle).
	EMIdle2D float64 `json:"e_m_idle_2d"`
	EMIdle3D float64 `json:"e_m_idle_3d"`
}

// Validate checks the parameters. Violations match errs.ErrBadSpec.
func (p Params) Validate() error {
	if p.PPeak <= 0 || p.B2D <= 0 || p.B3D <= 0 {
		return fmt.Errorf("analytic: PPeak/B2D/B3D must be positive: %w", errs.ErrBadSpec)
	}
	if p.N < 1 {
		return fmt.Errorf("analytic: N must be ≥ 1, got %d: %w", p.N, errs.ErrBadSpec)
	}
	return nil
}

// Load is one workload: F₀ compute ops over D₀ bits of on-chip data, with
// at most N# parallel partitions. The JSON names are the /v1/sweep wire
// form.
type Load struct {
	F0 float64 `json:"f0"` // ops
	D0 float64 `json:"d0"` // bits
	// NPart is N#, the most CSs the load can use: it runs on
	// min(N#, n) of n CSs. A value below 1 (unknown) runs it on one CS,
	// in every model of this package.
	NPart int `json:"n_part"`
}

// T2D is Eq. 1: baseline execution time in cycles.
func T2D(p Params, w Load) float64 {
	return math.Max(w.D0/p.B2D, w.F0/p.PPeak)
}

// T3D is Eq. 4: M3D execution time in cycles. The D₀·N/B₃D term models the
// bandwidth cost of feeding N partitions from the equally-partitioned banks.
func T3D(p Params, w Load) float64 {
	return tLike(p, w, p.N, p.B3D)
}

// Speedup is Eq. 5.
func Speedup(p Params, w Load) float64 {
	return T2D(p, w) / T3D(p, w)
}

// E2D is Eq. 6: baseline energy in joules (cycle-denominated idle terms).
func E2D(p Params, w Load) float64 {
	t := T2D(p, w)
	return p.Alpha2D*w.D0 +
		p.EMIdle2D*(t-w.D0/p.B2D) +
		p.ECIdle*(t-w.F0/p.PPeak) +
		p.EC*w.F0
}

// E3D is Eq. 7: M3D energy in joules.
func E3D(p Params, w Load) float64 {
	return eLike(p, w, p.N, p.B3D, p.Alpha3D, p.EMIdle3D)
}

// Result bundles the three headline quantities for one load.
type Result struct {
	Speedup     float64
	EnergyRatio float64 // E2D / E3D (>1 means M3D uses less)
	EDPBenefit  float64
}

// Evaluate computes all three quantities; the EDP benefit is Eq. 8,
// speedup × energy ratio.
func Evaluate(p Params, w Load) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if w.F0 <= 0 || w.D0 <= 0 {
		return Result{}, fmt.Errorf("analytic: load needs positive F0/D0: %w", errs.ErrBadSpec)
	}
	e2, e3 := E2D(p, w), E3D(p, w)
	if e3 <= 0 {
		return Result{}, fmt.Errorf("analytic: non-positive M3D energy %g", e3)
	}
	s := Speedup(p, w)
	return Result{Speedup: s, EnergyRatio: e2 / e3, EDPBenefit: s * e2 / e3}, nil
}

// EvaluateMany sums times and energies over a sequence of loads (a model's
// layers) and returns aggregate benefits.
func EvaluateMany(p Params, loads []Load) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if len(loads) == 0 {
		return Result{}, fmt.Errorf("analytic: no loads: %w", errs.ErrBadSpec)
	}
	var t2, t3, e2, e3 float64
	for _, w := range loads {
		t2 += T2D(p, w)
		t3 += T3D(p, w)
		e2 += E2D(p, w)
		e3 += E3D(p, w)
	}
	s := t2 / t3
	return Result{Speedup: s, EnergyRatio: e2 / e3, EDPBenefit: s * e2 / e3}, nil
}
