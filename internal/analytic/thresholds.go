package analytic

import (
	"fmt"
	"math"
)

// Closed-form design-space thresholds derived from the framework. These
// make the paper's Observations 5/7/8 available as solvers instead of
// sweep read-offs.

// DeltaStar returns the Case 1 width-relaxation threshold at which the
// commensurately-grown 2D baseline gains its k-th additional CS (Eq. 9
// crosses k): δ*_k = (A_2D + k·A_CS) / A_cells. Benefits hold while the
// baseline stays at one CS, i.e. up to DeltaStar(2) — the paper's
// "no loss up to 1.6×" point.
func (a AreaModel) DeltaStar(k int) (float64, error) {
	if err := a.Validate(); err != nil {
		return 0, err
	}
	if k < 1 {
		return 0, fmt.Errorf("analytic: k must be ≥ 1, got %d", k)
	}
	d := (a.Total2D() + float64(k)*a.ACS) / a.ACells
	if d < 1 {
		d = 1
	}
	return d, nil
}

// BetaStar converts DeltaStar into the Case 2 via-pitch threshold for a
// via-pitch-limited cell (δ_eff = β²): β* = √δ*. The paper's Obs. 8
// "cannot increase more than ~1.3×" point is BetaStar(2).
func (a AreaModel) BetaStar(k int) (float64, error) {
	d, err := a.DeltaStar(k)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(d), nil
}

// BalanceBandwidth returns the memory bandwidth (bits/cycle) at which a
// load is exactly balanced between compute and memory on n parallel CSs:
// D₀·n/B = F₀/(min(n,N#)·P). Below it the load is memory-bound; above,
// compute-bound (Obs. 5's pivot).
func BalanceBandwidth(p Params, w Load, n int) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if w.F0 <= 0 || w.D0 <= 0 {
		return 0, fmt.Errorf("analytic: load needs positive F0/D0")
	}
	if n < 1 {
		return 0, fmt.Errorf("analytic: n must be ≥ 1, got %d", n)
	}
	nm := n
	if w.NPart < nm {
		nm = max(w.NPart, 1)
	}
	return w.D0 * float64(n) * float64(nm) * p.PPeak / w.F0, nil
}

// OpsPerBitPivot returns the compute intensity (ops per bit) at which a
// load transitions from memory-bound to compute-bound on the baseline:
// F₀/D₀ = P/B.
func OpsPerBitPivot(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return p.PPeak / p.B2D, nil
}
