package vary

import (
	"fmt"

	"m3d/internal/analytic"
	"m3d/internal/errs"
	"m3d/internal/tech"
)

// perturb maps a process corner onto the analytic case-study model: a
// slow CNFET tier (scale > 1) lengthens the BEOL access-transistor
// switching time and so divides the M3D bandwidth, and ILV resistance
// spread on the RRAM tier raises the 3D access energy proportionally.
// The Si tier's spread hits 2D and M3D compute identically and cancels
// out of the EDP *ratio*, so it does not enter. At the nominal corner
// (all scales exactly 1.0) the parameters pass through bit-for-bit.
func perturb(p analytic.Params, c Corner) analytic.Params {
	p.B3D /= c.TierScale[tech.TierCNFET]
	p.Alpha3D *= c.TierScale[tech.TierRRAM]
	return p
}

// EDPSamples evaluates one design point of the analytic model under n
// process corners, returning the per-corner EDP benefits in sample-index
// order. n outside [1, MaxSamples] matches errs.ErrBadSpec. The loop is
// serial on purpose: each evaluation is a handful of closed-form
// equations, far below the cost of a goroutine handoff, and callers (the
// DSE evaluator) already fan out across design points.
func EDPSamples(p analytic.Params, a analytic.AreaModel, loads []analytic.Load, d analytic.DesignPoint, s *Sampler, n int) ([]float64, error) {
	if n < 1 || n > MaxSamples {
		return nil, fmt.Errorf("vary: samples %d out of range [1, %d]: %w", n, MaxSamples, errs.ErrBadSpec)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		res, err := analytic.CasePoint(perturb(p, s.Corner(i)), a, loads, d)
		if err != nil {
			return nil, err
		}
		out[i] = res.EDPBenefit
	}
	return out, nil
}

// EDPBand is the p5/p50/p95 variation band of EDP benefit at one design
// point: EDPSamples reduced through QuantilesOf. P5 is the
// yield-constrained objective — the benefit 95% of manufactured chips
// meet or beat.
func EDPBand(p analytic.Params, a analytic.AreaModel, loads []analytic.Load, d analytic.DesignPoint, s *Sampler, n int) (Quantiles, error) {
	xs, err := EDPSamples(p, a, loads, d, s, n)
	if err != nil {
		return Quantiles{}, err
	}
	return QuantilesOf(xs), nil
}
