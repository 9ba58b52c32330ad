// Package thermal implements the paper's Eq. 17 thermal model for stacked
// M3D chips: each interleaved compute+memory tier pair j adds a vertical
// thermal resistance R_j on top of the heat-sink resistance R_0, and the
// temperature rise is
//
//	Temp_rise = Σ_{i=1..Y} ( (Σ_{j=1..i} R_j) + R_0 ) × P_i
//
// Obs. 10: with a typical ~60 K allowed rise, this quickly bounds the
// number of tiers that can be stacked, which must be folded into EDP
// projections for multi-tier designs (Case 3).
package thermal

import (
	"fmt"

	"m3d/internal/tech"
)

// TierLoad is one interleaved compute+memory tier pair: its added vertical
// thermal resistance and its dissipated power (compute + memory,
// P_i = P_C,i + P_M,i).
type TierLoad struct {
	RthetaKPerW float64
	PowerW      float64
}

// Stack is a vertical thermal stack: the heat-sink resistance plus the tier
// loads bottom-up (tier 1 is closest to the sink).
type Stack struct {
	R0KPerW float64
	Tiers   []TierLoad
}

// NewStack builds a stack from the PDK thermal parameters and per-tier
// powers (bottom-up).
func NewStack(p *tech.PDK, tierPowersW []float64) Stack {
	s := Stack{R0KPerW: p.RthetaSink}
	for _, pw := range tierPowersW {
		s.Tiers = append(s.Tiers, TierLoad{RthetaKPerW: p.RthetaPerTier, PowerW: pw})
	}
	return s
}

// TempRiseK evaluates Eq. 17.
func (s Stack) TempRiseK() float64 {
	var rise, rAccum float64
	for _, t := range s.Tiers {
		rAccum += t.RthetaKPerW
		rise += (rAccum + s.R0KPerW) * t.PowerW
	}
	return rise
}

// Feasible reports whether the stack stays within the allowed rise.
func (s Stack) Feasible(maxRiseK float64) bool {
	return s.TempRiseK() <= maxRiseK
}

// MaxTiers returns the largest number of identical tiers (each dissipating
// perTierPowerW) whose Eq. 17 rise stays within the PDK's MaxTempRiseK.
// Returns 0 if even one tier exceeds the budget.
func MaxTiers(p *tech.PDK, perTierPowerW float64) int {
	const cap = 1 << 20 // sanity bound for negligible powers
	if perTierPowerW <= 0 {
		return cap
	}
	// Incremental Eq. 17 for identical tiers:
	// rise(Y) = rise(Y-1) + (Y·R_tier + R0) · P.
	rise := 0.0
	for y := 1; y <= cap; y++ {
		rise += (float64(y)*p.RthetaPerTier + p.RthetaSink) * perTierPowerW
		if rise > p.MaxTempRiseK {
			return y - 1
		}
	}
	return cap
}

// HotspotRiseK estimates the peak local temperature rise from the peak
// power density (W/mm², power.Breakdown.PeakDensityWPerMM2): the hottest
// grid cell's power density is spread over a spreading area (sprdMM2,
// typically a few mm²) and driven through the full stack resistance. It
// is a coarse bound, matching the paper's use of Eq. 17 rather than a
// field solver.
func HotspotRiseK(s Stack, peakWPerMM2, sprdMM2 float64) (float64, error) {
	if sprdMM2 <= 0 {
		return 0, fmt.Errorf("thermal: spreading area must be positive, got %g", sprdMM2)
	}
	var rTotal float64 = s.R0KPerW
	for _, t := range s.Tiers {
		rTotal += t.RthetaKPerW
	}
	return peakWPerMM2 * sprdMM2 * rTotal, nil
}
