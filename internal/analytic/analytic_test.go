package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

// caseParams mirrors the Sec. II case study: P=256 ops/cycle, B3D=8×B2D,
// N=8.
func caseParams() Params {
	return Params{
		PPeak:    256,
		B2D:      256,
		B3D:      8 * 256,
		N:        8,
		Alpha2D:  0.64e-12,
		Alpha3D:  0.64e-12,
		EC:       3e-12,
		ECIdle:   23e-12,
		EMIdle2D: 1e-12,
		EMIdle3D: 1e-12,
	}
}

func TestEq1Eq4HandComputed(t *testing.T) {
	p := caseParams()
	w := Load{F0: 256_000, D0: 25_600, NPart: 100} // compute bound
	if got := T2D(p, w); got != 1000 {
		t.Errorf("T2D = %g, want 1000", got)
	}
	// T3D: compute F0/(8·256) = 125; memory D0·8/2048 = 100 → 125.
	if got := T3D(p, w); got != 125 {
		t.Errorf("T3D = %g, want 125", got)
	}
	if got := Speedup(p, w); got != 8 {
		t.Errorf("speedup = %g, want 8", got)
	}
}

func TestMemoryBoundNoSpeedup(t *testing.T) {
	// With B3D = N·B2D, a fully memory-bound load sees zero speedup: the
	// per-CS bandwidth is unchanged (the paper's explanation of Table I's
	// low-speedup layers).
	p := caseParams()
	w := Load{F0: 100, D0: 1e9, NPart: 100}
	if got := Speedup(p, w); math.Abs(got-1) > 1e-9 {
		t.Errorf("memory-bound speedup = %g, want 1", got)
	}
}

func TestPartitionLimit(t *testing.T) {
	p := caseParams()
	w := Load{F0: 256_000_000, D0: 1000, NPart: 4}
	if got := Speedup(p, w); math.Abs(got-4) > 1e-6 {
		t.Errorf("N#=4 speedup = %g, want 4", got)
	}
	if Nmax(p, w) != 4 {
		t.Errorf("Nmax = %d, want 4", Nmax(p, w))
	}
	// NPart=0 means "unknown": treated as 1.
	if Nmax(p, Load{NPart: 0}) != 1 {
		t.Error("NPart=0 should clamp to 1")
	}
}

// TestPartitionRuleOneForm: a load with N# < 1 runs on one CS in every
// model, so Eq. 8 and the generalized forms behind the Fig. 8 sweep give
// one answer at one machine point, and BalanceBandwidth balances memory
// time against the compute time Eq. 4 charges.
func TestPartitionRuleOneForm(t *testing.T) {
	p := caseParams() // N 8, B3D = 8·B2D
	for _, nPart := range []int{-2, 0, 1, 3, 8, 64} {
		w := Load{F0: 16e6, D0: 1e6, NPart: nPart}
		r, err := Evaluate(p, w)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := SweepBandwidthCS(p, w, []int{p.N}, []float64{p.B3D / p.B2D})
		if err != nil {
			t.Fatal(err)
		}
		if got := pts[0].EDPBenefit; math.Abs(got-r.EDPBenefit) > 1e-12*r.EDPBenefit {
			t.Errorf("N#=%d: sweep EDP benefit %.15g, Eq. 8 gives %.15g", nPart, got, r.EDPBenefit)
		}
		b, err := BalanceBandwidth(p, w, p.N)
		if err != nil {
			t.Fatal(err)
		}
		mem := w.D0 * float64(p.N) / b
		cmp := w.F0 / (float64(Nmax(p, w)) * p.PPeak)
		if math.Abs(mem-cmp) > 1e-12*cmp {
			t.Errorf("N#=%d: at balance bandwidth %g memory time %g != compute time %g", nPart, b, mem, cmp)
		}
	}
}

func TestEnergyRatioNearOneForComputeBound(t *testing.T) {
	p := caseParams()
	w := Load{F0: 256_000_000, D0: 256_000, NPart: 64}
	r, err := Evaluate(p, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.EnergyRatio < 0.9 || r.EnergyRatio > 1.05 {
		t.Errorf("energy ratio = %g, want ≈0.99 (Fig. 5)", r.EnergyRatio)
	}
	if r.EDPBenefit < 7 || r.EDPBenefit > 8.2 {
		t.Errorf("EDP benefit = %g, want ≈8 for a fully parallel compute-bound load", r.EDPBenefit)
	}
}

func TestEDPIsSpeedupTimesEnergyRatio(t *testing.T) {
	p := caseParams()
	f := func(fRaw, dRaw uint16, nPart uint8) bool {
		w := Load{
			F0:    float64(fRaw)*1e4 + 1e3,
			D0:    float64(dRaw)*1e3 + 1e3,
			NPart: 1 + int(nPart)%32,
		}
		r, err := Evaluate(p, w)
		if err != nil {
			return false
		}
		return math.Abs(r.EDPBenefit-r.Speedup*r.EnergyRatio)/r.EDPBenefit < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedupBounds(t *testing.T) {
	// 1 ≤ speedup ≤ min(N, N#) whenever B3D ≥ N·B2D.
	p := caseParams()
	f := func(fRaw, dRaw uint16, nPart uint8) bool {
		w := Load{
			F0:    float64(fRaw)*1e4 + 1e3,
			D0:    float64(dRaw)*1e3 + 1e3,
			NPart: 1 + int(nPart)%32,
		}
		s := Speedup(p, w)
		lim := float64(Nmax(p, w))
		return s >= 1-1e-9 && s <= lim+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestObservation5ComputeBound(t *testing.T) {
	// Obs. 5: a 16 ops/bit workload gains ≈2.1× EDP from 2× CSs at equal
	// bandwidth. Baseline here: N CSs; variant: 2N CSs, same total B3D.
	p := caseParams()
	p.N = 2
	p.B3D = p.B2D // no bandwidth change vs baseline
	w := Load{F0: 16 * 1e6, D0: 1e6, NPart: 64}
	r, err := Evaluate(p, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.EDPBenefit < 1.6 || r.EDPBenefit > 2.4 {
		t.Errorf("compute-bound 2x-CS EDP = %g, want ≈2.1 (Obs. 5)", r.EDPBenefit)
	}
}

func TestObservation5MemoryBound(t *testing.T) {
	// Obs. 5 mirror: a 16 bits/op workload gains ≈2.1× EDP from 2× total
	// bandwidth even with a single CS.
	p := caseParams()
	p.N = 1
	p.B3D = 2 * p.B2D
	w := Load{F0: 1e6, D0: 16 * 1e6, NPart: 64}
	r, err := Evaluate(p, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.EDPBenefit < 1.6 || r.EDPBenefit > 2.4 {
		t.Errorf("memory-bound 2x-BW EDP = %g, want ≈2.1 (Obs. 5)", r.EDPBenefit)
	}
}

func TestValidation(t *testing.T) {
	p := caseParams()
	p.N = 0
	if err := p.Validate(); err == nil {
		t.Error("N=0 should fail")
	}
	p = caseParams()
	p.B2D = 0
	if err := p.Validate(); err == nil {
		t.Error("B2D=0 should fail")
	}
	if _, err := Evaluate(caseParams(), Load{}); err == nil {
		t.Error("empty load should fail")
	}
	if _, err := EvaluateMany(caseParams(), nil); err == nil {
		t.Error("no loads should fail")
	}
}

func TestEvaluateManyAggregates(t *testing.T) {
	p := caseParams()
	loads := []Load{
		{F0: 256_000_000, D0: 1e6, NPart: 64},
		{F0: 1e6, D0: 64e6, NPart: 64},
	}
	r, err := EvaluateMany(p, loads)
	if err != nil {
		t.Fatal(err)
	}
	// Mixed workload: between the memory-bound 1x and compute-bound 8x.
	if r.Speedup <= 1 || r.Speedup >= 8 {
		t.Errorf("aggregate speedup = %g, want in (1, 8)", r.Speedup)
	}
}
