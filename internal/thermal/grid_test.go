package thermal

import (
	"testing"

	"m3d/internal/geom"
	"m3d/internal/tech"
)

const mm = int64(1_000_000)

func uniform(totalW float64) *geom.Grid {
	g := geom.NewGrid(geom.R(0, 0, 4*mm, 4*mm), mm/4)
	g.AddRect(g.Region, totalW)
	return g
}

func TestSolveGridUniform(t *testing.T) {
	p := tech.Default130()
	rep, err := SolveGrid(p, uniform(1.0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakRiseK <= 0 || rep.MeanRiseK <= 0 {
		t.Fatal("no temperature rise from 1 W")
	}
	if rep.PeakRiseK < rep.MeanRiseK {
		t.Error("peak below mean")
	}
	// Uniform power on a uniform mesh: total rise ≈ P × stack resistance
	// when lateral conduction evens things out. Sanity band: the mean rise
	// should be within 3x of the lumped Eq. 17 value.
	lumped := NewStack(p, []float64{1.0}).TempRiseK()
	if rep.MeanRiseK < lumped/3 || rep.MeanRiseK > lumped*3 {
		t.Errorf("mean rise %g K far from lumped %g K", rep.MeanRiseK, lumped)
	}
	if !rep.Feasible {
		t.Error("1 W should be thermally fine")
	}
	if rep.Iterations >= 10000 {
		t.Error("solver hit the iteration cap")
	}
}

func TestSolveGridHotspot(t *testing.T) {
	p := tech.Default130()
	g := uniform(0.5)
	hot := geom.R(mm/2, mm/2, mm, mm)
	g.AddRect(hot, 1.0)
	rep, err := SolveGrid(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakAt.ManhattanDist(hot.Center()) > 2*mm {
		t.Errorf("peak at %v, expected near hotspot %v", rep.PeakAt, hot.Center())
	}
	if rep.PeakRiseK <= rep.MeanRiseK*1.05 {
		t.Error("a hotspot should clearly exceed the mean")
	}
}

func TestSolveGridScalesWithTiers(t *testing.T) {
	// More interleaved tiers = taller stack = hotter at equal power.
	p := tech.Default130()
	r1, err := SolveGrid(p, uniform(2.0), 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := SolveGrid(p, uniform(2.0), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.PeakRiseK <= r1.PeakRiseK {
		t.Errorf("4 tiers (%g K) should run hotter than 1 (%g K)", r4.PeakRiseK, r1.PeakRiseK)
	}
}

func TestSolveGridLinearity(t *testing.T) {
	p := tech.Default130()
	r1, err := SolveGrid(p, uniform(0.5), 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveGrid(p, uniform(1.0), 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r2.PeakRiseK / r1.PeakRiseK
	if ratio < 1.95 || ratio > 2.05 {
		t.Errorf("linear system: 2x power should give 2x rise, got %.3fx", ratio)
	}
}

func TestSolveGridValidation(t *testing.T) {
	p := tech.Default130()
	if _, err := SolveGrid(p, nil, 1); err == nil {
		t.Error("nil density should fail")
	}
	if _, err := SolveGrid(p, uniform(1), 0); err == nil {
		t.Error("0 tiers should fail")
	}
	bad := tech.Default130()
	bad.VDD = 0
	if _, err := SolveGrid(bad, uniform(1), 1); err == nil {
		t.Error("invalid PDK should fail")
	}
}
