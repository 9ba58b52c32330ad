package irdrop

import (
	"strings"
	"testing"

	"m3d/internal/geom"
	"m3d/internal/tech"
)

const mm = int64(1_000_000)

func uniformDensity(die geom.Rect, totalW float64) *geom.Grid {
	g := geom.NewGrid(die, die.W()/16)
	g.AddRect(die, totalW)
	return g
}

func TestZeroPowerZeroDrop(t *testing.T) {
	p := tech.Default130()
	die := geom.R(0, 0, 2*mm, 2*mm)
	rep, err := Analyze(p, die, uniformDensity(die, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorstDropV > 1e-9 {
		t.Errorf("zero power should give zero drop, got %g", rep.WorstDropV)
	}
	if !rep.Pass {
		t.Error("zero drop must pass")
	}
}

func TestDropScalesWithPower(t *testing.T) {
	p := tech.Default130()
	die := geom.R(0, 0, 2*mm, 2*mm)
	r1, err := Analyze(p, die, uniformDensity(die, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Analyze(p, die, uniformDensity(die, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if r2.WorstDropV <= r1.WorstDropV {
		t.Error("drop must grow with power")
	}
	// Linear system: 2x power => ~2x drop.
	ratio := r2.WorstDropV / r1.WorstDropV
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("drop ratio = %.2f, want ≈2 (linearity)", ratio)
	}
}

func TestWorstDropAwayFromPads(t *testing.T) {
	// With a boundary pad ring and uniform power, the worst node is near
	// the die center.
	p := tech.Default130()
	die := geom.R(0, 0, 4*mm, 4*mm)
	rep, err := Analyze(p, die, uniformDensity(die, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	c := die.Center()
	if rep.WorstAt.ManhattanDist(c) > die.W()/3 {
		t.Errorf("worst drop at %v, expected near center %v", rep.WorstAt, c)
	}
	if rep.MeanDropV <= 0 || rep.MeanDropV > rep.WorstDropV {
		t.Errorf("mean drop %g inconsistent with worst %g", rep.MeanDropV, rep.WorstDropV)
	}
}

func TestHotspotRaisesLocalDrop(t *testing.T) {
	p := tech.Default130()
	die := geom.R(0, 0, 4*mm, 4*mm)
	// Uniform background plus a hotspot off-center.
	g := uniformDensity(die, 0.2)
	hot := geom.R(mm, mm, mm+mm/2, mm+mm/2)
	g.AddRect(hot, 0.3)
	rep, err := Analyze(p, die, g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorstAt.ManhattanDist(hot.Center()) > die.W()/3 {
		t.Errorf("worst drop at %v, expected near hotspot %v", rep.WorstAt, hot.Center())
	}
}

func TestBudgetCheck(t *testing.T) {
	p := tech.Default130()
	die := geom.R(0, 0, 4*mm, 4*mm)
	// Enormous power: must fail the 5% budget.
	rep, err := Analyze(p, die, uniformDensity(die, 100))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Errorf("100 W on a 16 mm² die should violate the drop budget (worst %g V, budget %g V)",
			rep.WorstDropV, rep.BudgetV)
	}
}

func TestValidation(t *testing.T) {
	p := tech.Default130()
	die := geom.R(0, 0, mm, mm)
	if _, err := Analyze(p, geom.Rect{}, uniformDensity(die, 1)); err == nil {
		t.Error("empty die should fail")
	}
	if _, err := Analyze(p, die, nil); err == nil {
		t.Error("nil density should fail")
	}
	bad := tech.Default130()
	bad.VDD = 0
	if _, err := Analyze(bad, die, uniformDensity(die, 1)); err == nil {
		t.Error("invalid PDK should fail")
	}
	// A die 32 mm wide and 1 mm tall gets a 1 mm mesh pitch: one node row.
	strip := geom.R(0, 0, 32*mm, mm)
	if _, err := Analyze(p, strip, uniformDensity(strip, 1)); err == nil || !strings.Contains(err.Error(), "too coarse") {
		t.Errorf("too-coarse mesh: error %v, want a too-coarse failure", err)
	}
}

func TestSolverConverges(t *testing.T) {
	p := tech.Default130()
	die := geom.R(0, 0, 2*mm, 2*mm)
	rep, err := Analyze(p, die, uniformDensity(die, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations >= maxIterations {
		t.Errorf("solver hit the iteration cap (%d)", rep.Iterations)
	}
	// All node voltages within [VDD - worst, VDD].
	for iy := 0; iy < rep.VoltageMap.NY; iy++ {
		for ix := 0; ix < rep.VoltageMap.NX; ix++ {
			v := rep.VoltageMap.At(ix, iy)
			if v > p.VDD+1e-12 || v < p.VDD-rep.WorstDropV-1e-12 {
				t.Fatalf("node (%d,%d) voltage %g outside bounds", ix, iy, v)
			}
		}
	}
}
