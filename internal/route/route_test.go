package route

import (
	"testing"

	"m3d/internal/cell"
	"m3d/internal/floorplan"
	"m3d/internal/geom"
	"m3d/internal/macro"
	"m3d/internal/netlist"
	"m3d/internal/place"
	"m3d/internal/synth"
	"m3d/internal/tech"
)

const mm = int64(1_000_000)

type fixture struct {
	p  *tech.PDK
	nl *netlist.Netlist
	fp *floorplan.Floorplan
}

func placedFixture(t testing.TB, rows, cols int) *fixture {
	t.Helper()
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	b := synth.NewBuilder("dut", lib)
	b.Systolic("cs", synth.SystolicSpec{Rows: rows, Cols: cols, ActBits: 4, WeightBits: 4, AccBits: 12, Activity: 0.2})
	die, err := floorplan.SizeDie(p, b.NL, 0.6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(p, die)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Global(fp, b.NL, tech.TierSiCMOS, place.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return &fixture{p: p, nl: b.NL, fp: fp}
}

func TestRouteCompletes(t *testing.T) {
	fx := placedFixture(t, 2, 2)
	res, err := Route(fx.fp, fx.nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedNets > 0 {
		t.Errorf("failed nets: %d", res.FailedNets)
	}
	if res.TotalWLdbu <= 0 {
		t.Error("routed wirelength should be positive")
	}
	// Routed WL should be at least the HPWL of the routable nets (global
	// routing detours), but not absurdly larger.
	hpwl := fx.nl.TotalHPWL()
	if res.TotalWLdbu > 20*hpwl {
		t.Errorf("routed WL %d is wildly above HPWL %d", res.TotalWLdbu, hpwl)
	}
}

func TestRouteSkipsClockAndHugeFanout(t *testing.T) {
	fx := placedFixture(t, 1, 1)
	res, err := Route(fx.fp, fx.nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The clock net exists in every synth netlist.
	if res.SkippedNets == 0 {
		t.Error("clock net should be skipped")
	}
	for n := range res.Routes {
		if n.Clock {
			t.Error("clock net was routed")
		}
	}
}

func TestRouteOverflowBoundedOnReasonableDesign(t *testing.T) {
	fx := placedFixture(t, 2, 2)
	res, err := Route(fx.fp, fx.nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Count the edges of the grid Route built for this floorplan: the
	// planar track and via edges that have any capacity.
	g := newGrid(fx.fp, Options{}.withDefaults())
	totalEdges := 0
	for i := range g.capH {
		for _, c := range []int32{g.capH[i], g.capV[i], g.capUp[i]} {
			if c > 0 {
				totalEdges++
			}
		}
	}
	if res.OverflowEdges > totalEdges/20 {
		t.Errorf("overflow on %d edges (>5%% of %d)", res.OverflowEdges, totalEdges)
	}
}

func TestWLByLayerAccounting(t *testing.T) {
	fx := placedFixture(t, 1, 2)
	res, err := Route(fx.fp, fx.nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, wl := range res.WLByLayer {
		sum += wl
	}
	if sum != res.TotalWLdbu {
		t.Errorf("per-layer WL %d != total %d", sum, res.TotalWLdbu)
	}
	// A 2D design routes overwhelmingly in the lower metals.
	lower := res.WLByLayer[0] + res.WLByLayer[1] + res.WLByLayer[2] + res.WLByLayer[3]
	if lower < res.TotalWLdbu*9/10 {
		t.Errorf("Si-tier design should route mostly in M1-M4: lower=%d total=%d", lower, res.TotalWLdbu)
	}
}

func TestILVUsedForCNFETTierCells(t *testing.T) {
	p := tech.Default130()
	siLib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	cnLib, err := cell.NewLibrary(p, tech.TierCNFET)
	if err != nil {
		t.Fatal(err)
	}
	nl := netlist.New("x")
	a := nl.AddCell("a", siLib.MustPick(cell.Inv, 1))
	b := nl.AddCell("b", cnLib.MustPick(cell.Inv, 1))
	n := nl.AddNet("n", 0.1)
	nl.MustPin(a, "Y", true, 0, n)
	nl.MustPin(b, "A", false, b.Cell.InputCapF, n)
	a.Pos = geom.Pt(mm/4, mm/4)
	b.Pos = geom.Pt(3*mm/4, 3*mm/4)
	a.Fixed, b.Fixed = true, true

	fp, err := floorplan.New(p, geom.R(0, 0, mm, mm))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(fp, nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalILVs == 0 {
		t.Error("a Si->CNFET net must consume an ILV")
	}
	if res.FailedNets != 0 {
		t.Errorf("failed nets: %d", res.FailedNets)
	}
}

func TestILVBlockedUnderRRAMArray(t *testing.T) {
	// Place an M3D RRAM bank covering the die center; ILV capacity under
	// its array must be zero, so a Si->CNFET net whose endpoints sit under
	// the array must detour (or fail if fully covered).
	p := tech.Default130()
	siLib, _ := cell.NewLibrary(p, tech.TierSiCMOS)
	cnLib, _ := cell.NewLibrary(p, tech.TierCNFET)

	bank, err := macro.NewRRAMBank(p, macro.RRAMBankSpec{CapacityBits: 4 << 20, WordBits: 64, Style: macro.Style3D})
	if err != nil {
		t.Fatal(err)
	}
	die := geom.R(0, 0, bank.Ref.Width*3, bank.Ref.Height*3)
	fp, err := floorplan.New(p, die)
	if err != nil {
		t.Fatal(err)
	}
	nl := netlist.New("x")
	bi := nl.AddMacro("bank", bank.Ref, tech.TierRRAM)
	if err := fp.PlaceMacro(bi, geom.Pt(bank.Ref.Width, bank.Ref.Height)); err != nil {
		t.Fatal(err)
	}

	a := nl.AddCell("a", siLib.MustPick(cell.Inv, 1))
	b := nl.AddCell("b", cnLib.MustPick(cell.Inv, 1))
	n := nl.AddNet("n", 0.1)
	nl.MustPin(a, "Y", true, 0, n)
	nl.MustPin(b, "A", false, b.Cell.InputCapF, n)
	// Both endpoints under the bank's array center.
	c := bi.Bounds(p).Center()
	a.Pos, b.Pos = c, c.Add(geom.Pt(2*p.SiteWidth, 0))
	a.Fixed, b.Fixed = true, true

	res, err := Route(fp, nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nr := res.Routes[n]
	if nr == nil {
		t.Fatal("net not routed")
	}
	// The route must run out from under the array before rising: its
	// wirelength is much larger than the pin separation.
	if nr.WLdbu <= bank.Ref.Width/2 {
		t.Errorf("expected a detour around the RRAM array, WL=%d", nr.WLdbu)
	}
	if nr.ILVs == 0 {
		t.Error("net still needs an ILV once outside the array")
	}
}

func TestRouteDeterministic(t *testing.T) {
	a := placedFixture(t, 1, 2)
	b := placedFixture(t, 1, 2)
	ra, err := Route(a.fp, a.nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Route(b.fp, b.nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ra.TotalWLdbu != rb.TotalWLdbu || ra.TotalVias != rb.TotalVias {
		t.Errorf("routing not deterministic: WL %d/%d vias %d/%d",
			ra.TotalWLdbu, rb.TotalWLdbu, ra.TotalVias, rb.TotalVias)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.GCellsX != 48 || o.MaxRipupRounds != 3 || o.MaxFanout != 64 {
		t.Errorf("defaults wrong: %+v", o)
	}
	o2 := Options{GCellsX: 10, MaxRipupRounds: 1, MaxFanout: 5}.withDefaults()
	if o2.GCellsX != 10 || o2.MaxRipupRounds != 1 || o2.MaxFanout != 5 {
		t.Errorf("explicit options clobbered: %+v", o2)
	}
}

func TestCongestionGrid(t *testing.T) {
	fx := placedFixture(t, 1, 2)
	res, err := Route(fx.fp, fx.nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Congestion == nil {
		t.Fatal("congestion map missing")
	}
	max := res.Congestion.Max()
	if max <= 0 {
		t.Error("a routed design must show utilization somewhere")
	}
	// No overflow edges => no cell above 1.0.
	if res.OverflowEdges == 0 && max > 1.0+1e-9 {
		t.Errorf("no overflow reported but congestion max = %.2f", max)
	}
}
