package netlist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"m3d/internal/cell"
	"m3d/internal/geom"
	"m3d/internal/tech"
)

func testLib(t *testing.T) (*tech.PDK, *cell.Library) {
	t.Helper()
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	return p, lib
}

// buildChain makes a simple inverter chain of length n driven by a DFF.
func buildChain(t *testing.T, lib *cell.Library, n int) *Netlist {
	t.Helper()
	nl := New("chain")
	ff := nl.AddCell("ff0", lib.MustPick(cell.DFF, 1))
	prev := nl.AddNet("n0", 0.2)
	nl.MustPin(ff, "Q", true, 0, prev)
	for i := 0; i < n; i++ {
		inv := nl.AddCell("inv", lib.MustPick(cell.Inv, 1))
		nl.MustPin(inv, "A", false, inv.Cell.InputCapF, prev)
		next := nl.AddNet("n", 0.2)
		nl.MustPin(inv, "Y", true, 0, next)
		prev = next
	}
	// Terminate the final net so Check passes.
	sink := nl.AddCell("sinkff", lib.MustPick(cell.DFF, 1))
	nl.MustPin(sink, "D", false, sink.Cell.InputCapF, prev)
	return nl
}

func TestBuildAndCheck(t *testing.T) {
	_, lib := testLib(t)
	nl := buildChain(t, lib, 5)
	if err := nl.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(nl.Instances) != 7 {
		t.Errorf("instances = %d, want 7", len(nl.Instances))
	}
	if len(nl.Nets) != 6 {
		t.Errorf("nets = %d, want 6", len(nl.Nets))
	}
}

func TestMultipleDriversRejected(t *testing.T) {
	_, lib := testLib(t)
	nl := New("bad")
	a := nl.AddCell("a", lib.MustPick(cell.Inv, 1))
	b := nl.AddCell("b", lib.MustPick(cell.Inv, 1))
	n := nl.AddNet("n", 0.1)
	nl.MustPin(a, "Y", true, 0, n)
	if _, err := nl.AddPin(b, "Y", true, 0, n); err == nil {
		t.Fatal("second driver should be rejected")
	}
}

// TestRefusedDriverLeavesNetlistUnchanged: a refused second driver must
// not leave its pin behind on the instance or in the pin table.
func TestRefusedDriverLeavesNetlistUnchanged(t *testing.T) {
	nl := New("two_macros")
	ref := &MacroRef{Kind: "sram", Width: 10_000, Height: 10_000}
	a := nl.AddMacro("a", ref, tech.TierSiCMOS)
	b := nl.AddMacro("b", ref, tech.TierSiCMOS)
	n := nl.AddNet("n", 0.1)
	first := nl.MustPin(a, "Q", true, 0, n)
	if _, err := nl.AddPin(b, "Q", true, 0, n); err == nil {
		t.Fatal("second driver should be rejected")
	}
	if got := nl.NumPins(); got != 1 {
		t.Errorf("NumPins = %d after the refused pin, want 1", got)
	}
	if got := len(b.Pins()); got != 0 {
		t.Errorf("refused instance holds %d pins, want 0", got)
	}
	if n.Driver != first {
		t.Errorf("net driver = %v, want the first pin", n.Driver)
	}
}

func TestCheckCatchesFloating(t *testing.T) {
	_, lib := testLib(t)

	nl := New("nodriver")
	i := nl.AddCell("i", lib.MustPick(cell.Inv, 1))
	n := nl.AddNet("n", 0.1)
	nl.MustPin(i, "A", false, 1e-15, n)
	if err := nl.Check(); err == nil {
		t.Error("undriven net not caught")
	}

	nl2 := New("nosink")
	i2 := nl2.AddCell("i", lib.MustPick(cell.Inv, 1))
	n2 := nl2.AddNet("n", 0.1)
	nl2.MustPin(i2, "Y", true, 0, n2)
	if err := nl2.Check(); err == nil {
		t.Error("sinkless net not caught")
	}
}

func TestInstanceGeometry(t *testing.T) {
	p, lib := testLib(t)
	nl := New("geom")
	inv := nl.AddCell("i", lib.MustPick(cell.Inv, 1))
	inv.Pos = geom.Pt(1000, 2000)
	if inv.Width(p) != int64(inv.Cell.Sites)*p.SiteWidth {
		t.Error("cell width mismatch")
	}
	if inv.Height(p) != p.RowHeight {
		t.Error("cell height mismatch")
	}
	b := inv.Bounds(p)
	if b.Lo != inv.Pos {
		t.Error("bounds origin mismatch")
	}
	if b.Area() != inv.AreaNM2(p) {
		t.Error("area mismatch")
	}
}

func TestMacroInstance(t *testing.T) {
	p, _ := testLib(t)
	nl := New("mac")
	m := &MacroRef{
		Kind: "rram_bank", Width: 500_000, Height: 400_000,
		Blockages: []Blockage{{Tier: tech.TierSiCMOS, Rect: geom.R(0, 0, 500_000, 300_000)}},
	}
	inst := nl.AddMacro("bank0", m, tech.TierRRAM)
	if !inst.IsMacro() || !inst.Fixed {
		t.Error("macro must be fixed and report IsMacro")
	}
	if inst.AreaNM2(p) != 500_000*400_000 {
		t.Error("macro area mismatch")
	}
	if m.Area() != 500_000*400_000 {
		t.Error("MacroRef.Area mismatch")
	}
}

func TestStats(t *testing.T) {
	p, lib := testLib(t)
	nl := buildChain(t, lib, 3)
	m := &MacroRef{Kind: "sram", Width: 100_000, Height: 100_000}
	nl.AddMacro("buf0", m, tech.TierSiCMOS)
	s := nl.ComputeStats(p)
	if s.Cells != 5 || s.Macros != 1 {
		t.Errorf("cells/macros = %d/%d, want 5/1", s.Cells, s.Macros)
	}
	if s.Sequential != 2 {
		t.Errorf("sequential = %d, want 2", s.Sequential)
	}
	if s.MacroAreaNM2 != 100_000*100_000 {
		t.Errorf("macro area = %d", s.MacroAreaNM2)
	}
	if s.CellAreaNM2[tech.TierSiCMOS] <= 0 {
		t.Error("Si cell area should be positive")
	}
	if s.FloatingNets != 0 {
		t.Errorf("floating nets = %d, want 0", s.FloatingNets)
	}
}

func TestNetHPWLAndCap(t *testing.T) {
	_, lib := testLib(t)
	nl := New("wl")
	a := nl.AddCell("a", lib.MustPick(cell.Inv, 1))
	b := nl.AddCell("b", lib.MustPick(cell.Inv, 2))
	c := nl.AddCell("c", lib.MustPick(cell.Inv, 4))
	n := nl.AddNet("n", 0.1)
	nl.MustPin(a, "Y", true, 0, n)
	pb := nl.MustPin(b, "A", false, b.Cell.InputCapF, n)
	pc := nl.MustPin(c, "A", false, c.Cell.InputCapF, n)
	a.Pos = geom.Pt(0, 0)
	b.Pos = geom.Pt(10_000, 0)
	c.Pos = geom.Pt(5_000, 7_000)
	if got := n.HPWL(); got != 17_000 {
		t.Errorf("HPWL = %d, want 17000", got)
	}
	wantCap := pb.CapF + pc.CapF
	if got := n.SinkCapF(); got != wantCap {
		t.Errorf("SinkCapF = %g, want %g", got, wantCap)
	}
}

func TestPinLoc(t *testing.T) {
	_, lib := testLib(t)
	nl := New("pin")
	a := nl.AddCell("a", lib.MustPick(cell.Inv, 1))
	n := nl.AddNet("n", 0.1)
	p := nl.MustPin(a, "Y", true, 0, n)
	p.Offset = geom.Pt(100, 200)
	a.Pos = geom.Pt(1000, 1000)
	if p.Loc() != geom.Pt(1100, 1200) {
		t.Errorf("pin loc = %v", p.Loc())
	}
}

func TestSelections(t *testing.T) {
	_, lib := testLib(t)
	nl := buildChain(t, lib, 4)
	nl.AddMacro("m", &MacroRef{Kind: "x", Width: 10, Height: 10}, tech.TierRRAM)
	if got := len(nl.MovableCells()); got != 6 {
		t.Errorf("movable = %d, want 6", got)
	}
	if got := len(nl.MacroInstances()); got != 1 {
		t.Errorf("macros = %d, want 1", got)
	}
	if got := len(nl.CellsOn(tech.TierSiCMOS)); got != 6 {
		t.Errorf("Si cells = %d, want 6", got)
	}
	if got := len(nl.CellsOn(tech.TierCNFET)); got != 0 {
		t.Errorf("CNFET cells = %d, want 0", got)
	}
}

func TestTotalHPWLExcludesClock(t *testing.T) {
	_, lib := testLib(t)
	nl := New("clk")
	a := nl.AddCell("a", lib.MustPick(cell.ClkBuf, 1))
	b := nl.AddCell("b", lib.MustPick(cell.DFF, 1))
	n := nl.AddNet("clk", 1.0)
	n.Clock = true
	nl.MustPin(a, "Y", true, 0, n)
	nl.MustPin(b, "CK", false, b.Cell.InputCapF, n)
	a.Pos = geom.Pt(0, 0)
	b.Pos = geom.Pt(50_000, 0)
	if got := nl.TotalHPWL(); got != 0 {
		t.Errorf("clock nets must not count toward signal HPWL, got %d", got)
	}
}

// Property: any randomly wired single-driver netlist passes Check, and its
// stats add up.
func TestRandomNetlistInvariants(t *testing.T) {
	p, lib := testLib(t)
	kinds := []cell.Kind{cell.Inv, cell.Nand2, cell.Nor2, cell.Xor2, cell.DFF}
	f := func(seed int64, nCellsRaw, nNetsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nCells := 2 + int(nCellsRaw)%30
		nNets := 1 + int(nNetsRaw)%20
		nl := New("rand")
		for i := 0; i < nCells; i++ {
			k := kinds[rng.Intn(len(kinds))]
			nl.AddCell("c", lib.MustPick(k, 1))
		}
		for i := 0; i < nNets; i++ {
			n := nl.AddNet("n", rng.Float64())
			drv := nl.Instances[rng.Intn(nCells)]
			nl.MustPin(drv, "Y", true, 0, n)
			nSinks := 1 + rng.Intn(4)
			for j := 0; j < nSinks; j++ {
				s := nl.Instances[rng.Intn(nCells)]
				nl.MustPin(s, "A", false, s.Cell.InputCapF, n)
			}
		}
		if err := nl.Check(); err != nil {
			return false
		}
		st := nl.ComputeStats(p)
		return st.Cells == nCells && st.Nets == nNets && st.FloatingNets == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
