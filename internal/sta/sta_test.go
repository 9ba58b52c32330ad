package sta

import (
	"testing"

	"m3d/internal/cell"
	"m3d/internal/floorplan"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/place"
	"m3d/internal/route"
	"m3d/internal/synth"
	"m3d/internal/tech"
)

func libs(t *testing.T) (*tech.PDK, *cell.Library) {
	t.Helper()
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	return p, lib
}

// pipelineNetlist builds FF -> inv chain (n stages) -> FF with known delays.
func pipelineNetlist(t *testing.T, lib *cell.Library, stages int) *netlist.Netlist {
	t.Helper()
	b := synth.NewBuilder("pipe", lib)
	d := b.Input("in", 0.2)
	q := b.Register("launch", synth.Bus{d}, 0.2)
	sig := q[0]
	for i := 0; i < stages; i++ {
		sig = chainInv(b, sig)
	}
	b.SinkBus("capture", synth.Bus{sig})
	if err := b.NL.Check(); err != nil {
		t.Fatal(err)
	}
	return b.NL
}

func chainInv(b *synth.Builder, in *netlist.Net) *netlist.Net {
	inv := b.NL.AddCell("inv", b.Lib.MustPick(cell.Inv, 1))
	b.NL.MustPin(inv, "A", false, inv.Cell.InputCapF, in)
	out := b.NL.AddNet("n", 0.2)
	b.NL.MustPin(inv, "Y", true, 0, out)
	return out
}

func TestAnalyzeSimplePipeline(t *testing.T) {
	p, lib := libs(t)
	nl := pipelineNetlist(t, lib, 4)
	rep, err := Analyze(p, nl, nil, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Endpoints == 0 {
		t.Fatal("no endpoints")
	}
	if rep.CriticalPathS <= 0 {
		t.Fatal("critical path must be positive")
	}
	// Unplaced cells (coincident pins): path ≈ clkQ + gate delays + setup;
	// a 4-inverter path at 130 nm is well under 50 ns.
	if !rep.Met() {
		t.Errorf("4-stage pipeline should meet 20 MHz, path=%g", rep.CriticalPathS)
	}
	if rep.FmaxHz <= 0 {
		t.Error("fmax missing")
	}
}

func TestLongerChainSlower(t *testing.T) {
	p, lib := libs(t)
	short := pipelineNetlist(t, lib, 2)
	long := pipelineNetlist(t, lib, 30)
	rs, err := Analyze(p, short, nil, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Analyze(p, long, nil, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	if rl.CriticalPathS <= rs.CriticalPathS {
		t.Errorf("30 stages (%g) should be slower than 2 (%g)", rl.CriticalPathS, rs.CriticalPathS)
	}
}

func TestWireDelayMatters(t *testing.T) {
	p, lib := libs(t)
	// Two cells far apart: placed distance should raise the path delay via
	// the HPWL wire model.
	build := func(dist int64) *netlist.Netlist {
		nl := netlist.New("w")
		ff := nl.AddCell("ff", lib.MustPick(cell.DFF, 1))
		inv := nl.AddCell("inv", lib.MustPick(cell.Inv, 1))
		cap := nl.AddCell("cap", lib.MustPick(cell.DFF, 1))
		clk := nl.AddNet("clk", 2)
		clk.Clock = true
		cb := nl.AddCell("cb", lib.MustPick(cell.ClkBuf, 4))
		tie := nl.AddCell("tie", lib.MustPick(cell.TieHi, 1))
		tn := nl.AddNet("tn", 0)
		nl.MustPin(tie, "Y", true, 0, tn)
		nl.MustPin(cb, "A", false, cb.Cell.InputCapF, tn)
		nl.MustPin(cb, "Y", true, 0, clk)
		nl.MustPin(ff, "CK", false, ff.Cell.InputCapF, clk)
		nl.MustPin(cap, "CK", false, cap.Cell.InputCapF, clk)
		n1 := nl.AddNet("n1", 0.2)
		nl.MustPin(ff, "Q", true, 0, n1)
		nl.MustPin(inv, "A", false, inv.Cell.InputCapF, n1)
		n2 := nl.AddNet("n2", 0.2)
		nl.MustPin(inv, "Y", true, 0, n2)
		nl.MustPin(cap, "D", false, cap.Cell.InputCapF, n2)
		inv.Pos = geom.Pt(dist, 0)
		cap.Pos = geom.Pt(2*dist, 0)
		return nl
	}
	near, err := Analyze(p, build(1000), nil, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	far, err := Analyze(p, build(3_000_000), nil, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	if far.CriticalPathS <= near.CriticalPathS {
		t.Errorf("3mm wires (%g) should be slower than 1um (%g)", far.CriticalPathS, near.CriticalPathS)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	p, lib := libs(t)
	nl := pipelineNetlist(t, lib, 1)
	if _, err := Analyze(p, nl, nil, 0); err == nil {
		t.Error("zero period must be rejected")
	}
	empty := netlist.New("empty")
	if _, err := Analyze(p, empty, nil, 1e-9); err == nil {
		t.Error("no endpoints must be an error")
	}
}

func TestMacroLatencyDominates(t *testing.T) {
	p, lib := libs(t)
	nl := netlist.New("mac")
	m := &netlist.MacroRef{
		Kind: "rram", Width: 1000, Height: 1000,
		AccessLatencyS: 10e-9, PinCapF: 8e-15,
	}
	bank := nl.AddMacro("bank", m, tech.TierRRAM)
	ff := nl.AddCell("ff", lib.MustPick(cell.DFF, 1))
	clk := nl.AddNet("clk", 2)
	clk.Clock = true
	cb := nl.AddCell("cb", lib.MustPick(cell.ClkBuf, 4))
	tie := nl.AddCell("tie", lib.MustPick(cell.TieHi, 1))
	tn := nl.AddNet("tn", 0)
	nl.MustPin(tie, "Y", true, 0, tn)
	nl.MustPin(cb, "A", false, cb.Cell.InputCapF, tn)
	nl.MustPin(cb, "Y", true, 0, clk)
	nl.MustPin(ff, "CK", false, ff.Cell.InputCapF, clk)
	rd := nl.AddNet("rdata", 0.3)
	nl.MustPin(bank, "DO", true, 0, rd)
	nl.MustPin(ff, "D", false, ff.Cell.InputCapF, rd)
	rep, err := Analyze(p, nl, nil, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CriticalPathS < 10e-9 {
		t.Errorf("macro read latency (10ns) must appear on the path, got %g", rep.CriticalPathS)
	}
}

// TestCriticalPathTraced requires the reported critical path to read
// launch to capture, pin by pin: it starts at a launch output, ends at
// the worst endpoint, and each consecutive pair is either one
// instance's input followed by its output or one net's driver followed
// by one of its sinks. randomTimedNetlist names every instance
// uniquely, so each point resolves to one pin.
func TestCriticalPathTraced(t *testing.T) {
	p, lib := libs(t)
	for seed := int64(1); seed <= 6; seed++ {
		nl := randomTimedNetlist(t, lib, seed)
		rep, err := Analyze(p, nl, nil, 50e-9)
		if err != nil {
			t.Fatal(err)
		}
		path := rep.CriticalPath
		if len(path) < 3 {
			t.Fatalf("seed %d: critical path trace too short: %d points", seed, len(path))
		}
		pins := map[string]*netlist.Pin{}
		for _, inst := range nl.Instances {
			for _, pin := range inst.Pins() {
				pins[inst.Name+"/"+pin.Name] = pin
			}
		}
		at := make([]*netlist.Pin, len(path))
		for i, pp := range path {
			if at[i] = pins[pp.Inst+"/"+pp.Pin]; at[i] == nil {
				t.Fatalf("seed %d: path point %s/%s is not a pin", seed, pp.Inst, pp.Pin)
			}
		}
		if first := at[0]; !first.IsOutput || path[0].Arrival != first.Inst.Cell.ClkQS {
			t.Errorf("seed %d: path starts at %s/%s, not at a launching flip-flop output",
				seed, path[0].Inst, path[0].Pin)
		}
		if last := path[len(path)-1]; last.Arrival+at[len(at)-1].Inst.Cell.SetupS != rep.CriticalPathS {
			t.Errorf("seed %d: path ends at %s/%s (%g), not at the worst endpoint (%g)",
				seed, last.Inst, last.Pin, last.Arrival, rep.CriticalPathS)
		}
		for i := 1; i < len(at); i++ {
			a, b := at[i-1], at[i]
			cellArc := a.Inst == b.Inst && !a.IsOutput && b.IsOutput
			netArc := a.IsOutput && !b.IsOutput && a.Net == b.Net
			if !cellArc && !netArc {
				t.Fatalf("seed %d: %s/%s -> %s/%s is neither a cell arc nor a net arc",
					seed, path[i-1].Inst, path[i-1].Pin, path[i].Inst, path[i].Pin)
			}
			if path[i].Arrival < path[i-1].Arrival {
				t.Fatalf("seed %d: critical path arrivals not monotone", seed)
			}
		}
	}
}

func TestRoutedWireModel(t *testing.T) {
	p, lib := libs(t)
	b := synth.NewBuilder("dut", lib)
	b.Systolic("cs", synth.SystolicSpec{Rows: 1, Cols: 2, ActBits: 4, WeightBits: 4, AccBits: 12, Activity: 0.2})
	die, err := floorplan.SizeDie(p, b.NL, 0.6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(p, die)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Global(fp, b.NL, tech.TierSiCMOS, 1); err != nil {
		t.Fatal(err)
	}
	routes, err := route.Route(fp, b.NL, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wm := NewWireModel(p, routes)
	rep, err := Analyze(p, b.NL, wm, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CriticalPathS <= 0 {
		t.Fatal("no timing")
	}
	// Routed RC of some real net must be positive.
	found := false
	for n, nr := range routes.Routes {
		if nr.WLdbu > 0 {
			r, c := wm.NetRC(n)
			if r <= 0 || c <= 0 {
				t.Fatalf("routed net has non-positive RC: r=%g c=%g", r, c)
			}
			found = true
			break
		}
	}
	if !found {
		t.Error("no routed net with wirelength found")
	}
}

func TestOptimizeDrivesImprovesTiming(t *testing.T) {
	p, lib := libs(t)
	// A long inverter chain with one weak driver on a huge fanout net.
	b := synth.NewBuilder("opt", lib)
	d := b.Input("in", 0.2)
	q := b.Register("launch", synth.Bus{d}, 0.2)
	// One X1 inverter driving 24 loads.
	inv := b.NL.AddCell("weak", lib.MustPick(cell.Inv, 1))
	b.NL.MustPin(inv, "A", false, inv.Cell.InputCapF, q[0])
	big := b.NL.AddNet("big", 0.2)
	b.NL.MustPin(inv, "Y", true, 0, big)
	for i := 0; i < 24; i++ {
		s := b.NL.AddCell("ld", lib.MustPick(cell.DFF, 1))
		b.NL.MustPin(s, "D", false, s.Cell.InputCapF, big)
		b.NL.MustPin(s, "CK", false, s.Cell.InputCapF, b.Clk)
	}
	if err := b.NL.Check(); err != nil {
		t.Fatal(err)
	}
	before, err := Analyze(p, b.NL, nil, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeDrives(p, b.NL, nil, map[tech.Tier]*cell.Library{tech.TierSiCMOS: lib}, before.CriticalPathS/2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Upsized == 0 {
		t.Fatal("optimizer should upsize the weak driver")
	}
	if res.Final.CriticalPathS >= before.CriticalPathS {
		t.Errorf("optimization did not improve timing: %g -> %g", before.CriticalPathS, res.Final.CriticalPathS)
	}
	if res.AddedAreaNM2 <= 0 {
		t.Error("upsizing must add area")
	}
}

func TestOptimizeNoopWhenMet(t *testing.T) {
	p, lib := libs(t)
	nl := pipelineNetlist(t, lib, 2)
	res, err := OptimizeDrives(p, nl, nil, map[tech.Tier]*cell.Library{tech.TierSiCMOS: lib}, 50e-9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Upsized != 0 {
		t.Errorf("met design should not be touched, upsized=%d", res.Upsized)
	}
	if !res.Final.Met() {
		t.Error("final report should meet")
	}
}
