package cts

import (
	"math/rand"
	"testing"

	"m3d/internal/cell"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/synth"
	"m3d/internal/tech"
)

// clockedDesign builds a netlist with n flip-flops scattered over a region.
func clockedDesign(t *testing.T, n int, span int64) (*tech.PDK, *cell.Library, *netlist.Netlist) {
	t.Helper()
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	b := synth.NewBuilder("dut", lib)
	in := b.Input("d", 0.2)
	bus := make(synth.Bus, 0, n)
	for i := 0; i < n; i++ {
		bus = append(bus, in)
	}
	q := b.Register("r", bus, 0.2)
	b.SinkBus("o", q)
	if err := b.NL.Check(); err != nil {
		t.Fatal(err)
	}
	// Scatter instances.
	rng := rand.New(rand.NewSource(7))
	for _, inst := range b.NL.Instances {
		inst.Pos = geom.Pt(rng.Int63n(span), rng.Int63n(span))
	}
	return p, lib, b.NL
}

func TestSynthesizeBuildsBalancedTree(t *testing.T) {
	p, lib, nl := clockedDesign(t, 200, 2_000_000)
	before := len(nl.Instances)
	rep, err := Synthesize(p, nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	// 200 register FFs + 200 capture FFs (b.SinkBus + Register each make a
	// FF with a CK pin)? Count from the report instead:
	if rep.Sinks < 200 {
		t.Fatalf("sinks = %d, want >= 200", rep.Sinks)
	}
	if rep.Buffers == 0 || len(nl.Instances) != before+rep.Buffers {
		t.Errorf("buffers = %d, instances %d -> %d", rep.Buffers, before, len(nl.Instances))
	}
	if rep.Levels < 3 {
		t.Errorf("levels = %d, want a multi-level tree for %d sinks at fanout %d", rep.Levels, rep.Sinks, maxLeafFanout)
	}
	if err := nl.Check(); err != nil {
		t.Fatalf("netlist broken after CTS: %v", err)
	}
	// Every clock net obeys the fanout cap for leaf groups (buffer nets
	// have exactly 2 children by construction).
	for _, n := range nl.Nets {
		if !n.Clock {
			continue
		}
		ffSinks := 0
		for _, s := range n.Sinks {
			if s.Inst.Cell != nil && s.Inst.Cell.Sequential {
				ffSinks++
			}
		}
		if ffSinks > maxLeafFanout {
			t.Fatalf("net %s drives %d FFs, cap is %d", n.Name, ffSinks, maxLeafFanout)
		}
	}
}

func TestSkewBounded(t *testing.T) {
	p, lib, nl := clockedDesign(t, 128, 1_000_000)
	rep, err := Synthesize(p, nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxSkewS < 0 {
		t.Fatal("negative skew")
	}
	// A balanced tree over 1 mm at 130 nm should stay well under 2 ns.
	if rep.MaxSkewS > 2e-9 {
		t.Errorf("skew = %g s, want < 2 ns", rep.MaxSkewS)
	}
	if rep.WirelengthDBU <= 0 {
		t.Error("tree has no wire")
	}
}

func TestSmallDesignNoBuffers(t *testing.T) {
	p, lib, nl := clockedDesign(t, 4, 100_000)
	rep, err := Synthesize(p, nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Buffers != 0 {
		t.Errorf("a %d-sink clock under the fanout cap needs no buffers, got %d", rep.Sinks, rep.Buffers)
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	// No clock net.
	nl := netlist.New("x")
	if _, err := Synthesize(p, nl, lib); err == nil {
		t.Error("missing clock should fail")
	}
	// Clock without sinks.
	nl2 := netlist.New("y")
	drv := nl2.AddCell("cb", lib.MustPick(cell.ClkBuf, 1))
	clk := nl2.AddNet("clk", 2)
	clk.Clock = true
	nl2.MustPin(drv, "Y", true, 0, clk)
	if _, err := Synthesize(p, nl2, lib); err == nil {
		t.Error("sinkless clock should fail")
	}
	// Invalid PDK.
	bad := tech.Default130()
	bad.VDD = 0
	_, _, nl3 := clockedDesign(t, 8, 1000)
	if _, err := Synthesize(bad, nl3, lib); err == nil {
		t.Error("invalid PDK should fail")
	}
}

func TestBufferAreaAccounted(t *testing.T) {
	p, lib, nl := clockedDesign(t, 300, 3_000_000)
	rep, err := Synthesize(p, nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(rep.Buffers) * lib.MustPick(cell.ClkBuf, bufferDrive).AreaNM2
	if rep.BufferAreaNM2 != want {
		t.Errorf("buffer area = %d, want %d", rep.BufferAreaNM2, want)
	}
}

// TestDeeperTreeWithMoreSinks: at the fixed leaf fanout, a clock with
// more sinks needs a deeper tree and more buffers.
func TestDeeperTreeWithMoreSinks(t *testing.T) {
	mk := func(flops int) *Report {
		p, lib, nl := clockedDesign(t, flops, 2_000_000)
		rep, err := Synthesize(p, nl, lib)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	few := mk(32)
	many := mk(512)
	if many.Levels <= few.Levels {
		t.Errorf("%d sinks (%d levels) should be deeper than %d sinks (%d levels)",
			many.Sinks, many.Levels, few.Sinks, few.Levels)
	}
	if many.Buffers <= few.Buffers {
		t.Errorf("%d sinks need more buffers than %d: %d vs %d", many.Sinks, few.Sinks, many.Buffers, few.Buffers)
	}
}
