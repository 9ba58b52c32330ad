package sta

import (
	"reflect"
	"testing"

	"m3d/internal/cell"
	"m3d/internal/floorplan"
	"m3d/internal/netlist"
	"m3d/internal/place"
	"m3d/internal/route"
	"m3d/internal/synth"
	"m3d/internal/tech"
)

// routedFixture builds a placed-and-routed systolic block with a routed
// wire model — the same analysis surface the flow's sign-off stage uses.
func routedFixture(tb testing.TB, rows, cols int) (*tech.PDK, *netlist.Netlist, *WireModel, *cell.Library) {
	tb.Helper()
	p, nl, routes, lib := routedFixtureRoutes(tb, rows, cols)
	return p, nl, NewWireModel(p, routes), lib
}

// routedFixtureRoutes is routedFixture exposing the raw routing result,
// for tests that need one WireModel per goroutine (a WireModel's RC
// cache makes it single-goroutine).
func routedFixtureRoutes(tb testing.TB, rows, cols int) (*tech.PDK, *netlist.Netlist, *route.Result, *cell.Library) {
	tb.Helper()
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		tb.Fatal(err)
	}
	b := synth.NewBuilder("dut", lib)
	b.Systolic("cs", synth.SystolicSpec{Rows: rows, Cols: cols, ActBits: 4, WeightBits: 4, AccBits: 12, Activity: 0.2})
	die, err := floorplan.SizeDie(p, b.NL, 0.6, 1.0)
	if err != nil {
		tb.Fatal(err)
	}
	fp, err := floorplan.New(p, die)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := place.Global(fp, b.NL, tech.TierSiCMOS, 1); err != nil {
		tb.Fatal(err)
	}
	routes, err := route.Route(fp, b.NL, route.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return p, b.NL, routes, lib
}

// TestTimingDeterministicAcrossRepeats is the map-iteration-order audit's
// regression pin: every report — worst endpoints named by string, the
// traced critical path, per-group summaries — must be a pure function of
// the netlist, identical across repeated passes on both fresh and reused
// Timers. The slice-indexed propagation iterates nl.Instances / Pins in
// dense-ID order, so nothing here may depend on Go map iteration.
func TestTimingDeterministicAcrossRepeats(t *testing.T) {
	p, nl, wm, _ := routedFixture(t, 2, 2)
	const target = 10e-9

	ref, err := Analyze(p, nl, wm, target)
	if err != nil {
		t.Fatal(err)
	}
	refHold, err := AnalyzeHold(p, nl, wm)
	if err != nil {
		t.Fatal(err)
	}
	refGroups := GroupEndpoints(p, nl, wm)

	tm := NewTimer(p, nl, wm) // reused across passes, like OptimizeDrives
	for pass := 0; pass < 5; pass++ {
		rep, err := Analyze(p, nl, wm, target)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, ref) {
			t.Fatalf("pass %d: fresh Analyze diverged:\n got %+v\nwant %+v", pass, rep, ref)
		}
		rep2, err := tm.Analyze(target)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep2, ref) {
			t.Fatalf("pass %d: reused-Timer Analyze diverged:\n got %+v\nwant %+v", pass, rep2, ref)
		}
		hold, err := tm.AnalyzeHold()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hold, refHold) {
			t.Fatalf("pass %d: hold report diverged:\n got %+v\nwant %+v", pass, hold, refHold)
		}
		groups := GroupEndpoints(p, nl, wm)
		if !reflect.DeepEqual(groups, refGroups) {
			t.Fatalf("pass %d: group summaries diverged:\n got %+v\nwant %+v", pass, groups, refGroups)
		}
	}
}

// BenchmarkSTAFullTiming measures one full sign-off timing pass — max
// (setup) analysis plus min (hold) analysis over a routed wire model —
// with one Timer per iteration, the flow's usage pattern.
func BenchmarkSTAFullTiming(b *testing.B) {
	p, nl, wm, _ := routedFixture(b, 2, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := NewTimer(p, nl, wm)
		if _, err := tm.Analyze(10e-9); err != nil {
			b.Fatal(err)
		}
		if _, err := tm.AnalyzeHold(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeDrives measures the full OptimizeDrives loop — one
// full analysis per upsizing round — under a target tight enough to
// force a second round. Cell choices are restored between iterations so
// each run re-does the same sizing work. Tracked by scripts/benchdiff.sh.
func BenchmarkOptimizeDrives(b *testing.B) {
	p, nl, wm, lib := routedFixture(b, 2, 2)
	lm := map[tech.Tier]*cell.Library{tech.TierSiCMOS: lib}
	first, err := Analyze(p, nl, wm, 10e-9)
	if err != nil {
		b.Fatal(err)
	}
	target := first.CriticalPathS / 2
	orig := make([]*cell.Cell, len(nl.Instances))
	for i, inst := range nl.Instances {
		orig[i] = inst.Cell
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, inst := range nl.Instances {
			inst.Cell = orig[j]
		}
		b.StartTimer()
		tm := NewTimer(p, nl, wm)
		if _, err := tm.OptimizeDrives(lm, target, 4); err != nil {
			b.Fatal(err)
		}
	}
}
