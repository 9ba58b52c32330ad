package sta

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"m3d/internal/cell"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// cornerScales draws k deterministic per-tier delay-scale corners across
// the full legal range (minScale-ish up to ~2×). Corner 0 is pinned to
// all-ones so every run also checks the nominal-identity claim.
func cornerScales(seed int64, k int) [][tech.NumTiers]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][tech.NumTiers]float64, k)
	for i := range out {
		for t := range out[i] {
			out[i][t] = 0.05 + rng.Float64()*1.95
		}
	}
	if k > 0 {
		for t := range out[0] {
			out[0][t] = 1.0
		}
	}
	return out
}

// assertBatchMatchesOracle prices scales through one AnalyzeBatch call
// and through the serial per-corner SetTierDelayScale path, requiring
// bit-for-bit equal critical paths.
func assertBatchMatchesOracle(t *testing.T, label string, bt *BatchTimer, oracle *Timer, scales [][tech.NumTiers]float64) {
	t.Helper()
	got := make([]float64, len(scales))
	if err := bt.AnalyzeBatch(scales, got); err != nil {
		t.Fatalf("%s: AnalyzeBatch: %v", label, err)
	}
	for k, sc := range scales {
		oracle.SetTierDelayScale(sc[:])
		rep, err := oracle.Analyze(1.0)
		if err != nil {
			t.Fatalf("%s: oracle corner %d: %v", label, k, err)
		}
		if math.Float64bits(got[k]) != math.Float64bits(rep.CriticalPathS) {
			t.Fatalf("%s: corner %d diverged: batch %.17g vs oracle %.17g",
				label, k, got[k], rep.CriticalPathS)
		}
	}
}

// mixedTierNetlist is randomTimedNetlist spread over every tier lane:
// each flip-flop and gate draws its cell from the Si CMOS or the CNFET
// library, a tie cell feeds a gate input, and one RRAM-tier hard macro
// launches at its access latency into the logic and captures three of
// its nets as endpoints.
func mixedTierNetlist(t testing.TB, p *tech.PDK, seed int64) *netlist.Netlist {
	t.Helper()
	var libs [2]*cell.Library
	for i, tier := range []tech.Tier{tech.TierSiCMOS, tech.TierCNFET} {
		lib, err := cell.NewLibrary(p, tier)
		if err != nil {
			t.Fatal(err)
		}
		libs[i] = lib
	}
	rng := rand.New(rand.NewSource(seed))
	lib := func() *cell.Library { return libs[rng.Intn(2)] }
	randPos := func() geom.Point {
		return geom.Pt(rng.Int63n(400_000), rng.Int63n(400_000))
	}
	nl := netlist.New(fmt.Sprintf("mixed%d", seed))
	clk := nl.AddNet("clk", 2)
	clk.Clock = true

	var nets []*netlist.Net
	for i := 0; i < 8; i++ {
		ff := nl.AddCell(fmt.Sprintf("lff%d", i), lib().MustPick(cell.DFF, 1))
		ff.Pos = randPos()
		nl.MustPin(ff, "CK", false, ff.Cell.InputCapF, clk)
		q := nl.AddNet(fmt.Sprintf("q%d", i), 0.2)
		nl.MustPin(ff, "Q", true, 0, q)
		nets = append(nets, q)
	}
	m := &netlist.MacroRef{Kind: "rram", Width: 1000, Height: 1000, AccessLatencyS: 1.5e-9, PinCapF: 8e-15}
	mac := nl.AddMacro("rram0", m, tech.TierRRAM)
	mac.Pos = randPos()
	nl.MustPin(mac, "CK", false, m.PinCapF, clk)
	for i := 0; i < 4; i++ {
		do := nl.AddNet(fmt.Sprintf("do%d", i), 0.2)
		nl.MustPin(mac, fmt.Sprintf("DO%d", i), true, 0, do)
		nets = append(nets, do)
	}
	tie := nl.AddCell("tie", libs[0].MustPick(cell.TieLo, 1))
	tn := nl.AddNet("tn", 0)
	nl.MustPin(tie, "Y", true, 0, tn)

	kinds := []cell.Kind{cell.Inv, cell.Buf, cell.Nand2, cell.Nor2, cell.And2}
	for i := 0; i < 70; i++ {
		k := kinds[rng.Intn(len(kinds))]
		c := nl.AddCell(fmt.Sprintf("g%d", i), lib().MustPick(k, 1))
		c.Pos = randPos()
		nIn := 1
		if k != cell.Inv && k != cell.Buf {
			nIn = 2
		}
		for s := 0; s < nIn; s++ {
			src := nets[rng.Intn(len(nets))]
			if i == 0 && s == 0 {
				src = tn
			}
			nl.MustPin(c, fmt.Sprintf("A%d", s), false, c.Cell.InputCapF, src)
		}
		y := nl.AddNet(fmt.Sprintf("w%d", i), 0.2)
		nl.MustPin(c, "Y", true, 0, y)
		nets = append(nets, y)
	}
	for i := 0; i < 8; i++ {
		ff := nl.AddCell(fmt.Sprintf("cff%d", i), lib().MustPick(cell.DFF, 1))
		ff.Pos = randPos()
		nl.MustPin(ff, "CK", false, ff.Cell.InputCapF, clk)
		nl.MustPin(ff, "D", false, ff.Cell.InputCapF, nets[len(nets)-1-i])
	}
	for i := 0; i < 3; i++ {
		nl.MustPin(mac, fmt.Sprintf("DI%d", i), false, m.PinCapF, nets[len(nets)-9-i])
	}
	return nl
}

// compileBatch compiles nl's batch graph and builds one timer over it.
func compileBatch(t testing.TB, p *tech.PDK, nl *netlist.Netlist, wm *WireModel, maxCorners int) *BatchTimer {
	t.Helper()
	g, err := CompileBatch(p, nl, wm)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := NewBatchTimer(g, maxCorners)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// TestBatchMatchesPerCornerRandom pins AnalyzeBatch against the serial
// per-corner oracle on randomized acyclic designs at batch sizes 1, 7
// and 64 — including a batch smaller than the timer's capacity. The
// Si-only designs are joined by mixed-tier ones (mixedTierNetlist), so
// every tier's scale lane and a macro launch reach the critical path;
// each corner's three tier scales differ.
func TestBatchMatchesPerCornerRandom(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, nl := range []*netlist.Netlist{randomTimedNetlist(t, lib, seed), mixedTierNetlist(t, p, seed)} {
			bt := compileBatch(t, p, nl, nil, 64)
			oracle := NewTimer(p, nl, nil)
			for _, k := range []int{1, 7, 64} {
				scales := cornerScales(seed*100+int64(k), k)
				for i, sc := range scales[1:] {
					if sc[0] == sc[1] || sc[1] == sc[2] || sc[0] == sc[2] {
						t.Fatalf("corner %d repeats a tier scale: %v", i+1, sc)
					}
				}
				assertBatchMatchesOracle(t, nl.Name, bt, oracle, scales)
			}
		}
	}
}

// TestBatchMatchesPerCornerRouted runs the same oracle comparison over
// the routed systolic fixture — cached wire RC, macros, ILV parasitics —
// reusing one BatchTimer across batch sizes like the yield engine does.
func TestBatchMatchesPerCornerRouted(t *testing.T) {
	p, nl, wm, _ := routedFixture(t, 2, 2)
	bt := compileBatch(t, p, nl, wm, 64)
	oracle := NewTimer(p, nl, wm)
	for _, k := range []int{1, 7, 64} {
		scales := cornerScales(int64(k), k)
		assertBatchMatchesOracle(t, "routed", bt, oracle, scales)
	}
}

// TestBatchConcurrentWidths prices 128 corners in 16-corner slabs fanned
// over 1, 2 and 8 goroutines that share one compiled BatchGraph, each
// with its own BatchTimer (the vary.Engine sharing pattern), and requires
// every width to agree bit-for-bit with the serial per-corner oracle. Run
// under -race this is the proof that the graph is read-only once
// compiled.
func TestBatchConcurrentWidths(t *testing.T) {
	p, nl, wm, _ := routedFixture(t, 2, 2)
	const total, slab = 128, 16
	scales := cornerScales(7, total)

	want := make([]float64, total)
	oracle := NewTimer(p, nl, wm)
	for k, sc := range scales {
		oracle.SetTierDelayScale(sc[:])
		rep, err := oracle.Analyze(1.0)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = rep.CriticalPathS
	}
	g, err := CompileBatch(p, nl, wm)
	if err != nil {
		t.Fatal(err)
	}

	for _, width := range []int{1, 2, 8} {
		got := make([]float64, total)
		var next atomic.Int64
		var wg sync.WaitGroup
		errc := make(chan error, width)
		for w := 0; w < width; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bt, err := NewBatchTimer(g, slab)
				if err != nil {
					errc <- err
					return
				}
				for {
					lo := int(next.Add(slab)) - slab
					if lo >= total {
						return
					}
					if err := bt.AnalyzeBatch(scales[lo:lo+slab], got[lo:lo+slab]); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("width %d corner %d: %.17g vs oracle %.17g", width, k, got[k], want[k])
			}
		}
	}
}

// TestBatchValidation covers the argument contract: bad capacity, a
// design without endpoints (refused at compile time), zero corners,
// capacity overflow and mismatched output length.
func TestBatchValidation(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	nl := randomTimedNetlist(t, lib, 1)
	g, err := CompileBatch(p, nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchTimer(g, 0); err == nil {
		t.Fatal("want error for zero capacity")
	}
	open := netlist.New("open")
	inv := open.AddCell("inv", lib.MustPick(cell.Inv, 1))
	open.MustPin(inv, "Y", true, 0, open.AddNet("y", 0.2))
	if _, err := NewTimer(p, open, nil).Analyze(1.0); err == nil {
		t.Fatal("oracle: want error for a design without endpoints")
	}
	if _, err := CompileBatch(p, open, nil); err == nil {
		t.Fatal("want error for a design without endpoints")
	}
	bt, err := NewBatchTimer(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.AnalyzeBatch(nil, nil); err == nil {
		t.Fatal("want error for empty batch")
	}
	five := cornerScales(1, 5)
	if err := bt.AnalyzeBatch(five, make([]float64, 5)); err == nil {
		t.Fatal("want error for batch beyond capacity")
	}
	if err := bt.AnalyzeBatch(five[:4], make([]float64, 3)); err == nil {
		t.Fatal("want error for critOut length mismatch")
	}
}

// BenchmarkBatchCornerSTA is the cost of pricing a 32-corner batch over
// the routed fixture's compiled graph — the inner kernel the Monte-Carlo
// yield engine runs per slab; scripts/benchdiff.sh tracks it against the
// base commit. The graph is
// compiled once outside the timed region, as the engine does. The serial
// equivalent is 32 full Analyze passes (≈32× BenchmarkSTAFullTiming's
// setup half).
func BenchmarkBatchCornerSTA(b *testing.B) {
	p, nl, wm, _ := routedFixture(b, 2, 2)
	bt := compileBatch(b, p, nl, wm, 32)
	scales := cornerScales(1, 32)
	out := make([]float64, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bt.AnalyzeBatch(scales, out); err != nil {
			b.Fatal(err)
		}
	}
}
