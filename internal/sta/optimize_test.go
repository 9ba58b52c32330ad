package sta

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"m3d/internal/cell"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

var update = flag.Bool("update", false, "rewrite golden files")

// randomTimedNetlist builds a seeded random placed DAG: launch registers,
// a topologically-ordered soup of combinational gates at random positions
// (real HPWL wire delays), and capture registers. Same seed, same
// netlist.
func randomTimedNetlist(t testing.TB, lib *cell.Library, seed int64) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New(fmt.Sprintf("rnd%d", seed))
	clk := nl.AddNet("clk", 2)
	clk.Clock = true
	tie := nl.AddCell("tie", lib.MustPick(cell.TieHi, 1))
	tn := nl.AddNet("tn", 0)
	nl.MustPin(tie, "Y", true, 0, tn)
	cb := nl.AddCell("cb", lib.MustPick(cell.ClkBuf, 4))
	nl.MustPin(cb, "A", false, cb.Cell.InputCapF, tn)
	nl.MustPin(cb, "Y", true, 0, clk)

	randPos := func() geom.Point {
		return geom.Pt(rng.Int63n(400_000), rng.Int63n(400_000))
	}
	var nets []*netlist.Net
	for i := 0; i < 8; i++ {
		ff := nl.AddCell(fmt.Sprintf("lff%d", i), lib.MustPick(cell.DFF, 1))
		ff.Pos = randPos()
		nl.MustPin(ff, "CK", false, ff.Cell.InputCapF, clk)
		q := nl.AddNet(fmt.Sprintf("q%d", i), 0.2)
		nl.MustPin(ff, "Q", true, 0, q)
		nets = append(nets, q)
	}
	kinds := []cell.Kind{cell.Inv, cell.Buf, cell.Nand2, cell.Nor2, cell.And2}
	for i := 0; i < 70; i++ {
		k := kinds[rng.Intn(len(kinds))]
		c := nl.AddCell(fmt.Sprintf("g%d", i), lib.MustPick(k, 1))
		c.Pos = randPos()
		nIn := 1
		if k != cell.Inv && k != cell.Buf {
			nIn = 2
		}
		for s := 0; s < nIn; s++ {
			// Inputs draw only from earlier nets: acyclic by construction.
			src := nets[rng.Intn(len(nets))]
			nl.MustPin(c, fmt.Sprintf("A%d", s), false, c.Cell.InputCapF, src)
		}
		y := nl.AddNet(fmt.Sprintf("w%d", i), 0.2)
		nl.MustPin(c, "Y", true, 0, y)
		nets = append(nets, y)
	}
	for i := 0; i < 8; i++ {
		ff := nl.AddCell(fmt.Sprintf("cff%d", i), lib.MustPick(cell.DFF, 1))
		ff.Pos = randPos()
		nl.MustPin(ff, "CK", false, ff.Cell.InputCapF, clk)
		nl.MustPin(ff, "D", false, ff.Cell.InputCapF, nets[len(nets)-1-i])
	}
	return nl
}

// optimizeRecord runs OptimizeDrives on nl at the target and renders
// everything the loop decides — the OptimizeResult counters, the final
// report (floats as exact bits, the critical path pin by pin), every
// instance's final cell and the endpoint group summary.
func optimizeRecord(t *testing.T, b *bytes.Buffer, label string, p *tech.PDK, nl *netlist.Netlist,
	wm *WireModel, lm map[tech.Tier]*cell.Library, target float64, maxRounds int) *OptimizeResult {
	t.Helper()
	tm := NewTimer(p, nl, wm)
	res, err := tm.OptimizeDrives(lm, target, maxRounds)
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupEndpoints(p, nl, tm.wm)
	bits := math.Float64bits
	rep := res.Final
	fmt.Fprintf(b, "case %s target=%016x max_rounds=%d\n", label, bits(target), maxRounds)
	fmt.Fprintf(b, "upsized=%d added_area_nm2=%d rounds=%d\n", res.Upsized, res.AddedAreaNM2, res.Rounds)
	fmt.Fprintf(b, "slack=%016x critical=%016x fmax=%016x endpoints=%d\n",
		bits(rep.WorstSlackS), bits(rep.CriticalPathS), bits(rep.FmaxHz), rep.Endpoints)
	for _, pp := range rep.CriticalPath {
		fmt.Fprintf(b, "path %s/%s %016x\n", pp.Inst, pp.Pin, bits(pp.Arrival))
	}
	for _, inst := range nl.Instances {
		if !inst.IsMacro() {
			fmt.Fprintf(b, "cell %s %s\n", inst.Name, inst.Cell.Name)
		}
	}
	for _, g := range groups {
		fmt.Fprintf(b, "group %s endpoints=%d worst=%016x at %s\n",
			g.Group, g.Endpoints, bits(g.WorstArrivalS), g.WorstEndpoint)
	}
	return res
}

// TestOptimizeDrivesGolden pins the multi-round post-route sizing loop
// bit-for-bit: seeded random designs at a third of their unsized
// critical path (6 rounds) and the routed systolic fixture at half (4
// rounds). Every flow golden meets timing in one round, so this is the
// only pin on the rounds that re-time an upsized netlist. Run with
// -update to rewrite the golden.
func TestOptimizeDrivesGolden(t *testing.T) {
	p, lib := libs(t)
	lm := map[tech.Tier]*cell.Library{tech.TierSiCMOS: lib}
	var b bytes.Buffer
	mostRounds := 0
	for seed := int64(1); seed <= 6; seed++ {
		nl := randomTimedNetlist(t, lib, seed)
		first, err := Analyze(p, nl, nil, 50e-9)
		if err != nil {
			t.Fatal(err)
		}
		res := optimizeRecord(t, &b, fmt.Sprintf("random seed %d", seed),
			p, nl, nil, lm, first.CriticalPathS/3, 6)
		mostRounds = max(mostRounds, res.Rounds)
	}
	p, nl, wm, lib := routedFixture(t, 2, 2)
	lm = map[tech.Tier]*cell.Library{tech.TierSiCMOS: lib}
	first, err := Analyze(p, nl, wm, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	res := optimizeRecord(t, &b, "routed systolic 2x2", p, nl, wm, lm, first.CriticalPathS/2, 4)
	mostRounds = max(mostRounds, res.Rounds)
	if mostRounds < 2 {
		t.Fatalf("no case ran a second round (most %d): targets too loose to pin re-timing", mostRounds)
	}

	assertGolden(t, "optimize_drives.golden", b.Bytes())
}

// assertGolden compares got with testdata/name, rewriting the file
// first under -update, and reports the first differing line.
func assertGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		at := func(lines []string) string {
			if i < len(lines) {
				return lines[i]
			}
			return "(end of output)"
		}
		t.Fatalf("output differs from %s at line %d:\n got %s\nwant %s",
			golden, i+1, at(gl), at(wl))
	}
}

// TestOptimizeDrivesStatsCounted: the flow's flow.sta.passes.full
// counter reads Stats.FullPasses, so pin its meaning — one Analyze per
// optimize round, each timing the netlist the round before sized.
func TestOptimizeDrivesStatsCounted(t *testing.T) {
	p, lib := libs(t)
	lm := map[tech.Tier]*cell.Library{tech.TierSiCMOS: lib}
	nl := randomTimedNetlist(t, lib, 7)
	first, err := Analyze(p, nl, nil, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	tm := NewTimer(p, nl, nil)
	res, err := tm.OptimizeDrives(lm, first.CriticalPathS/3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 || res.Rounds >= 4 {
		t.Fatalf("want a multi-round run that stops inside its round limit, got %d rounds", res.Rounds)
	}
	if got := tm.Stats().FullPasses; got != res.Rounds {
		t.Errorf("FullPasses = %d, want one per round (%d)", got, res.Rounds)
	}

	// A design that meets timing stops after its first analysis, as every
	// shipped flow spec does.
	tm = NewTimer(p, pipelineNetlist(t, lib, 2), nil)
	if _, err := tm.OptimizeDrives(lm, 50e-9, 4); err != nil {
		t.Fatal(err)
	}
	if got := tm.Stats().FullPasses; got != 1 {
		t.Errorf("met design: FullPasses = %d, want 1", got)
	}
}

// assertSameReports fails if two reports differ anywhere (including the
// critical path's instance/pin names and arrival floats).
func assertSameReports(t *testing.T, label string, full, got *Report) {
	t.Helper()
	if got.WorstSlackS != full.WorstSlackS || got.CriticalPathS != full.CriticalPathS {
		t.Errorf("%s: slack/critical %g/%g, oracle %g/%g",
			label, got.WorstSlackS, got.CriticalPathS, full.WorstSlackS, full.CriticalPathS)
	}
	if !reflect.DeepEqual(got, full) {
		t.Errorf("%s: report differs from a fresh Timer's analysis: %+v vs %+v", label, got, full)
	}
}

// assertSameArrivals compares the complete propagated state of two
// timers: seen must match everywhere, arrivals and predecessor links at
// every seen pin. (Unseen pins carry stale scratch and are excluded.)
func assertSameArrivals(t *testing.T, label string, oracle, tm *Timer) {
	t.Helper()
	for i := range tm.seen {
		if tm.seen[i] != oracle.seen[i] {
			t.Fatalf("%s: pin %d seen=%v, oracle %v", label, i, tm.seen[i], oracle.seen[i])
		}
		if !tm.seen[i] {
			continue
		}
		if tm.arr[i] != oracle.arr[i] {
			t.Fatalf("%s: pin %d arrival %g, oracle %g", label, i, tm.arr[i], oracle.arr[i])
		}
		if tm.from[i] != oracle.from[i] {
			t.Fatalf("%s: pin %d from=%d, oracle %d", label, i, tm.from[i], oracle.from[i])
		}
	}
}

// checkRetimePerRound drives the OptimizeDrives loop by hand on one
// reused Timer and pins the analysis after every upsizing round against
// a fresh Timer's full Analyze of the same netlist state: the reused
// scratch must not carry anything over from the round before. Returns
// how many rounds re-timed an upsized netlist, so callers can require
// the test reached them.
func checkRetimePerRound(t *testing.T, label string, p *tech.PDK, nl *netlist.Netlist,
	wm *WireModel, libsMap map[tech.Tier]*cell.Library, target float64, maxRounds int) int {
	t.Helper()
	tm := NewTimer(p, nl, wm)
	rep, err := tm.Analyze(target)
	if err != nil {
		t.Fatal(err)
	}
	retimed := 0
	for round := 0; round < maxRounds; round++ {
		if rep.Met() {
			break
		}
		upsized, _ := tm.upsizeRound(libsMap, target)
		if upsized == 0 {
			break
		}
		rep, err = tm.Analyze(target)
		if err != nil {
			t.Fatal(err)
		}
		retimed++
		oracle := NewTimer(p, nl, wm)
		full, err := oracle.Analyze(target)
		if err != nil {
			t.Fatal(err)
		}
		rl := fmt.Sprintf("%s round %d (%d upsized)", label, round, upsized)
		assertSameReports(t, rl, full, rep)
		assertSameArrivals(t, rl, oracle, tm)
	}
	return retimed
}

// TestIncrementalMatchesFullRandom: the netlist changes incrementally
// between optimize rounds (drivers upsized in place) while the Timer and
// its scratch are reused. On seeded random designs with tight targets,
// every round's analysis must equal a fresh full pass.
func TestIncrementalMatchesFullRandom(t *testing.T) {
	p, lib := libs(t)
	lm := map[tech.Tier]*cell.Library{tech.TierSiCMOS: lib}
	retimed := 0
	for seed := int64(1); seed <= 6; seed++ {
		nl := randomTimedNetlist(t, lib, seed)
		first, err := Analyze(p, nl, nil, 50e-9)
		if err != nil {
			t.Fatal(err)
		}
		retimed += checkRetimePerRound(t, fmt.Sprintf("seed %d", seed),
			p, nl, nil, lm, first.CriticalPathS/3, 6)
	}
	if retimed == 0 {
		t.Fatal("no round re-timed an upsized netlist: targets too loose")
	}
}

// TestIncrementalMatchesFullRoutedSystolic runs the per-round
// comparison on a placed-and-routed systolic array (routed-RC wire
// model — the flow's real configuration).
func TestIncrementalMatchesFullRoutedSystolic(t *testing.T) {
	p, nl, wm, lib := routedFixture(t, 2, 2)
	lm := map[tech.Tier]*cell.Library{tech.TierSiCMOS: lib}
	first, err := Analyze(p, nl, wm, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	if checkRetimePerRound(t, "systolic", p, nl, wm, lm, first.CriticalPathS/2, 4) == 0 {
		t.Fatal("no round re-timed an upsized netlist on the systolic fixture")
	}
}

// optimizeFreshTimers is the OptimizeDrives loop with a brand-new Timer
// for every analysis: the full-analysis oracle for the reused Timer.
func optimizeFreshTimers(t *testing.T, p *tech.PDK, nl *netlist.Netlist, wm *WireModel,
	lm map[tech.Tier]*cell.Library, target float64, maxRounds int) *OptimizeResult {
	t.Helper()
	res := &OptimizeResult{}
	rep, err := Analyze(p, nl, wm, target)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < maxRounds; round++ {
		res.Final = rep
		res.Rounds = round + 1
		if rep.Met() {
			return res
		}
		upsized, added := NewTimer(p, nl, wm).upsizeRound(lm, target)
		res.Upsized += upsized
		res.AddedAreaNM2 += added
		if upsized == 0 {
			return res
		}
		if rep, err = Analyze(p, nl, wm, target); err != nil {
			t.Fatal(err)
		}
	}
	res.Final = rep
	return res
}

// TestOptimizeDrivesForceFullOracle runs OptimizeDrives and the
// fresh-Timer-per-round oracle on twin netlists and requires identical
// results: the OptimizeResult, every final cell choice, and the endpoint
// group summaries.
func TestOptimizeDrivesForceFullOracle(t *testing.T) {
	p, lib := libs(t)
	lm := map[tech.Tier]*cell.Library{tech.TierSiCMOS: lib}
	mostRounds := 0
	for seed := int64(1); seed <= 4; seed++ {
		nlOpt := randomTimedNetlist(t, lib, seed)
		nlFull := randomTimedNetlist(t, lib, seed)
		first, err := Analyze(p, nlOpt, nil, 50e-9)
		if err != nil {
			t.Fatal(err)
		}
		target := first.CriticalPathS / 3

		tm := NewTimer(p, nlOpt, nil)
		resOpt, err := tm.OptimizeDrives(lm, target, 4)
		if err != nil {
			t.Fatal(err)
		}
		resFull := optimizeFreshTimers(t, p, nlFull, nil, lm, target, 4)
		mostRounds = max(mostRounds, resOpt.Rounds)

		if !reflect.DeepEqual(resOpt, resFull) {
			t.Errorf("seed %d: OptimizeResult differs: %+v vs oracle %+v", seed, resOpt, resFull)
		}
		for i, inst := range nlOpt.Instances {
			if inst.Cell.Drive != nlFull.Instances[i].Cell.Drive {
				t.Errorf("seed %d: %s sized X%d, oracle X%d",
					seed, inst.Name, inst.Cell.Drive, nlFull.Instances[i].Cell.Drive)
			}
		}
		gOpt := GroupEndpoints(p, nlOpt, tm.wm)
		gFull := GroupEndpoints(p, nlFull, NewWireModel(p, nil))
		if !reflect.DeepEqual(gOpt, gFull) {
			t.Errorf("seed %d: endpoint groups differ: %+v vs %+v", seed, gOpt, gFull)
		}
	}
	if mostRounds < 2 {
		t.Fatalf("no seed ran a second round (most %d): targets too loose", mostRounds)
	}
}
