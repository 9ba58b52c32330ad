package dse

import (
	"reflect"
	"testing"

	"m3d/internal/arch"
	"m3d/internal/core"
	"m3d/internal/exec"
	"m3d/internal/obs"
	"m3d/internal/tech"
)

func pt(delta float64, y int, bw float64, s, edp, th, fp float64) Point {
	return Point{Delta: delta, TierPairs: y, BWScale: bw,
		Speedup: s, EDPBenefit: edp, ThermalHeadroomK: th, FootprintMM2: fp}
}

func TestDominance(t *testing.T) {
	a := pt(1, 1, 1, 2, 4, 30, 100)
	b := pt(1, 2, 1, 1, 3, 20, 120)
	c := pt(1, 3, 1, 2, 4, 30, 100) // equal objectives to a
	if !a.Dominates(b) || b.Dominates(a) {
		t.Fatal("a must strictly dominate b")
	}
	if a.Dominates(c) || !a.WeaklyDominates(c) || !c.WeaklyDominates(a) {
		t.Fatal("equal objective vectors weakly dominate both ways, strictly neither")
	}
	d := pt(1, 4, 1, 3, 2, 30, 100) // trades EDP for speedup vs a
	if a.Dominates(d) || d.Dominates(a) {
		t.Fatal("trade-off points must be mutually non-dominated")
	}
}

func TestArchivePruning(t *testing.T) {
	ar := &Archive{}
	if !ar.Add(pt(1, 1, 1, 1, 1, 10, 100)) {
		t.Fatal("first point must enter")
	}
	// Dominated candidate rejected, archive unchanged.
	if ar.Add(pt(1, 2, 1, 0.5, 0.5, 5, 200)) || ar.Len() != 1 {
		t.Fatal("dominated candidate must be rejected")
	}
	// Equal-objective candidate rejected: first committed wins.
	if ar.Add(pt(2, 1, 1, 1, 1, 10, 100)) || ar.Len() != 1 {
		t.Fatal("duplicate objective vector must be rejected")
	}
	// Dominating candidate evicts the member.
	if !ar.Add(pt(1, 3, 1, 2, 2, 20, 50)) || ar.Len() != 1 {
		t.Fatal("dominating candidate must replace the dominated member")
	}
	// Incomparable candidate coexists.
	if !ar.Add(pt(1, 4, 1, 3, 1, 20, 50)) || ar.Len() != 2 {
		t.Fatal("incomparable candidate must coexist")
	}
	f := ar.Frontier()
	for i := range f {
		for j := range f {
			if i != j && f[i].WeaklyDominates(f[j]) {
				t.Fatalf("frontier not mutually non-dominated: %+v vs %+v", f[i], f[j])
			}
		}
	}
}

func TestArchiveFrontierCanonicalOrder(t *testing.T) {
	ar := &Archive{}
	ar.Add(pt(2, 1, 1, 1, 1, 10, 100))
	ar.Add(pt(1, 2, 1, 2, 0.5, 10, 100))
	ar.Add(pt(1, 1, 1, 0.5, 2, 10, 100))
	f := ar.Frontier()
	for i := 1; i < len(f); i++ {
		if !pointLess(f[i-1], f[i]) {
			t.Fatalf("frontier out of canonical order at %d: %+v !< %+v", i, f[i-1], f[i])
		}
	}
}

func TestTopK(t *testing.T) {
	f := []Point{
		pt(1, 1, 1, 1, 5, 10, 100),
		pt(2, 1, 1, 1, 9, 10, 100),
		pt(3, 1, 1, 1, 7, 10, 100),
	}
	top := TopK(f, 2)
	if len(top) != 2 || top[0].EDPBenefit != 9 || top[1].EDPBenefit != 7 {
		t.Fatalf("TopK(2) = %+v, want EDP 9 then 7", top)
	}
	if got := TopK(f, 10); len(got) != 3 {
		t.Fatalf("TopK beyond len = %d points, want 3", len(got))
	}
	if TopK(f, 0) != nil {
		t.Fatal("TopK(0) must be nil")
	}
}

func TestSpaceValidate(t *testing.T) {
	for name, s := range map[string]Space{
		"delta<1":    {Deltas: Axis{Min: 0.5, Max: 2, Steps: 4}, TierPairs: IntAxis{Min: 1, Max: 2}, BWScales: Axis{Min: 1, Max: 2, Steps: 2}},
		"bw<=0":      {Deltas: Axis{Min: 1, Max: 2, Steps: 4}, TierPairs: IntAxis{Min: 1, Max: 2}, BWScales: Axis{Min: 0, Max: 2, Steps: 2}},
		"y<1":        {Deltas: Axis{Min: 1, Max: 2, Steps: 4}, TierPairs: IntAxis{Min: 0, Max: 2}, BWScales: Axis{Min: 1, Max: 2, Steps: 2}},
		"inverted":   {Deltas: Axis{Min: 2, Max: 1, Steps: 4}, TierPairs: IntAxis{Min: 1, Max: 2}, BWScales: Axis{Min: 1, Max: 2, Steps: 2}},
		"grid blown": {Deltas: Axis{Min: 1, Max: 2, Steps: 512}, TierPairs: IntAxis{Min: 1, Max: 64}, BWScales: Axis{Min: 1, Max: 2, Steps: 512}},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
	if err := DefaultSpace().Validate(); err != nil {
		t.Fatalf("default space invalid: %v", err)
	}
}

// testSpace is the pinned space the determinism and coverage tests run
// on: big enough for refinement to matter, small enough to brute-force.
func testSpace() Space {
	return Space{
		Deltas:        Axis{Min: 1, Max: 2.5, Steps: 16},
		TierPairs:     IntAxis{Min: 1, Max: 6},
		BWScales:      Axis{Min: 1, Max: 8, Steps: 8},
		PerTierPowerW: 2,
	}
}

// TestExploreDeterministicAcrossWidths: same space, same seed — the full
// update stream and the final result must be deep-equal at widths 1/2/8.
func TestExploreDeterministicAcrossWidths(t *testing.T) {
	pdk := tech.Default130()
	space := testSpace()
	opt := Options{Seed: 42}
	type run struct {
		updates []Update
		res     *Result
	}
	var runs []run
	for _, w := range []int{1, 2, 8} {
		var ups []Update
		res, err := Explore(pdk, space, opt, func(u Update) { ups = append(ups, u) },
			exec.WithWorkers(w))
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		runs = append(runs, run{ups, res})
	}
	for i := 1; i < len(runs); i++ {
		if !reflect.DeepEqual(runs[0].updates, runs[i].updates) {
			t.Fatalf("update streams differ between widths 1 and %d", []int{1, 2, 8}[i])
		}
		if !reflect.DeepEqual(runs[0].res, runs[i].res) {
			t.Fatalf("results differ between widths 1 and %d", []int{1, 2, 8}[i])
		}
	}
	last := runs[0].updates[len(runs[0].updates)-1]
	if !last.Done {
		t.Fatal("final update must carry Done")
	}
	if !reflect.DeepEqual(last.Frontier, runs[0].res.Frontier) {
		t.Fatal("final update frontier must equal the result frontier")
	}
}

// coverageSpace is the pinned space of the headline acceptance check: a
// finer lattice (3072 cells) where adaptive refinement has real room to
// beat brute force.
func coverageSpace() Space {
	return Space{
		Deltas:        Axis{Min: 1, Max: 2.5, Steps: 32},
		TierPairs:     IntAxis{Min: 1, Max: 6},
		BWScales:      Axis{Min: 1, Max: 8, Steps: 16},
		PerTierPowerW: 2,
	}
}

// TestExploreCoversBruteForce is the headline acceptance check: on the
// pinned space the adaptive frontier weakly dominates every brute-force
// frontier point while issuing ≤ 25% of the grid's model evaluations
// (counted at the model, via a fresh registry).
func TestExploreCoversBruteForce(t *testing.T) {
	pdk := tech.Default130()
	space := coverageSpace()
	reg := &obs.Registry{}
	res, err := Explore(pdk, space, Options{Seed: 42}, nil,
		exec.WithWorkers(4), exec.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	brute, err := BruteForce(pdk, space, exec.WithWorkers(4), exec.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if int(reg.Counter("dse.brute.evals").Value()) != space.GridSize() {
		t.Fatalf("brute force evaluated %d cells, want the full grid %d",
			reg.Counter("dse.brute.evals").Value(), space.GridSize())
	}
	ar := &Archive{}
	for _, p := range res.Frontier {
		ar.Add(p)
	}
	if q, ok := ar.Uncovered(brute.Frontier); !ok {
		t.Fatalf("adaptive frontier misses brute-force point %+v", q)
	}
	evals := int(reg.Counter("dse.evals").Value())
	if evals == 0 {
		t.Fatal("dse.evals not recorded")
	}
	limit := space.GridSize() / 4
	if evals > limit {
		t.Fatalf("adaptive search issued %d model evaluations, budget is %d (25%% of %d)",
			evals, limit, space.GridSize())
	}
	t.Logf("adaptive: %d evals, %d rounds, frontier %d; brute: %d evals, frontier %d",
		evals, res.Rounds, len(res.Frontier), brute.Evaluations, len(brute.Frontier))
}

// TestExploreBudgetExhaustion: a tiny budget ends the search early with
// Exhausted set and the evaluation count within budget.
func TestExploreBudgetExhaustion(t *testing.T) {
	pdk := tech.Default130()
	space := testSpace()
	res, err := Explore(pdk, space, Options{Seed: 1, MaxEvals: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatal("10-eval run must report Exhausted")
	}
	if res.Evaluations > 10 {
		t.Fatalf("issued %d evaluations, budget was 10", res.Evaluations)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("even an exhausted run must surface a frontier")
	}
}

// TestExploreRequireThermal: with the thermal gate on, every frontier
// point has non-negative headroom.
func TestExploreRequireThermal(t *testing.T) {
	pdk := tech.Default130()
	space := testSpace()
	space.PerTierPowerW = 8 // hot enough that deep stacks violate Eq. 17
	res, err := Explore(pdk, space, Options{Seed: 7, RequireThermal: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("thermal-gated run returned an empty frontier")
	}
	for _, p := range res.Frontier {
		if p.ThermalHeadroomK < 0 {
			t.Fatalf("thermal-gated frontier holds infeasible point %+v", p)
		}
	}
	// Sanity: the gate actually bit — an ungated run reaches deeper stacks.
	open, err := Explore(pdk, space, Options{Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	deepest := func(f []Point) int {
		d := 0
		for _, p := range f {
			if p.TierPairs > d {
				d = p.TierPairs
			}
		}
		return d
	}
	if deepest(open.Frontier) <= deepest(res.Frontier) {
		t.Skipf("gate did not bite at this power (open %d vs gated %d pairs)",
			deepest(open.Frontier), deepest(res.Frontier))
	}
}

func TestExploreBadSpace(t *testing.T) {
	pdk := tech.Default130()
	bad := Space{Deltas: Axis{Min: 0.2, Max: 2, Steps: 4},
		TierPairs: IntAxis{Min: 1, Max: 2}, BWScales: Axis{Min: 1, Max: 2, Steps: 2}}
	if _, err := Explore(pdk, bad, Options{}, nil); err == nil {
		t.Fatal("Explore accepted an invalid space")
	}
	if _, err := BruteForce(pdk, bad); err == nil {
		t.Fatal("BruteForce accepted an invalid space")
	}
}

// TestExploreMeasuresCSOnce: a default exploration allocates at most
// 1.2× what one case-study CS measurement does. Building the machine is
// almost all of an exploration's cost, so measuring the CS twice would
// read about 2×.
func TestExploreMeasuresCSOnce(t *testing.T) {
	pdk := tech.Default130()
	one := testing.AllocsPerRun(1, func() {
		if _, err := core.AreaModel(pdk, arch.MB64); err != nil {
			t.Fatal(err)
		}
	})
	got := testing.AllocsPerRun(1, func() {
		if _, err := Explore(pdk, Space{}, Options{}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if r := got / one; r > 1.2 {
		t.Fatalf("Explore allocates %.0f objects, %.2f× one CS measurement (%.0f); want ≤ 1.2×", got, r, one)
	}
}
