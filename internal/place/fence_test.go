package place

import (
	"fmt"
	"testing"

	"m3d/internal/floorplan"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/synth"
	"m3d/internal/tech"
)

// fencedFixture builds two systolic arrays in groups 1 and 2 on a die
// sized for both, and gives each group a small anchor macro that leaves
// the Si free, so PackMacros3D splits the die into two column regions.
func fencedFixture(t testing.TB) *fixture {
	t.Helper()
	fx := newFixture(t, 1, 1)
	b := synth.NewBuilder("fenced", fx.lib)
	anchor := &netlist.MacroRef{Kind: "rram", Width: 10_000, Height: 10_000,
		Blockages: []netlist.Blockage{{Tier: tech.TierCNFET, Rect: geom.R(0, 0, 10_000, 10_000)}}}
	for g := 1; g <= 2; g++ {
		first := len(b.NL.Instances)
		b.Systolic(fmt.Sprintf("cs%d", g), synth.SystolicSpec{
			Rows: 2, Cols: 2, ActBits: 4, WeightBits: 4, AccBits: 12, Activity: 0.2,
		})
		b.NL.AddMacro(fmt.Sprintf("anchor%d", g), anchor, tech.TierRRAM)
		for _, inst := range b.NL.Instances[first:] {
			inst.Group = g
		}
	}
	die, err := floorplan.SizeDie(fx.p, b.NL, 0.6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(fx.p, die)
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.PackMacros3D(b.NL.MacroInstances()); err != nil {
		t.Fatal(err)
	}
	if fp.Region(1) == fp.Die || fp.Region(1).Overlaps(fp.Region(2)) {
		t.Fatalf("want two disjoint regions, got %v and %v", fp.Region(1), fp.Region(2))
	}
	return &fixture{p: fx.p, lib: fx.lib, nl: b.NL, fp: fp}
}

// outside counts the group's movable cells not inside its region.
func outside(fx *fixture, g int) (out, total int) {
	for _, c := range fx.nl.MovableCells() {
		if c.Group != g {
			continue
		}
		total++
		if !fx.fp.Region(g).ContainsRect(c.Bounds(fx.p)) {
			out++
		}
	}
	return out, total
}

func TestGlobalAndRefineKeepGroupsInRegions(t *testing.T) {
	fx := fencedFixture(t)
	if _, err := Global(fx.fp, fx.nl, tech.TierSiCMOS, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Refine(fx.fp, fx.nl, tech.TierSiCMOS, 1); err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(fx.fp, fx.nl, tech.TierSiCMOS); err != nil {
		t.Fatal(err)
	}
	for g := 1; g <= 2; g++ {
		if out, total := outside(fx, g); total == 0 || out != 0 {
			t.Errorf("group %d: %d of %d cells outside region %v", g, out, total, fx.fp.Region(g))
		}
	}
}

func TestLegalizeFallsBackWhenRegionIsFull(t *testing.T) {
	// Block the top 60% of group 1's region after the regions are fixed:
	// the rest holds only part of its cells, and the others take the
	// nearest slots elsewhere on the die instead of failing.
	fx := fencedFixture(t)
	r := fx.fp.Region(1)
	fx.fp.AddBlockage(tech.TierSiCMOS, geom.R(r.Lo.X, r.Lo.Y+r.H()*2/5, r.Hi.X, r.Hi.Y))
	if _, err := Global(fx.fp, fx.nl, tech.TierSiCMOS, 1); err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(fx.fp, fx.nl, tech.TierSiCMOS); err != nil {
		t.Fatal(err)
	}
	out, total := outside(fx, 1)
	if out == 0 || out == total {
		t.Errorf("group 1: %d of %d cells outside its region; want its free part filled and the rest spilled", out, total)
	}
}
