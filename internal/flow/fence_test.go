package flow

import (
	"testing"

	"m3d/internal/cell"
	"m3d/internal/floorplan"
	"m3d/internal/macro"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// fig2Spec is the m3dflow Fig. 2 run (-side 3 -rram 4) at seed 1.
func fig2Spec() SoCSpec {
	return SoCSpec{ArrayRows: 3, ArrayCols: 3, RRAMCapBits: 4 << 23, GlobalSRAMBits: 64 << 10, Seed: 1}
}

// regionsOf re-derives the group regions of a finished run: packing
// copies of its macros on a fresh floorplan of the same die repeats the
// flow's floorplan step, which must put every copy where the flow put
// the original.
func regionsOf(t *testing.T, p *tech.PDK, res *Result) *floorplan.Floorplan {
	t.Helper()
	_, nl, _ := res.Design()
	fp, err := floorplan.New(p, res.Die)
	if err != nil {
		t.Fatal(err)
	}
	macros := nl.MacroInstances()
	copies := make([]*netlist.Instance, len(macros))
	for i, m := range macros {
		c := *m
		copies[i] = &c
	}
	if err := fp.PackMacros3D(copies); err != nil {
		t.Fatal(err)
	}
	for i, m := range macros {
		if copies[i].Pos != m.Pos {
			t.Fatalf("%s repacks at %v, the flow placed it at %v", m.Name, copies[i].Pos, m.Pos)
		}
	}
	return fp
}

// TestFenceKeepsEachCSInItsRegion: in the M3D twin of the reduced case
// study (seeds 1–4) and of the Fig. 2 run, every group has a region of
// its own, every CS buffer macro lies inside its group's region, and at
// least 90% of each group's cells do.
func TestFenceKeepsEachCSInItsRegion(t *testing.T) {
	p := tech.Default130()
	type tc struct {
		spec  SoCSpec
		numCS int
	}
	var cases []tc
	for _, s := range benchSpecs() {
		cases = append(cases, tc{s, 2})
	}
	cases = append(cases, tc{fig2Spec(), 4})
	for _, c := range cases {
		_, m3d, err := CaseStudy(p, c.spec, c.numCS)
		if err != nil {
			t.Fatal(err)
		}
		fp := regionsOf(t, p, m3d)
		_, nl, _ := m3d.Design()
		in := make([]int, c.numCS+1)
		total := make([]int, c.numCS+1)
		for _, inst := range nl.Instances {
			g := inst.Group
			if g == 0 {
				continue
			}
			inside := fp.Region(g).ContainsRect(inst.Bounds(p))
			if inst.IsMacro() {
				if inst.Tier == tech.TierSiCMOS && !inside {
					t.Errorf("seed %d cs=%d: %s at %v lies outside group %d's region %v",
						c.spec.Seed, c.numCS, inst.Name, inst.Bounds(p), g, fp.Region(g))
				}
				continue
			}
			total[g]++
			if inside {
				in[g]++
			}
		}
		for g := 1; g <= c.numCS; g++ {
			if fp.Region(g) == fp.Die {
				t.Errorf("seed %d cs=%d: group %d has the whole die as its region", c.spec.Seed, c.numCS, g)
			}
			if total[g] == 0 || in[g]*10 < total[g]*9 {
				t.Errorf("seed %d cs=%d: group %d keeps %d of %d cells in its region, want ≥ 90%%",
					c.spec.Seed, c.numCS, g, in[g], total[g])
			}
		}
	}
}

// TestBuildSoCGroups pins the grouping rule: with one bank per CS, CS k's
// buffer and bank k share group k+1 and the clock root and top
// controller stay ungrouped; with any other bank count nothing is
// grouped.
func TestBuildSoCGroups(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	spec.Style = macro.Style3D
	spec.NumCS = 2
	for _, banks := range []int{2, 1, 4} {
		spec.Banks = banks
		parts, err := buildSoC(p, lib, spec.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]*netlist.Instance{}
		sizes := map[int]int{}
		for _, inst := range parts.nl.Instances {
			byName[inst.Name] = inst
			sizes[inst.Group]++
		}
		if banks != spec.NumCS {
			if len(sizes) != 1 || sizes[0] == 0 {
				t.Errorf("banks=%d: instances per group %v, want all ungrouped", banks, sizes)
			}
			continue
		}
		for k := 0; k < spec.NumCS; k++ {
			if g := parts.sramInsts[k].Group; g != k+1 {
				t.Errorf("%s in group %d, want %d", parts.sramInsts[k].Name, g, k+1)
			}
			if g := parts.bankInsts[k].Group; g != k+1 {
				t.Errorf("%s in group %d, want %d", parts.bankInsts[k].Name, g, k+1)
			}
			if sizes[k+1] != sizes[1] {
				t.Errorf("groups differ in size: %v", sizes)
			}
		}
		if byName["clkroot"].Group != 0 {
			t.Error("the clock root must stay ungrouped")
		}
		if sizes[0] == 0 || len(sizes) != spec.NumCS+1 {
			t.Errorf("instances per group %v, want %d groups plus ungrouped top logic", sizes, spec.NumCS)
		}
	}
}
