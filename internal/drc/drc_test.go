package drc

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

func placedRouted(t *testing.T) (*floorplan.Floorplan, *netlist.Netlist, *route.Result) {
	t.Helper()
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
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
	return fp, b.NL, routes
}

func TestCleanDesignPasses(t *testing.T) {
	fp, nl, routes := placedRouted(t)
	rep, err := Audit(fp, nl, routes)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		for _, v := range rep.Violations[:minInt(5, len(rep.Violations))] {
			t.Log(v)
		}
		t.Fatalf("clean design reports %d violations", len(rep.Violations))
	}
	if rep.CheckedInstances == 0 || rep.CheckedNets == 0 || rep.CheckedSegs == 0 {
		t.Errorf("audit skipped work: %+v", rep)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestDetectsOffGrid(t *testing.T) {
	fp, nl, _ := placedRouted(t)
	nl.MovableCells()[0].Pos.Y += 3
	rep, err := Audit(fp, nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind()[KindOffGrid] == 0 {
		t.Error("off-grid cell not detected")
	}
}

func TestDetectsOverlap(t *testing.T) {
	fp, nl, _ := placedRouted(t)
	cells := nl.MovableCells()
	cells[1].Pos = cells[0].Pos
	rep, err := Audit(fp, nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind()[KindOverlap] == 0 {
		t.Error("overlap not detected")
	}
}

func TestDetectsBlockageViolation(t *testing.T) {
	fp, nl, _ := placedRouted(t)
	c := nl.MovableCells()[0]
	fp.AddBlockage(tech.TierSiCMOS, c.Bounds(fp.PDK))
	rep, err := Audit(fp, nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind()[KindBlockage] == 0 {
		t.Error("blockage violation not detected")
	}
}

func TestDetectsOffDie(t *testing.T) {
	fp, nl, _ := placedRouted(t)
	nl.MovableCells()[0].Pos = geom.Pt(fp.Die.Hi.X, fp.Die.Hi.Y)
	rep, err := Audit(fp, nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind()[KindOffDie] == 0 {
		t.Error("off-die cell not detected")
	}
}

func TestDetectsMacroOverlap(t *testing.T) {
	fp, nl, _ := placedRouted(t)
	m := &netlist.MacroRef{Kind: "blk", Width: 50_000, Height: 50_000}
	a := nl.AddMacro("ma", m, tech.TierRRAM)
	b := nl.AddMacro("mb", m, tech.TierRRAM)
	a.Pos = geom.Pt(fp.Die.Lo.X, fp.Die.Lo.Y)
	b.Pos = geom.Pt(fp.Die.Lo.X+10_000, fp.Die.Lo.Y)
	rep, err := Audit(fp, nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind()[KindOverlap] == 0 {
		t.Error("macro overlap not detected")
	}
}

func TestDetectsBrokenNetlist(t *testing.T) {
	fp, nl, _ := placedRouted(t)
	// Orphan a net: drop its driver.
	for _, n := range nl.Nets {
		if !n.Clock && n.Driver != nil {
			n.Driver = nil
			break
		}
	}
	rep, err := Audit(fp, nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind()[KindNetlist] == 0 {
		t.Error("structural breakage not detected")
	}
}

func TestDetectsBadRouteGeometry(t *testing.T) {
	fp, nl, routes := placedRouted(t)
	// Corrupt one segment into a diagonal.
	for _, nr := range routes.Routes {
		if len(nr.Segs) > 0 {
			nr.Segs[0].B = nr.Segs[0].A.Add(geom.Pt(12345, 999))
			break
		}
	}
	rep, err := Audit(fp, nl, routes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind()[KindRouteGeom] == 0 {
		t.Error("bad segment not detected")
	}
}

func TestNilArgsRejected(t *testing.T) {
	if _, err := Audit(nil, nil, nil); err == nil {
		t.Error("nil args should fail")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: KindOverlap, Object: "u1", Detail: "overlaps u2"}
	if v.String() != "[overlap] u1: overlaps u2" {
		t.Errorf("String = %q", v.String())
	}
}

// TestDanglingRouteReported routes a net whose CNFET-tier sink cannot be
// reached — a CNFET blockage over the whole die leaves no ILV capacity —
// and requires the router to mark the net failed, count it once, and the
// audit to report it as one dangling route.
func TestDanglingRouteReported(t *testing.T) {
	const mm = int64(1_000_000)
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
	drv := nl.AddCell("drv", siLib.MustPick(cell.Inv, 1))
	si := nl.AddCell("si", siLib.MustPick(cell.Inv, 1))
	cn := nl.AddCell("cn", cnLib.MustPick(cell.Inv, 1))
	n := nl.AddNet("n", 0.1)
	nl.MustPin(drv, "Y", true, 0, n)
	nl.MustPin(si, "A", false, si.Cell.InputCapF, n)
	nl.MustPin(cn, "A", false, cn.Cell.InputCapF, n)
	drv.Pos, si.Pos, cn.Pos = geom.Pt(mm/4, mm/4), geom.Pt(mm/2, mm/4), geom.Pt(3*mm/4, 3*mm/4)
	drv.Fixed, si.Fixed, cn.Fixed = true, true, true

	die := geom.R(0, 0, mm, mm)
	fp, err := floorplan.New(p, die)
	if err != nil {
		t.Fatal(err)
	}
	fp.AddBlockage(tech.TierCNFET, die)
	routes, err := route.Route(fp, nl, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !routes.Routes[n].Failed {
		t.Error("net with an unreachable sink not marked Failed")
	}
	if routes.FailedNets != 1 {
		t.Errorf("FailedNets = %d, want 1", routes.FailedNets)
	}
	rep, err := Audit(fp, nl, routes)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.ByKind()[KindDangling]; got != 1 {
		t.Errorf("%d dangling-route violations, want 1", got)
	}
}
