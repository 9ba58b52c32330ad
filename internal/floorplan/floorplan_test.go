package floorplan

import (
	"testing"

	"m3d/internal/cell"
	"m3d/internal/geom"
	"m3d/internal/macro"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

const mm = int64(1_000_000) // 1 mm in DBU (nm)

func newFP(t *testing.T, w, h int64) *Floorplan {
	t.Helper()
	f, err := New(tech.Default130(), geom.R(0, 0, w, h))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	p := tech.Default130()
	if _, err := New(p, geom.Rect{}); err == nil {
		t.Error("empty die should be rejected")
	}
	p.VDD = 0
	if _, err := New(p, geom.R(0, 0, mm, mm)); err == nil {
		t.Error("invalid PDK should be rejected")
	}
}

func TestAddBlockageClipped(t *testing.T) {
	f := newFP(t, mm, mm)
	f.AddBlockage(tech.TierSiCMOS, geom.R(-mm, 0, mm/2, mm/2))
	bs := f.Blockages(tech.TierSiCMOS)
	if len(bs) != 1 {
		t.Fatalf("blockages = %d", len(bs))
	}
	if bs[0].Lo.X != 0 {
		t.Error("blockage not clipped to die")
	}
	// Fully outside: dropped.
	f.AddBlockage(tech.TierSiCMOS, geom.R(2*mm, 2*mm, 3*mm, 3*mm))
	if len(f.Blockages(tech.TierSiCMOS)) != 1 {
		t.Error("outside blockage should be dropped")
	}
}

func TestPlaceMacroRecordsBlockages(t *testing.T) {
	p := tech.Default130()
	f := newFP(t, 6*mm, 6*mm)
	bank, err := macro.NewRRAMBank(p, macro.RRAMBankSpec{
		CapacityBits: 8 << 20, WordBits: 128, Style: macro.Style2D,
	})
	if err != nil {
		t.Fatal(err)
	}
	nl := netlist.New("t")
	inst := nl.AddMacro("bank0", bank.Ref, tech.TierRRAM)
	if err := f.PlaceMacro(inst, geom.Pt(mm, mm)); err != nil {
		t.Fatal(err)
	}
	if inst.Pos != geom.Pt(mm, mm) || !inst.Fixed {
		t.Error("macro not fixed at position")
	}
	// 2D bank blocks Si under its whole footprint.
	under := inst.Bounds(p).Inset(1000)
	if f.IsFree(tech.TierSiCMOS, under) {
		t.Error("Si under a 2D RRAM bank must be blocked")
	}
	// Area away from the macro stays free.
	if !f.IsFree(tech.TierSiCMOS, geom.R(5*mm, 5*mm, 5*mm+1000, 5*mm+1000)) {
		t.Error("far corner should be free")
	}
}

func TestPlaceMacroOffDieFails(t *testing.T) {
	p := tech.Default130()
	f := newFP(t, mm, mm)
	nl := netlist.New("t")
	inst := nl.AddMacro("m", &netlist.MacroRef{Kind: "x", Width: mm / 2, Height: mm / 2}, tech.TierSiCMOS)
	if err := f.PlaceMacro(inst, geom.Pt(3*mm/4, 0)); err == nil {
		t.Error("off-die macro should fail")
	}
	_ = p
}

func TestPlaceNonMacroFails(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	f := newFP(t, mm, mm)
	nl := netlist.New("t")
	inst := nl.AddCell("c", lib.MustPick(cell.Inv, 1))
	if err := f.PlaceMacro(inst, geom.Pt(0, 0)); err == nil {
		t.Error("standard cells are not floorplanned as macros")
	}
}

func TestPackMacros(t *testing.T) {
	f := newFP(t, 4*mm, 4*mm)
	nl := netlist.New("t")
	var insts []*netlist.Instance
	for i := 0; i < 6; i++ {
		m := &netlist.MacroRef{
			Kind: "blk", Width: mm, Height: mm / 2,
			Blockages: []netlist.Blockage{{Tier: tech.TierSiCMOS, Rect: geom.R(0, 0, mm, mm/2)}},
		}
		insts = append(insts, nl.AddMacro("m", m, tech.TierSiCMOS))
	}
	if err := f.PackMacros(insts); err != nil {
		t.Fatal(err)
	}
	// No pairwise overlap.
	p := tech.Default130()
	for i := 0; i < len(insts); i++ {
		for j := i + 1; j < len(insts); j++ {
			if insts[i].Bounds(p).Overlaps(insts[j].Bounds(p)) {
				t.Fatalf("macros %d and %d overlap", i, j)
			}
		}
	}
}

func TestPackMacrosOverflow(t *testing.T) {
	f := newFP(t, 2*mm, 2*mm)
	nl := netlist.New("t")
	var insts []*netlist.Instance
	for i := 0; i < 5; i++ {
		insts = append(insts, nl.AddMacro("m", &netlist.MacroRef{Kind: "big", Width: mm, Height: mm}, tech.TierSiCMOS))
	}
	if err := f.PackMacros(insts); err == nil {
		t.Error("5 x 1mm² macros cannot fit a 4mm² die")
	}
}

func TestFreeAreaAccountsBlockages(t *testing.T) {
	f := newFP(t, 4*mm, 4*mm)
	freeBefore := f.FreeAreaNM2(tech.TierSiCMOS)
	if freeBefore != f.Die.Area() {
		t.Errorf("empty floorplan free area = %d, want %d", freeBefore, f.Die.Area())
	}
	f.AddBlockage(tech.TierSiCMOS, geom.R(0, 0, 2*mm, 2*mm))
	freeAfter := f.FreeAreaNM2(tech.TierSiCMOS)
	want := f.Die.Area() - 4*mm*mm
	if ratio := float64(freeAfter) / float64(want); ratio < 0.98 || ratio > 1.02 {
		t.Errorf("free area after blockage = %d, want ≈%d", freeAfter, want)
	}
	// Other tier unaffected.
	if f.FreeAreaNM2(tech.TierCNFET) != f.Die.Area() {
		t.Error("CNFET tier should be unaffected")
	}
}

func TestM3DBankFreesSi(t *testing.T) {
	// The mechanism behind the paper: identical bank, different style, much
	// more free Si under the M3D bank.
	p := tech.Default130()
	capBits := int64(8) << 20
	free := func(style macro.Style) int64 {
		f := newFP(t, 6*mm, 6*mm)
		bank, err := macro.NewRRAMBank(p, macro.RRAMBankSpec{CapacityBits: capBits, WordBits: 128, Style: style})
		if err != nil {
			t.Fatal(err)
		}
		nl := netlist.New("t")
		inst := nl.AddMacro("b", bank.Ref, tech.TierRRAM)
		if err := f.PlaceMacro(inst, geom.Pt(mm, mm)); err != nil {
			t.Fatal(err)
		}
		return f.FreeAreaNM2(tech.TierSiCMOS)
	}
	f2d, f3d := free(macro.Style2D), free(macro.Style3D)
	if f3d <= f2d {
		t.Fatalf("M3D bank must free Si area: 2D free %d, 3D free %d", f2d, f3d)
	}
}

func TestRows(t *testing.T) {
	p := tech.Default130()
	f := newFP(t, mm, 10*p.RowHeight)
	rows := f.Rows()
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	if rows[1].Y-rows[0].Y != p.RowHeight {
		t.Error("row spacing must be one row height")
	}
}

func TestSizeDie(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	nl := netlist.New("t")
	for i := 0; i < 1000; i++ {
		nl.AddCell("c", lib.MustPick(cell.Nand2, 1))
	}
	die, err := SizeDie(p, nl, 0.7, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var cellArea int64
	for _, inst := range nl.Instances {
		cellArea += inst.AreaNM2(p)
	}
	util := float64(cellArea) / float64(die.Area())
	if util > 0.7 || util < 0.5 {
		t.Errorf("achieved utilization %.2f outside [0.5, 0.7]", util)
	}
	if _, err := SizeDie(p, nl, 0, 1); err == nil {
		t.Error("zero utilization should fail")
	}
	if _, err := SizeDie(p, nl, 1.5, 1); err == nil {
		t.Error("utilization > 1 should fail")
	}
}

func TestDensityGrid(t *testing.T) {
	f := newFP(t, 4*mm, 4*mm)
	f.AddBlockage(tech.TierSiCMOS, geom.R(0, 0, 4*mm, 2*mm))
	g := f.DensityGrid(tech.TierSiCMOS)
	if g.Max() < 0.99 {
		t.Errorf("fully-blocked cells should be ~1, max=%g", g.Max())
	}
	// Top half should be free.
	ix, iy := g.CellOf(geom.Pt(2*mm, 3*mm+mm/2))
	if g.At(ix, iy) > 0.01 {
		t.Errorf("free region shows density %g", g.At(ix, iy))
	}
}

func TestPackMacros3DStacksSRAMUnderArray(t *testing.T) {
	// A die barely bigger than the M3D bank: the SRAM buffer can only fit
	// by stacking under the bank's array (freed Si), which 3D packing must
	// discover.
	p := tech.Default130()
	bank, err := macro.NewRRAMBank(p, macro.RRAMBankSpec{CapacityBits: 8 << 20, WordBits: 128, Style: macro.Style3D})
	if err != nil {
		t.Fatal(err)
	}
	sram, err := macro.NewSRAM(p, macro.SRAMSpec{CapacityBits: 256 << 10, WordBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	die := geom.R(0, 0, bank.Ref.Width+3*MacroHalo, bank.Ref.Height+3*MacroHalo)
	f, err := New(p, die)
	if err != nil {
		t.Fatal(err)
	}
	nl := netlist.New("stack")
	bi := nl.AddMacro("bank", bank.Ref, tech.TierRRAM)
	si := nl.AddMacro("buf", sram.Ref, tech.TierSiCMOS)
	if err := f.PackMacros3D([]*netlist.Instance{bi, si}); err != nil {
		t.Fatalf("3D packing failed: %v", err)
	}
	// The SRAM must overlap the bank's XY footprint (it stacked).
	if !si.Bounds(p).Overlaps(bi.Bounds(p)) {
		t.Errorf("SRAM at %v did not stack under the bank at %v", si.Bounds(p), bi.Bounds(p))
	}
	// But it must avoid the bank's Si peripheral strip.
	periph := bank.PeriphRect.Translate(bi.Pos).Inset(-MacroHalo)
	if si.Bounds(p).Overlaps(periph.Inset(2 * MacroHalo)) {
		t.Errorf("SRAM overlaps the bank's Si peripherals")
	}
}

func TestPackMacros3DRejectsOverfill(t *testing.T) {
	p := tech.Default130()
	bank, err := macro.NewRRAMBank(p, macro.RRAMBankSpec{CapacityBits: 1 << 20, WordBits: 64, Style: macro.Style2D})
	if err != nil {
		t.Fatal(err)
	}
	sram, err := macro.NewSRAM(p, macro.SRAMSpec{CapacityBits: 1 << 20, WordBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	// A 2D bank blocks all Si under itself; a die exactly the bank's size
	// leaves nowhere for the SRAM.
	die := geom.R(0, 0, bank.Ref.Width+3*MacroHalo, bank.Ref.Height+3*MacroHalo)
	f, err := New(p, die)
	if err != nil {
		t.Fatal(err)
	}
	nl := netlist.New("full")
	bi := nl.AddMacro("bank", bank.Ref, tech.TierRRAM)
	si := nl.AddMacro("buf", sram.Ref, tech.TierSiCMOS)
	if err := f.PackMacros3D([]*netlist.Instance{bi, si}); err == nil {
		t.Error("SRAM cannot stack under a 2D-style bank; packing should fail")
	}
}

// packGrouped shelf-packs n M3D banks in groups 1..n on a die of the
// given size, with one SRAM buffer per group, and returns the banks and
// buffers.
func packGrouped(t *testing.T, f *Floorplan, n int, bufBits int64) (banks, bufs []*netlist.Instance) {
	t.Helper()
	p := f.PDK
	bank, err := macro.NewRRAMBank(p, macro.RRAMBankSpec{CapacityBits: 4 << 20, WordBits: 128, Style: macro.Style3D})
	if err != nil {
		t.Fatal(err)
	}
	sram, err := macro.NewSRAM(p, macro.SRAMSpec{CapacityBits: bufBits, WordBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	nl := netlist.New("grouped")
	var all []*netlist.Instance
	for g := 1; g <= n; g++ {
		b := nl.AddMacro("bank", bank.Ref, tech.TierRRAM)
		s := nl.AddMacro("buf", sram.Ref, tech.TierSiCMOS)
		b.Group, s.Group = g, g
		banks, bufs = append(banks, b), append(bufs, s)
		all = append(all, b, s)
	}
	if err := f.PackMacros3D(all); err != nil {
		t.Fatal(err)
	}
	return banks, bufs
}

// checkTiling asserts that the regions of groups 1..n tile the die and
// that each holds its share of the free Si area, to within one grid step
// of the band or column it was cut from.
func checkTiling(t *testing.T, f *Floorplan, n int, share func(g int) float64) {
	t.Helper()
	var area int64
	for g := 1; g <= n; g++ {
		r := f.Region(g)
		if !f.Die.ContainsRect(r) || r.Empty() {
			t.Fatalf("group %d region %v is empty or leaves the die %v", g, r, f.Die)
		}
		area += r.Area()
		for h := g + 1; h <= n; h++ {
			if r.Overlaps(f.Region(h)) {
				t.Errorf("regions %d %v and %d %v overlap", g, r, h, f.Region(h))
			}
		}
		slack := float64(f.PDK.RowHeight*f.Die.W() + f.PDK.SiteWidth*f.Die.H())
		want := share(g) * float64(f.freeIn(f.Die))
		if got := float64(f.freeIn(r)); got < want-slack || got > want+slack {
			t.Errorf("group %d region %v holds %.4g nm² of free Si, want %.4g", g, r, got, want)
		}
	}
	if area != f.Die.Area() {
		t.Errorf("regions cover %d nm², the die %d", area, f.Die.Area())
	}
}

func TestRegionsTileOneShelfInBankOrder(t *testing.T) {
	f := newFP(t, 4*mm, 2*mm)
	banks, bufs := packGrouped(t, f, 3, 64<<10)
	if banks[0].Pos.Y != banks[2].Pos.Y {
		t.Fatalf("banks should share one shelf: %v %v", banks[0].Pos, banks[2].Pos)
	}
	checkTiling(t, f, 3, func(int) float64 { return 1.0 / 3 })
	for g := 1; g <= 3; g++ {
		r := f.Region(g)
		if r.Lo.Y != f.Die.Lo.Y || r.Hi.Y != f.Die.Hi.Y {
			t.Errorf("one shelf: region %d %v should span the die height", g, r)
		}
		if g > 1 && r.Lo.X <= f.Region(g-1).Lo.X {
			t.Errorf("regions out of bank order: %v after %v", r, f.Region(g-1))
		}
		if !r.ContainsRect(bufs[g-1].Bounds(f.PDK)) {
			t.Errorf("buffer of group %d at %v lies outside its region %v", g, bufs[g-1].Bounds(f.PDK), r)
		}
	}
	if f.Region(0) != f.Die || f.Region(4) != f.Die {
		t.Error("ungrouped instances and groups without a bank get the die")
	}
}

func TestRegionsTileShelvesInProportion(t *testing.T) {
	// Two banks fit side by side, so three banks pack on two shelves: the
	// lower band holds two groups' shares and the upper one the third.
	p := tech.Default130()
	bank, err := macro.NewRRAMBank(p, macro.RRAMBankSpec{CapacityBits: 4 << 20, WordBits: 128, Style: macro.Style3D})
	if err != nil {
		t.Fatal(err)
	}
	w := 2*(bank.Ref.Width+MacroHalo) + bank.Ref.Width/2
	f := newFP(t, w, 3*(bank.Ref.Height+MacroHalo))
	banks, bufs := packGrouped(t, f, 3, 64<<10)
	if banks[0].Pos.Y == banks[2].Pos.Y || banks[0].Pos.Y != banks[1].Pos.Y {
		t.Fatalf("want two banks on the lower shelf and one above: %v %v %v",
			banks[0].Pos, banks[1].Pos, banks[2].Pos)
	}
	checkTiling(t, f, 3, func(int) float64 { return 1.0 / 3 })
	lower, upper := f.Region(1), f.Region(3)
	if f.Region(2).Lo.Y != lower.Lo.Y || upper.Lo.Y != lower.Hi.Y || upper.W() != f.Die.W() {
		t.Errorf("want groups 1 and 2 side by side in the lower band, 3 across the upper: %v %v %v",
			lower, f.Region(2), upper)
	}
	for g := 1; g <= 3; g++ {
		if !f.Region(g).ContainsRect(bufs[g-1].Bounds(p)) {
			t.Errorf("buffer of group %d at %v lies outside its region %v", g, bufs[g-1].Bounds(p), f.Region(g))
		}
	}
}

func TestOneGroupRegionIsTheDie(t *testing.T) {
	f := newFP(t, 4*mm, 2*mm)
	packGrouped(t, f, 1, 64<<10)
	if f.Region(1) != f.Die {
		t.Errorf("a single group's region %v should be the die %v", f.Region(1), f.Die)
	}
}

func TestBufferFallsBackToDieWhenRegionIsFull(t *testing.T) {
	// Two banks that leave the Si free split the die into two ~160 µm
	// columns; a 160 µm buffer plus its halo fits in neither, so packing
	// falls back to scanning the whole die.
	p := tech.Default130()
	f := newFP(t, 320_000, 100_000)
	bank := &netlist.MacroRef{Kind: "rram", Width: 100_000, Height: 50_000,
		Blockages: []netlist.Blockage{{Tier: tech.TierCNFET, Rect: geom.R(0, 0, 100_000, 50_000)}}}
	buf := &netlist.MacroRef{Kind: "sram", Width: 160_000, Height: 20_000,
		Blockages: []netlist.Blockage{{Tier: tech.TierSiCMOS, Rect: geom.R(0, 0, 160_000, 20_000)}}}
	nl := netlist.New("fallback")
	var all, bufs []*netlist.Instance
	for g := 1; g <= 2; g++ {
		b := nl.AddMacro("bank", bank, tech.TierRRAM)
		s := nl.AddMacro("buf", buf, tech.TierSiCMOS)
		b.Group, s.Group = g, g
		all, bufs = append(all, b, s), append(bufs, s)
	}
	if err := f.PackMacros3D(all); err != nil {
		t.Fatalf("packing should fall back to the die: %v", err)
	}
	for g := 1; g <= 2; g++ {
		if f.Region(g).W() >= buf.Width+MacroHalo {
			t.Fatalf("region %d = %v is wide enough for the buffer", g, f.Region(g))
		}
	}
	for g, b := range bufs {
		if f.Region(g + 1).ContainsRect(b.Bounds(p)) {
			t.Errorf("buffer %d at %v cannot fit its region %v", g+1, b.Bounds(p), f.Region(g+1))
		}
		if !f.Die.ContainsRect(b.Bounds(p)) {
			t.Errorf("buffer %d at %v left the die", g+1, b.Bounds(p))
		}
	}
	if bufs[0].Bounds(p).Overlaps(bufs[1].Bounds(p)) {
		t.Error("fallback buffers overlap")
	}
}
