package flow

import (
	"bytes"
	"testing"

	"m3d/internal/def"
	"m3d/internal/gds"
	"m3d/internal/macro"
	"m3d/internal/tech"
)

// smallSpec is a reduced-scale SoC that runs the full flow quickly: 2×2
// PEs per CS, 2 MB RRAM, 64 Kb buffers.
func smallSpec() SoCSpec {
	return SoCSpec{
		ArrayRows: 2, ArrayCols: 2,
		RRAMCapBits:    2 << 20,
		BankWordBits:   64,
		GlobalSRAMBits: 64 << 10,
		Seed:           1,
	}
}

func TestRun2DBaseline(t *testing.T) {
	p := tech.Default130()
	spec := smallSpec()
	spec.Style = macro.Style2D
	res, err := Run(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells == 0 || res.Macros == 0 {
		t.Fatal("empty flow result")
	}
	if res.RoutedWL <= 0 {
		t.Error("no routed wirelength")
	}
	if res.FmaxHz <= 0 {
		t.Error("no timing result")
	}
	if !res.TimingMet {
		t.Errorf("20 MHz should be met; fmax = %.2f MHz", res.FmaxHz/1e6)
	}
	if res.Power == nil || res.Power.TotalW <= 0 {
		t.Error("no power result")
	}
	if res.Area.CellsNM2 <= 0 || res.Area.CSNM2 <= 0 {
		t.Error("area report incomplete")
	}
}

func TestCaseStudyIsoFootprintFreesSi(t *testing.T) {
	p := tech.Default130()
	twoD, m3d, err := CaseStudy(p, smallSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Iso-footprint by construction.
	if twoD.Die != m3d.Die {
		t.Fatalf("dies differ: %v vs %v", twoD.Die, m3d.Die)
	}
	// Iso-on-chip-memory-capacity.
	if twoD.Spec.RRAMCapBits != m3d.Spec.RRAMCapBits {
		t.Fatal("memory capacities differ")
	}
	// The M3D run frees Si under the arrays: more free Si even though it
	// hosts 2x the CS logic.
	if m3d.Area.FreeSiNM2 <= twoD.Area.FreeSiNM2 {
		t.Errorf("M3D free Si %d should exceed 2D %d (the paper's mechanism)",
			m3d.Area.FreeSiNM2, twoD.Area.FreeSiNM2)
	}
	// The M3D design holds more CSs (more cells) in the same footprint.
	if m3d.Cells <= twoD.Cells {
		t.Errorf("M3D should hold more logic: %d vs %d cells", m3d.Cells, twoD.Cells)
	}
	// Both meet the relaxed 20 MHz target.
	if !twoD.TimingMet || !m3d.TimingMet {
		t.Errorf("timing: 2D met=%v (%.1f MHz), M3D met=%v (%.1f MHz)",
			twoD.TimingMet, twoD.FmaxHz/1e6, m3d.TimingMet, m3d.FmaxHz/1e6)
	}
}

func TestObservation2PowerDensity(t *testing.T) {
	// Obs. 2: upper-layer (BEOL) power <1% of chip power; peak power
	// density increase ≈1% vs 2D.
	p := tech.Default130()
	twoD, m3d, err := CaseStudy(p, smallSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if frac := m3d.Power.UpperTierFraction(); frac >= 0.05 {
		t.Errorf("upper-tier power fraction = %.3f, want < 0.05 (paper <0.01)", frac)
	}
	// Peak density stays in the same ballpark (the CS region dominates in
	// both; only the thin BEOL adder moves it).
	ratio := m3d.Power.PeakDensityWPerMM2 / twoD.Power.PeakDensityWPerMM2
	if ratio > 2.0 {
		t.Errorf("M3D peak density ratio = %.2f, want ≈1 (paper +1%%)", ratio)
	}
}

func TestGDSExportValid(t *testing.T) {
	p := tech.Default130()
	spec := smallSpec()
	spec.Style = macro.Style3D
	res, err := Run(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteGDS(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no GDS bytes")
	}
	lib, err := gds.Decode(&buf)
	if err != nil {
		t.Fatalf("GDS round trip: %v", err)
	}
	// Die + every instance + routed paths.
	if len(lib.Structs) != 1 || len(lib.Structs[0].Elements) < res.Cells {
		t.Errorf("GDS underpopulated: %d elements for %d cells",
			len(lib.Structs[0].Elements), res.Cells)
	}
}

func TestSpecDefaults(t *testing.T) {
	s := SoCSpec{}.withDefaults()
	if s.NumCS != 1 || s.ArrayRows != 16 || s.ArrayCols != 16 {
		t.Errorf("defaults wrong: %+v", s)
	}
	if s.RRAMCapBits != 64<<23 {
		t.Errorf("default RRAM = %d, want 64MB", s.RRAMCapBits)
	}
	if s.TargetClockHz != 20e6 {
		t.Errorf("default clock = %g", s.TargetClockHz)
	}
}

func TestInvalidPDKRejected(t *testing.T) {
	p := tech.Default130()
	p.VDD = 0
	if _, err := Run(p, smallSpec()); err == nil {
		t.Error("invalid PDK should fail")
	}
}

func TestFoldingStyleILVUse(t *testing.T) {
	// The M3D run routes in the same stack; its design uses ILVs only for
	// macro connectivity (logic all in Si), so ILV count is modest but the
	// route report carries the layer split.
	p := tech.Default130()
	spec := smallSpec()
	spec.Style = macro.Style3D
	spec.NumCS = 2
	spec.Banks = 2
	res, err := Run(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var lower, upper int64
	for i, wl := range res.WLByLayer {
		if i < 4 {
			lower += wl
		} else {
			upper += wl
		}
	}
	if lower == 0 {
		t.Error("no lower-metal routing")
	}
	if lower+upper != res.RoutedWL {
		t.Error("layer split does not sum")
	}
}

func TestFoldedFlowRuns(t *testing.T) {
	// The refs [3-4]-style folding flow: iso-architecture, logic split
	// across Si and CNFET tiers on a ~half-size die.
	// Logic-dominated config (tiny RRAM) so folding's footprint gain shows.
	p := tech.Default130()
	spec := SoCSpec{
		ArrayRows: 3, ArrayCols: 3,
		RRAMCapBits:    256 << 10,
		BankWordBits:   64,
		GlobalSRAMBits: 16 << 10,
		Seed:           1,
	}
	spec.Style = macro.Style2D
	flat, err := Run(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.FoldLogic = true
	spec.Style = macro.Style3D
	folded, err := Run(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if folded.Die.Area() >= flat.Die.Area() {
		t.Errorf("folded die %v should be smaller than flat %v", folded.Die, flat.Die)
	}
	if folded.ILVs == 0 {
		t.Error("folded logic must consume ILVs for tier crossings")
	}
	// Folding shrinks placement wirelength (the refs [3-4] ~20% effect).
	// Routed WL may regress in this PDK: the CNFET tier only has the two
	// coarse top metals (Fig. 4a), so upper-tier routing detours — one
	// reason folding alone buys little here (the paper's intro point).
	if folded.HPWL >= flat.HPWL {
		t.Errorf("folded HPWL %d should be below flat HPWL %d", folded.HPWL, flat.HPWL)
	}
}

func TestFlowWithCTS(t *testing.T) {
	p := tech.Default130()
	spec := smallSpec()
	spec.Style = macro.Style2D
	spec.RunCTS = true
	res, err := Run(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.CTS == nil {
		t.Fatal("CTS report missing")
	}
	if res.CTS.Sinks == 0 || res.CTS.Buffers == 0 {
		t.Errorf("CTS trivial: %+v", res.CTS)
	}
	if res.CTS.MaxSkewS < 0 || res.CTS.MaxSkewS > 5e-9 {
		t.Errorf("skew %g out of range", res.CTS.MaxSkewS)
	}
	if !res.TimingMet {
		t.Errorf("CTS run should still meet 20 MHz, fmax=%.1f MHz", res.FmaxHz/1e6)
	}
}

func TestFlowAuditClean(t *testing.T) {
	p := tech.Default130()
	spec := smallSpec()
	spec.Style = macro.Style3D
	res, err := Run(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit == nil {
		t.Fatal("audit missing")
	}
	// The flow's own output should sign off cleanly, modulo residual
	// routing overflow on congested small dies.
	for _, v := range res.Audit.Violations {
		if v.Kind != "route-overflow" {
			t.Errorf("unexpected violation: %s", v)
		}
	}
}

func TestFlowIRDrop(t *testing.T) {
	p := tech.Default130()
	spec := smallSpec()
	spec.Style = macro.Style2D
	res, err := Run(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.IRDrop == nil {
		t.Fatal("IR drop report missing")
	}
	if res.IRDrop.WorstDropV < 0 {
		t.Error("negative drop")
	}
	// A milliwatt-class SoC on a boundary pad ring passes the 5% budget.
	if !res.IRDrop.Pass {
		t.Errorf("IR drop %g V should pass the %g V budget",
			res.IRDrop.WorstDropV, res.IRDrop.BudgetV)
	}
}

func TestFlowInterchangeExports(t *testing.T) {
	p := tech.Default130()
	spec := smallSpec()
	spec.Style = macro.Style2D
	res, err := Run(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var v, d bytes.Buffer
	if err := res.WriteVerilog(&v); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteDEF(&d); err != nil {
		t.Fatal(err)
	}
	if v.Len() == 0 || d.Len() == 0 {
		t.Fatal("interchange outputs empty")
	}
	parsed, err := def.Read(&d)
	if err != nil {
		t.Fatalf("DEF round trip: %v", err)
	}
	if len(parsed.Placements) != res.Cells+res.Macros {
		t.Errorf("DEF placements = %d, want %d", len(parsed.Placements), res.Cells+res.Macros)
	}
	if parsed.Die != res.Die {
		t.Error("DEF die mismatch")
	}
}
