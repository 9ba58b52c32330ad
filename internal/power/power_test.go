package power

import (
	"testing"

	"m3d/internal/cell"
	"m3d/internal/geom"
	"m3d/internal/macro"
	"m3d/internal/netlist"
	"m3d/internal/synth"
	"m3d/internal/tech"
)

func buildDesign(t *testing.T, rows, cols int) (*tech.PDK, *netlist.Netlist) {
	t.Helper()
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	b := synth.NewBuilder("dut", lib)
	b.Systolic("cs", synth.SystolicSpec{Rows: rows, Cols: cols, ActBits: 4, WeightBits: 4, AccBits: 12, Activity: 0.25})
	if err := b.NL.Check(); err != nil {
		t.Fatal(err)
	}
	return p, b.NL
}

func TestAnalyzeBasics(t *testing.T) {
	p, nl := buildDesign(t, 2, 2)
	bd, err := Analyze(p, nl, nil, geom.Rect{}, 20e6)
	if err != nil {
		t.Fatal(err)
	}
	if bd.TotalW <= 0 {
		t.Fatal("total power must be positive")
	}
	if bd.SwitchingW <= 0 || bd.ClockW <= 0 || bd.LeakageW <= 0 {
		t.Errorf("components missing: sw=%g clk=%g leak=%g", bd.SwitchingW, bd.ClockW, bd.LeakageW)
	}
	sum := bd.SwitchingW + bd.ClockW + bd.LeakageW + bd.MacroW
	if diff := (sum - bd.TotalW) / bd.TotalW; diff > 1e-9 || diff < -1e-9 {
		t.Error("components do not sum to total")
	}
	// Pure-Si design: all power in the Si tier.
	if bd.UpperTierFraction() != 0 {
		t.Errorf("Si-only design has upper-tier power %g", bd.UpperTierFraction())
	}
}

func TestPowerScalesWithFrequency(t *testing.T) {
	p, nl := buildDesign(t, 1, 2)
	lo, err := Analyze(p, nl, nil, geom.Rect{}, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Analyze(p, nl, nil, geom.Rect{}, 40e6)
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic quadruples; leakage constant.
	if hi.SwitchingW < 3.9*lo.SwitchingW || hi.SwitchingW > 4.1*lo.SwitchingW {
		t.Errorf("dynamic power should scale 4x: %g -> %g", lo.SwitchingW, hi.SwitchingW)
	}
	if hi.LeakageW != lo.LeakageW {
		t.Error("leakage must not depend on frequency")
	}
}

func TestValidation(t *testing.T) {
	p, nl := buildDesign(t, 1, 1)
	if _, err := Analyze(p, nl, nil, geom.Rect{}, 0); err == nil {
		t.Error("zero clock should fail")
	}
}

func TestMacroPowerSplit(t *testing.T) {
	p := tech.Default130()
	bank, err := macro.NewRRAMBank(p, macro.RRAMBankSpec{CapacityBits: 16 << 20, WordBits: 256, Style: macro.Style3D})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	b := synth.NewBuilder("soc", lib)
	b.BankPeriph("bp", 16)
	nl := b.NL
	bi := nl.AddMacro("bank", bank.Ref, tech.TierRRAM)
	bi.Pos = geom.Pt(0, 0)
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
	die := geom.R(0, 0, 2*bank.Ref.Width, 2*bank.Ref.Height)
	bd, err := Analyze(p, nl, nil, die, 20e6)
	if err != nil {
		t.Fatal(err)
	}
	if bd.MacroW <= 0 {
		t.Fatal("macro access power missing")
	}
	frac := bd.UpperTierFraction()
	if frac <= 0 {
		t.Error("RRAM tier should carry some power")
	}
	// Peripherals dominate (Obs. 2): BEOL share of chip power stays small.
	if frac > 0.2 {
		t.Errorf("upper-tier fraction %g too large for a peripheral-dominated memory", frac)
	}
}

func TestDensityMapPositive(t *testing.T) {
	p, nl := buildDesign(t, 2, 2)
	// Spread instances over a die so the map has structure.
	die := geom.R(0, 0, 2_000_000, 2_000_000)
	x := int64(0)
	for _, inst := range nl.Instances {
		inst.Pos = geom.Pt(x%die.W(), (x/die.W())*p.RowHeight)
		x += 50_000
	}
	bd, err := Analyze(p, nl, nil, die, 20e6)
	if err != nil {
		t.Fatal(err)
	}
	if bd.PeakDensityWPerMM2 <= 0 {
		t.Error("peak density must be positive")
	}
	// Total of density map ≈ power mapped onto instances (net + leak), which
	// is at most the chip total.
	if bd.Density.Sum() > bd.TotalW*1.0001 {
		t.Errorf("density map total %g exceeds chip power %g", bd.Density.Sum(), bd.TotalW)
	}
}

func TestTieCellsConsumeNothing(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	nl := netlist.New("tie")
	tie := nl.AddCell("t", lib.MustPick(cell.TieHi, 1))
	inv := nl.AddCell("i", lib.MustPick(cell.Inv, 1))
	n := nl.AddNet("n", 0.5)
	nl.MustPin(tie, "Y", true, 0, n)
	nl.MustPin(inv, "A", false, inv.Cell.InputCapF, n)
	bd, err := Analyze(p, nl, nil, geom.Rect{}, 20e6)
	if err != nil {
		t.Fatal(err)
	}
	if bd.SwitchingW != 0 {
		t.Errorf("constant nets must not switch, got %g", bd.SwitchingW)
	}
	if bd.LeakageW <= 0 {
		t.Error("cells still leak")
	}
}

func TestByModuleBreakdown(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	b := synth.NewBuilder("soc", lib)
	b.Systolic("cs0", synth.SystolicSpec{Rows: 1, Cols: 1, ActBits: 4, WeightBits: 4, AccBits: 12, Activity: 0.25})
	b.Systolic("cs1", synth.SystolicSpec{Rows: 1, Cols: 1, ActBits: 4, WeightBits: 4, AccBits: 12, Activity: 0.25})
	if err := b.NL.Check(); err != nil {
		t.Fatal(err)
	}
	bd, err := Analyze(p, b.NL, nil, geom.Rect{}, 20e6)
	if err != nil {
		t.Fatal(err)
	}
	if bd.ByModule["cs0"] <= 0 || bd.ByModule["cs1"] <= 0 {
		t.Fatalf("module power missing: %+v", bd.ByModule)
	}
	// Identical twin CSs draw near-identical power.
	ratio := bd.ByModule["cs0"] / bd.ByModule["cs1"]
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("twin CS power ratio = %.2f, want ≈1", ratio)
	}
	// Module totals stay within chip total.
	var sum float64
	for _, w := range bd.ByModule {
		sum += w
	}
	if sum > bd.TotalW*1.0001 {
		t.Errorf("module sum %g exceeds total %g", sum, bd.TotalW)
	}
}

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"cs0_pe_r0c0_mul": "cs0",
		"bank2_p_a":       "bank2",
		"clkroot":         "clkroot",
		"":                "",
	}
	for in, want := range cases {
		if got := moduleOf(in); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", in, got, want)
		}
	}
}
