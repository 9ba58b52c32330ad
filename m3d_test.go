package m3d

import (
	"errors"
	"reflect"
	"testing"
)

// TestPublicAPI exercises the re-exported surface end to end: a downstream
// user's first session with the library.
func TestPublicAPI(t *testing.T) {
	pdk := Default130()
	if pdk.NodeNM != 130 {
		t.Fatal("default PDK wrong")
	}

	am, err := BuildAreaModel(pdk, 64<<23)
	if err != nil {
		t.Fatal(err)
	}
	if am.N() != 8 {
		t.Fatalf("Eq. 2 N = %d, want 8", am.N())
	}

	a2d, a3d, n, err := CaseStudyPair(pdk)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("n = %d", n)
	}
	sp, er, edp, err := a3d.Benefit(a2d, ResNet18())
	if err != nil {
		t.Fatal(err)
	}
	if sp < 4.8 || sp > 6.5 || edp < 4.6 || edp > 6.6 || er < 0.9 || er > 1.1 {
		t.Errorf("headline result off: %.2fx / %.3f / %.2fx", sp, er, edp)
	}

	// Analytical framework direct use.
	params := Params{
		PPeak: 256, B2D: 256, B3D: 8 * 256, N: 8,
		Alpha2D: 0.64e-12, Alpha3D: 0.64e-12, EC: 3e-12, ECIdle: 23e-12,
		EMIdle2D: 1e-12, EMIdle3D: 1e-12,
	}
	res, err := Evaluate(params, Load{F0: 256e6, D0: 1e6, NPart: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup < 7 || res.Speedup > 8.1 {
		t.Errorf("compute-bound speedup = %.2f, want ≈8", res.Speedup)
	}

	// Thermal.
	if MaxThermalTiers(pdk, 2.0) != 6 {
		t.Errorf("max tiers at 2W = %d, want 6", MaxThermalTiers(pdk, 2.0))
	}
	stack := NewThermalStack(pdk, []float64{2, 2})
	if !stack.Feasible(pdk.MaxTempRiseK) {
		t.Error("two 2W pairs should be feasible")
	}

	// Workload zoo.
	if len(Zoo()) != 6 {
		t.Errorf("zoo = %d models", len(Zoo()))
	}
	if ResNet152().Params() < 55_000_000 {
		t.Error("ResNet-152 params wrong")
	}

	// Table II presets.
	for i := 1; i <= 6; i++ {
		a, err := TableII(i)
		if err != nil || a.PPeak() != 1024 {
			t.Errorf("Arch%d broken: %v", i, err)
		}
	}

	// Adaptive design-space exploration.
	space := DSESpace{
		Deltas:    DSEAxis{Min: 1, Max: 2, Steps: 4},
		TierPairs: DSEIntAxis{Min: 1, Max: 2},
		BWScales:  DSEAxis{Min: 1, Max: 4, Steps: 4},
	}
	var rounds int
	dres, err := ExploreDesignSpace(pdk, space, DSEOptions{Seed: 1, MaxEvals: space.GridSize()},
		func(u DSEUpdate) { rounds++ }, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(dres.Frontier) == 0 || rounds != dres.Rounds {
		t.Errorf("DSE: frontier %d, %d callbacks for %d rounds",
			len(dres.Frontier), rounds, dres.Rounds)
	}
	bres, err := BruteForceDesignSpace(pdk, space)
	if err != nil {
		t.Fatal(err)
	}
	ar := &DSEArchive{}
	for _, p := range dres.Frontier {
		ar.Add(p)
	}
	if !ar.Covers(bres.Frontier) {
		t.Error("adaptive frontier must cover the brute-force frontier")
	}
	if top := DSETopK(dres.Frontier, 1); len(top) != 1 {
		t.Errorf("DSETopK: %d points", len(top))
	}

	// Inter-tier variation + Monte-Carlo timing yield.
	if _, err := NewVariationSampler(Variation{SiDriveSigma: 2}, 1); !errors.Is(err, ErrBadSpec) {
		t.Errorf("oversized σ must match ErrBadSpec, got %v", err)
	}
	smp, err := NewVariationSampler(DefaultVariation(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c := smp.Corner(7); c != smp.Corner(7) || len(c.TierScale) != int(NumTiers) {
		t.Error("corner draws must be index-deterministic across tiers")
	}
	nomSmp, err := NewVariationSampler(Variation{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range nomSmp.Corner(3).TierScale {
		if s != 1.0 {
			t.Errorf("σ=0 corner scale = %v, want exactly 1", s)
		}
	}
	band, err := VariationEDPBand(params, am, []Load{{F0: 256e6, D0: 1e6, NPart: 64}},
		DesignPoint{Delta: 1, TierPairs: 1, BWScale: 1}, smp, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !(band.P5 <= band.P50 && band.P50 <= band.P95) {
		t.Errorf("EDP band out of order: %+v", band)
	}
	fres, err := RunFlow(pdk, SoCSpec{Style: Style3D, NumCS: 1, ArrayRows: 2, ArrayCols: 2,
		RRAMCapBits: 1 << 23, Banks: 1, GlobalSRAMBits: 65536, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewYieldEngine(fres, DefaultVariation(), 1)
	if err != nil {
		t.Fatal(err)
	}
	yres, err := eng.Analyze(YieldOptions{Samples: 64}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(yres.CritPathS) != 64 || len(yres.Curve) != len(DefaultYieldPeriods(yres.Nominal.CriticalPathS)) {
		t.Errorf("yield run shape off: %d samples, %d curve points", len(yres.CritPathS), len(yres.Curve))
	}
	for i := 1; i < len(yres.Curve); i++ {
		if yres.Curve[i].Yield < yres.Curve[i-1].Yield {
			t.Error("yield curve must be monotone in period")
		}
	}
	q := QuantilesOf(yres.CritPathS)
	if !(q.P5 <= q.P50 && q.P50 <= q.P95) {
		t.Errorf("critical-path quantiles out of order: %+v", q)
	}
	// One compiled timing binds an engine per seed; the same seed gives
	// the same analysis as NewYieldEngine.
	timing, err := CompileYieldTiming(fres)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{2, 1} {
		bound, err := timing.Engine(DefaultVariation(), seed)
		if err != nil {
			t.Fatal(err)
		}
		bres, err := bound.Analyze(YieldOptions{Samples: 64}, WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if same := reflect.DeepEqual(bres, yres); same != (seed == 1) {
			t.Errorf("seed %d on a compiled YieldTiming: equal to NewYieldEngine's seed-1 run = %v", seed, same)
		}
	}

	// Experiment entry points return data.
	rows, err := Table1(pdk)
	if err != nil || len(rows) != 22 {
		t.Errorf("Table1: %d rows, err %v", len(rows), err)
	}
	f9, err := Fig9(pdk, []int{32, 64})
	if err != nil || len(f9) != 2 {
		t.Errorf("Fig9: %v", err)
	}
	fw, err := FutureWorkUpperLogic(pdk)
	if err != nil || len(fw) != 2 {
		t.Errorf("FutureWork: %v", err)
	}
}

// TestPDKKnobs exercises the With* sweepable options from the top level.
func TestPDKKnobs(t *testing.T) {
	pdk := Default130()
	relaxed := pdk.WithCNFETWidthRelax(1.5)
	if relaxed.CNFETWidthRelax != 1.5 {
		t.Error("δ knob broken")
	}
	scaled := pdk.WithILVPitchScale(1.3)
	if scaled.ILVPitch <= pdk.ILVPitch {
		t.Error("β knob broken")
	}
	if pdk.CNFETWidthRelax != 1.0 {
		t.Error("knobs must not mutate the source PDK")
	}
}
