package core

import (
	"context"
	"fmt"
	"math"

	"m3d/internal/analytic"
	"m3d/internal/arch"
	"m3d/internal/errs"
	"m3d/internal/exec"
	"m3d/internal/mapper"
	"m3d/internal/obs"
	"m3d/internal/tech"
	"m3d/internal/thermal"
	"m3d/internal/workload"
)

// span opens an experiment entry-point span on the resolved settings'
// tracer; call the returned func to end it. With no tracer attached it is
// a no-op.
func span(st *exec.Settings, name string, attrs ...obs.Attr) func() {
	if st.Tracer == nil {
		return func() {}
	}
	sp := st.Tracer.StartSpan(name, attrs...)
	return sp.End
}

// BenefitRow is one speedup/energy/EDP comparison row.
type BenefitRow struct {
	Name        string
	Speedup     float64
	EnergyRatio float64 // baseline ÷ M3D (≈0.99 in the paper)
	EDPBenefit  float64
}

// Table1 reproduces Table I: per-layer ResNet-18 benefits of the
// iso-footprint, iso-on-chip-memory-capacity M3D accelerator, plus the
// total row. The shared exec.Option surface attaches tracing/metrics
// (the evaluation itself is serial).
func Table1(p *tech.PDK, opts ...exec.Option) ([]BenefitRow, error) {
	defer span(exec.Resolve(opts...), "core.table1")()
	a2d, a3d, _, err := CaseStudyPair(p)
	if err != nil {
		return nil, err
	}
	m := workload.ResNet18()
	var rows []BenefitRow
	var t2, t3, e2, e3 float64
	for _, l := range m.Layers {
		c2 := a2d.EvalLayer(l)
		c3 := a3d.EvalLayer(l)
		sp := float64(c2.Cycles) / float64(c3.Cycles)
		er := c2.EnergyJ / c3.EnergyJ
		rows = append(rows, BenefitRow{
			Name: l.Name, Speedup: sp, EnergyRatio: er, EDPBenefit: sp * er,
		})
		t2 += float64(c2.Cycles)
		t3 += float64(c3.Cycles)
		e2 += c2.EnergyJ
		e3 += c3.EnergyJ
	}
	sp := t2 / t3
	rows = append(rows, BenefitRow{
		Name: "Total", Speedup: sp, EnergyRatio: e2 / e3, EDPBenefit: sp * e2 / e3,
	})
	return rows, nil
}

// Fig5 reproduces Fig. 5: whole-model benefits across the workload zoo.
func Fig5(p *tech.PDK, opts ...exec.Option) ([]BenefitRow, error) {
	defer span(exec.Resolve(opts...), "core.fig5")()
	a2d, a3d, _, err := CaseStudyPair(p)
	if err != nil {
		return nil, err
	}
	var rows []BenefitRow
	for _, m := range workload.Zoo() {
		sp, er, edp, err := a3d.Benefit(a2d, m)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", m.Name, err)
		}
		rows = append(rows, BenefitRow{Name: m.Name, Speedup: sp, EnergyRatio: er, EDPBenefit: edp})
	}
	return rows, nil
}

// Fig7Row is one Fig. 7 architecture comparison: the M3D benefit under the
// mapping engine (the paper's ZigZag bars) and under the analytical model,
// with their relative difference.
type Fig7Row struct {
	Arch            string
	Mapper          BenefitRow
	Analytic        BenefitRow
	RelativeEDPDiff float64
}

// Fig7 reproduces Fig. 7: the six Table II architectures on AlexNet's
// convolutional layers, evaluated both by the mapping engine and by the
// analytical framework. The paper's claim: the two agree within 10%. The
// fully-connected layers are excluded (standard practice for spatial
// conv-accelerator comparisons): they are weight-bandwidth-bound, which
// the framework's single-D₀ roofline does not model.
func Fig7(p *tech.PDK, opts ...exec.Option) ([]Fig7Row, error) {
	defer span(exec.Resolve(opts...), "core.fig7")()
	am, err := AreaModel(p, int64(256)<<23)
	if err != nil {
		return nil, err
	}
	// Table II architectures are normalized to 4 case-study CSs worth of
	// PEs, so the freed-area CS count scales accordingly.
	n := am.N() / 4
	if n < 2 {
		n = 2
	}
	alex := workload.AlexNet()
	var convs []workload.Layer
	for _, l := range alex.Layers {
		if l.Type != workload.FC {
			convs = append(convs, l)
		}
	}
	alex = workload.Model{Name: "AlexNet-conv", Layers: convs}
	var rows []Fig7Row
	for i, base := range arch.AllTableII() {
		m3d := base.WithParallelCS(n)

		spM, erM, edpM, err := mapper.Benefit(m3d, base, alex)
		if err != nil {
			return nil, fmt.Errorf("core: Arch%d mapper: %w", i+1, err)
		}
		loads, err := Loads(base, alex)
		if err != nil {
			return nil, err
		}
		res, err := analytic.EvaluateMany(Params(base, m3d), loads)
		if err != nil {
			return nil, fmt.Errorf("core: Arch%d analytic: %w", i+1, err)
		}
		row := Fig7Row{
			Arch:     base.Name,
			Mapper:   BenefitRow{Name: "mapper", Speedup: spM, EnergyRatio: erM, EDPBenefit: edpM},
			Analytic: BenefitRow{Name: "analytic", Speedup: res.Speedup, EnergyRatio: res.EnergyRatio, EDPBenefit: res.EDPBenefit},
		}
		row.RelativeEDPDiff = math.Abs(row.Analytic.EDPBenefit-row.Mapper.EDPBenefit) / row.Mapper.EDPBenefit
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig8Machine is the Fig. 8 reference machine: the case-study 2D baseline
// evaluated against its single-CS self, so a sweep's N and bandwidth come
// entirely from the swept axes.
func Fig8Machine() analytic.Params {
	a2d := arch.CaseStudy2D()
	return Params(a2d, a2d.WithParallelCS(1))
}

// Fig. 8's compute-bound load and axes, the defaults of the served
// bandwidth_cs sweep. Callers must not modify the slices.
var (
	// Fig8ComputeBound is the compute-bound load (16 ops/bit).
	Fig8ComputeBound = analytic.Load{F0: 16e6, D0: 1e6, NPart: 64}
	// Fig8CSCounts is the CS-count axis.
	Fig8CSCounts = []int{1, 2, 4, 8, 16}
	// Fig8BWScales is the bandwidth-scale axis.
	Fig8BWScales = []float64{1, 2, 4, 8, 16}
)

// Fig8 reproduces the Fig. 8 sweeps: EDP benefit vs (CS count, bandwidth
// scale) for a compute-bound (16 ops/bit) and a memory-bound (16 bits/op)
// workload. Both grids run on the exec worker pool (exec.Option controls
// width/cancellation) with deterministic, serial-identical output order.
func Fig8(p *tech.PDK, opts ...exec.Option) (computeBound, memoryBound []analytic.SweepPoint, err error) {
	defer span(exec.Resolve(opts...), "core.fig8")()
	params := Fig8Machine()
	mb := analytic.Load{F0: 1e6, D0: 16e6, NPart: 64}
	computeBound, err = analytic.SweepBandwidthCS(params, Fig8ComputeBound, Fig8CSCounts, Fig8BWScales, opts...)
	if err != nil {
		return nil, nil, err
	}
	memoryBound, err = analytic.SweepBandwidthCS(params, mb, Fig8CSCounts, Fig8BWScales, opts...)
	if err != nil {
		return nil, nil, err
	}
	return computeBound, memoryBound, nil
}

// Fig9Row is one RRAM-capacity point of Fig. 9.
type Fig9Row struct {
	CapacityMB int
	N          int
	EDPBenefit float64
}

// Fig9 reproduces Fig. 9: ResNet-18 M3D EDP benefit as the (iso) on-chip
// RRAM capacity of both designs grows from 12 MB to 128 MB — more freed Si
// under the arrays means more parallel CSs (Obs. 6).
func Fig9(p *tech.PDK, capacitiesMB []int, opts ...exec.Option) ([]Fig9Row, error) {
	if len(capacitiesMB) == 0 {
		capacitiesMB = []int{12, 16, 32, 64, 96, 128}
	}
	for _, mb := range capacitiesMB {
		if mb <= 0 {
			return nil, fmt.Errorf("core: capacity %d MB must be positive: %w", mb, errs.ErrBadSpec)
		}
	}
	m := workload.ResNet18()
	st := exec.Resolve(opts...)
	if st.Label == "" {
		st.Label = "core.fig9.point"
	}
	defer span(st, "core.fig9", obs.Int("points", len(capacitiesMB)))()
	// The CS is the same at every capacity: measure it once, then size
	// only each point's RRAM bank.
	csArea, err := caseStudyCSAreaNM2(p)
	if err != nil {
		return nil, err
	}
	return exec.MapWith(st, capacitiesMB, func(_ context.Context, _ int, mb int) (Fig9Row, error) {
		bits := int64(mb) << 23
		am, err := areaModelFor(p, csArea, bits)
		if err != nil {
			return Fig9Row{}, err
		}
		n := am.N()
		a2d := arch.CaseStudy2D()
		a2d.RRAMCapBits = bits
		a3d := a2d.WithParallelCS(n)
		_, _, edp, err := a3d.Benefit(a2d, m)
		if err != nil {
			return Fig9Row{}, err
		}
		return Fig9Row{CapacityMB: mb, N: n, EDPBenefit: edp}, nil
	})
}

// Fig10Row is one δ (or β) point of Fig. 10b-c / Obs. 8.
type Fig10Row struct {
	Delta      float64 // effective cell-area relaxation
	Beta       float64 // via-pitch scale (Case 2 rows only)
	N3D        int
	N2DNew     int
	EDPBenefit float64
}

// Fig10bc reproduces Fig. 10b-c: CS counts and EDP benefit vs the BEOL
// memory access FET width relaxation δ (Case 1), on ResNet-18.
func Fig10bc(p *tech.PDK, deltas []float64, opts ...exec.Option) ([]Fig10Row, error) {
	if len(deltas) == 0 {
		deltas = []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.25, 2.5}
	}
	m, err := CaseStudyMachine(p)
	if err != nil {
		return nil, err
	}
	st := exec.Resolve(opts...)
	if st.Label == "" {
		st.Label = "core.fig10bc.point"
	}
	defer span(st, "core.fig10bc", obs.Int("points", len(deltas)))()
	return exec.MapWith(st, deltas, func(_ context.Context, _ int, d float64) (Fig10Row, error) {
		res, geo, err := analytic.Case1Benefit(m.Params, m.Area, m.Loads, d)
		if err != nil {
			return Fig10Row{}, err
		}
		return Fig10Row{
			Delta: d, N3D: geo.N3D, N2DNew: geo.N2DNew, EDPBenefit: res.EDPBenefit,
		}, nil
	})
}

// Obs8 reproduces the via-pitch study: EDP benefit vs β (Case 2), on
// ResNet-18, using the PDK's via-limited cell geometry.
func Obs8(p *tech.PDK, betas []float64, opts ...exec.Option) ([]Fig10Row, error) {
	if len(betas) == 0 {
		betas = []float64{1.0, 1.1, 1.2, 1.3, 1.4, 1.6, 2.0}
	}
	m, err := CaseStudyMachine(p)
	if err != nil {
		return nil, err
	}
	viasPerCell, ilvPitch, bitcell := p.RRAM.ViasPerCell, float64(p.ILVPitch), float64(p.BitcellArea2D())
	st := exec.Resolve(opts...)
	if st.Label == "" {
		st.Label = "core.obs8.point"
	}
	defer span(st, "core.obs8", obs.Int("points", len(betas)))()
	return exec.MapWith(st, betas, func(_ context.Context, _ int, b float64) (Fig10Row, error) {
		res, geo, err := analytic.Case2Benefit(m.Params, m.Area, m.Loads, b,
			viasPerCell, ilvPitch, bitcell)
		if err != nil {
			return Fig10Row{}, err
		}
		return Fig10Row{
			Delta: geo.Delta, Beta: b, N3D: geo.N3D, N2DNew: geo.N2DNew,
			EDPBenefit: res.EDPBenefit,
		}, nil
	})
}

// Fig10dRow is one interleaved-tier point.
type Fig10dRow struct {
	Y          int
	N          int
	EDPBenefit float64
	TempRiseK  float64
	Thermal    bool // within the PDK's temperature budget
}

// Fig10d reproduces Fig. 10d / Obs. 9-10: EDP benefit vs the number of
// interleaved compute+memory tier pairs Y, with the Eq. 17 temperature rise
// of each stack (perTierPowerW dissipated per pair).
func Fig10d(p *tech.PDK, ys []int, perTierPowerW float64, opts ...exec.Option) ([]Fig10dRow, error) {
	if len(ys) == 0 {
		ys = []int{1, 2, 3, 4, 6, 8}
	}
	if perTierPowerW <= 0 {
		perTierPowerW = 2.0
	}
	m, err := CaseStudyMachine(p)
	if err != nil {
		return nil, err
	}
	st := exec.Resolve(opts...)
	if st.Label == "" {
		st.Label = "core.fig10d.point"
	}
	defer span(st, "core.fig10d", obs.Int("points", len(ys)))()
	return exec.MapWith(st, ys, func(_ context.Context, _ int, y int) (Fig10dRow, error) {
		res, n, err := analytic.Case3Benefit(m.Params, m.Area, m.Loads, y)
		if err != nil {
			return Fig10dRow{}, err
		}
		powers := make([]float64, y)
		for i := range powers {
			powers[i] = perTierPowerW
		}
		stack := thermal.NewStack(p, powers)
		return Fig10dRow{
			Y: y, N: n, EDPBenefit: res.EDPBenefit,
			TempRiseK: stack.TempRiseK(),
			Thermal:   stack.Feasible(p.MaxTempRiseK),
		}, nil
	})
}

// Obs3 reproduces Observation 3: replacing the 2D baseline's RRAM with a
// 2× less dense SRAM grows the baseline, so the iso-footprint M3D design
// hosts ~2× the CSs and the EDP benefit rises (8→16 CSs, 5.7×→6.8× in the
// paper).
func Obs3(p *tech.PDK, opts ...exec.Option) (rramBased, sramBased BenefitRow, err error) {
	defer span(exec.Resolve(opts...), "core.obs3")()
	cs, err := CaseStudyMachine(p)
	if err != nil {
		return BenefitRow{}, BenefitRow{}, err
	}
	m := workload.ResNet18()
	sp, er, edp, err := cs.A3D.Benefit(cs.A2D, m)
	if err != nil {
		return BenefitRow{}, BenefitRow{}, err
	}
	rramBased = BenefitRow{Name: fmt.Sprintf("RRAM 2D baseline (N=%d)", cs.N),
		Speedup: sp, EnergyRatio: er, EDPBenefit: edp}

	// SRAM baseline: memory area doubles, freeing twice the Si in M3D.
	am := cs.Area
	am.ACells *= 2
	n2 := am.N()
	a3dSRAM := cs.A2D.WithParallelCS(n2)
	sp, er, edp, err = a3dSRAM.Benefit(cs.A2D, m)
	if err != nil {
		return BenefitRow{}, BenefitRow{}, err
	}
	sramBased = BenefitRow{Name: fmt.Sprintf("SRAM 2D baseline (N=%d)", n2),
		Speedup: sp, EnergyRatio: er, EDPBenefit: edp}
	return rramBased, sramBased, nil
}
