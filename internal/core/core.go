// Package core is the top-level API of the library: it ties the technology
// model, macro generators, accelerator architecture model, mapping engine,
// analytical framework, thermal model, and physical-design flow together
// into the paper's experiments. Every table and figure of the evaluation
// has a function here that regenerates it.
package core

import (
	"fmt"

	"m3d/internal/analytic"
	"m3d/internal/arch"
	"m3d/internal/cell"
	"m3d/internal/macro"
	"m3d/internal/synth"
	"m3d/internal/tech"
	"m3d/internal/workload"
)

// CaseStudySRAMBits is the per-CS activation buffer capacity (0.5 MB).
const CaseStudySRAMBits = int64(4) << 20

// AreaModel builds the paper's Fig. 6a area decomposition at full scale
// from the technology and macro models: one 16×16 systolic CS (measured by
// elaborating its netlist) plus its SRAM buffer, the RRAM cell-array and
// peripheral areas at the given capacity, and a bus/IO allowance. With the
// default 130 nm PDK and 64 MB this yields γ_cells ≈ 7.8 → N = 8 (Eq. 2).
//
// Measuring the CS (a full netlist elaboration) is nearly all of the
// cost; CaseStudyMachine and Fig9 each measure it once per call.
func AreaModel(p *tech.PDK, rramBits int64) (analytic.AreaModel, error) {
	csArea, err := caseStudyCSAreaNM2(p)
	if err != nil {
		return analytic.AreaModel{}, err
	}
	return areaModelFor(p, csArea, rramBits)
}

// areaModelFor completes AreaModel around an already-measured CS area:
// only the RRAM bank is sized here.
func areaModelFor(p *tech.PDK, csArea float64, rramBits int64) (analytic.AreaModel, error) {
	bank, err := macro.NewRRAMBank(p, macro.RRAMBankSpec{
		CapacityBits: rramBits, WordBits: 256, Style: macro.Style2D,
	})
	if err != nil {
		return analytic.AreaModel{}, err
	}
	am := analytic.AreaModel{
		ACS:    csArea,
		ACells: float64(bank.CellArrayAreaNM2()),
		APerif: float64(bank.PeriphAreaNM2()),
		// Buses, IO ring, clock spine: sized so the grown-2D-baseline
		// thresholds of Obs. 7/8 land where the paper reports them.
		ABusIO: 2 * csArea,
	}
	return am, am.Validate()
}

// caseStudyCSAreaNM2 measures one full-scale computing sub-system: the
// 16×16 systolic array netlist (standard cells) plus its 0.5 MB SRAM
// buffer macro.
func caseStudyCSAreaNM2(p *tech.PDK) (float64, error) {
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		return 0, err
	}
	b := synth.NewBuilder("cs_sizer", lib)
	b.Systolic("cs", synth.SystolicSpec{
		Rows: 16, Cols: 16, ActBits: 8, WeightBits: 8, AccBits: 24, Activity: 0.25,
	})
	b.FSM("ctl", 8, 3)
	st := b.NL.ComputeStats(p)
	var cells int64
	for _, a := range st.CellAreaNM2 {
		cells += a
	}
	sram, err := macro.NewSRAM(p, macro.SRAMSpec{CapacityBits: CaseStudySRAMBits, WordBits: 128})
	if err != nil {
		return 0, err
	}
	return float64(cells + sram.Ref.Area()), nil
}

// Loads converts a model's layers into the analytical framework's (F₀, D₀,
// N#) abstractions for the given baseline accelerator: F₀ is the
// utilization-corrected op count (compute cycles on one CS × P_peak), D₀
// is the activation traffic through the buffer hierarchy, and N# is the
// output-channel tile count.
func Loads(base *arch.Accel, m workload.Model) ([]analytic.Load, error) {
	one := base.WithParallelCS(1)
	if err := one.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	out := make([]analytic.Load, 0, len(m.Layers))
	for _, l := range m.Layers {
		c := one.EvalLayer(l)
		out = append(out, analytic.Load{
			F0:    float64(c.ComputeCycles) * float64(one.PPeak()),
			D0:    float64(l.InputActs()+l.OutputActs()) * float64(one.ActBits),
			NPart: c.NPartitions,
		})
	}
	return out, nil
}

// Params converts a 2D baseline / M3D accelerator pair into the analytical
// framework's machine parameters.
func Params(a2d, a3d *arch.Accel) analytic.Params {
	return analytic.Params{
		PPeak:    float64(a2d.PPeak()),
		B2D:      a2d.ActBWBitsPerCycle,
		B3D:      a3d.ActBWBitsPerCycle * float64(a3d.NumCS),
		N:        a3d.NumCS,
		Alpha2D:  a2d.Energy.SRAMJPerBit,
		Alpha3D:  a3d.Energy.SRAMJPerBit,
		EC:       a2d.Energy.MACJ,
		ECIdle:   a2d.Energy.CSIdleJPerCycle,
		EMIdle2D: a2d.Energy.MemIdleJPerCycle,
		EMIdle3D: a3d.Energy.MemIdleJPerCycle,
	}
}

// CaseStudy is the Sec. II case-study machine: the 64 MB area model,
// the 2D baseline and its M3D twin with N from Eq. 2, their analytical
// parameters, and the ResNet-18 loads on the baseline.
type CaseStudy struct {
	Area     analytic.AreaModel
	A2D, A3D *arch.Accel
	N        int
	Params   analytic.Params
	Loads    []analytic.Load
}

// CaseStudyMachine builds the case-study machine from a single
// measurement of the computing sub-system.
func CaseStudyMachine(p *tech.PDK) (*CaseStudy, error) {
	am, err := AreaModel(p, arch.MB64)
	if err != nil {
		return nil, err
	}
	n := am.N()
	a2d := arch.CaseStudy2D()
	a3d := a2d.WithParallelCS(n)
	a3d.Name = fmt.Sprintf("case-study-M3D-N%d", n)
	loads, err := Loads(a2d, workload.ResNet18())
	if err != nil {
		return nil, err
	}
	return &CaseStudy{Area: am, A2D: a2d, A3D: a3d, N: n, Params: Params(a2d, a3d), Loads: loads}, nil
}

// CaseStudyPair returns the Sec. II 2D baseline and M3D accelerators with
// N derived from the area model (Eq. 2) rather than hard-coded.
func CaseStudyPair(p *tech.PDK) (a2d, a3d *arch.Accel, n int, err error) {
	m, err := CaseStudyMachine(p)
	if err != nil {
		return nil, nil, 0, err
	}
	return m.A2D, m.A3D, m.N, nil
}
