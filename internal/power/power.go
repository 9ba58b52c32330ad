// Package power implements post-route power analysis (the flow's Tempus
// stage): activity-based dynamic power over routed net capacitances, cell
// internal and leakage power from the library characterization, clock-tree
// power, macro access power, a per-tier breakdown (the basis of the paper's
// Obs. 2: the CNFET+RRAM upper layers dissipate <1 % of chip power), and a
// power-density map for thermal analysis.
package power

import (
	"fmt"

	"m3d/internal/cell"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/sta"
	"m3d/internal/tech"
)

// macroAccessRate is the average accesses per cycle per macro port, one
// rate for every design so that macro power compares across designs.
const macroAccessRate = 0.25

// Fraction of an RRAM bank's access energy dissipated in the BEOL layers
// (the cell switching itself plus the CNFET access transistors); the rest
// burns in the Si peripherals (sense amplifiers, drivers, controllers) —
// the paper's Obs. 2 notes the power-hungry peripherals stay in Si CMOS,
// keeping upper-layer power under 1% of the chip total.
const beolAccessFrac = 0.05

// Breakdown is the power report.
type Breakdown struct {
	// SwitchingW is signal-net dynamic power (wire + pin caps + internal).
	SwitchingW float64
	// ClockW is clock-tree dynamic power.
	ClockW float64
	// LeakageW is total static power (cells + macros).
	LeakageW float64
	// MacroW is macro access (read/write event) power.
	MacroW float64
	// TotalW sums everything.
	TotalW float64
	// ByTier splits TotalW across device tiers.
	ByTier map[tech.Tier]float64
	// ByModule splits instance-attributed power by top-level module (the
	// instance-name prefix before the first underscore: cs0, bank2, ...).
	ByModule map[string]float64
	// PeakDensityWPerMM2 is the hottest grid cell's power density.
	PeakDensityWPerMM2 float64
	// Density is the power map used for thermal analysis.
	Density *geom.Grid
}

// UpperTierFraction returns the share of total power in the BEOL tiers
// (RRAM + CNFET) — the quantity the paper's Obs. 2 bounds at <1 %.
func (b *Breakdown) UpperTierFraction() float64 {
	if b.TotalW == 0 {
		return 0
	}
	return (b.ByTier[tech.TierRRAM] + b.ByTier[tech.TierCNFET]) / b.TotalW
}

// Analyze computes the power breakdown of a (placed, ideally routed)
// netlist at the operating frequency clockHz. wm may be nil for a
// pre-route HPWL estimate; die bounds the density map.
func Analyze(p *tech.PDK, nl *netlist.Netlist, wm *sta.WireModel, die geom.Rect, clockHz float64) (*Breakdown, error) {
	if clockHz <= 0 {
		return nil, fmt.Errorf("power: clock frequency must be positive, got %g", clockHz)
	}
	if wm == nil {
		wm = sta.NewWireModel(p, nil)
	}
	if die.Empty() {
		die = geom.R(0, 0, 1_000_000, 1_000_000)
	}

	bd := &Breakdown{
		ByTier:   map[tech.Tier]float64{},
		ByModule: map[string]float64{},
		Density:  geom.NewGrid(die, maxI64(die.W()/32, p.RowHeight)),
	}
	v2 := p.VDD * p.VDD
	f := clockHz

	addInst := func(inst *netlist.Instance, w float64) {
		bd.ByTier[inst.Tier] += w
		bd.ByModule[moduleOf(inst.Name)] += w
		bd.Density.AddRect(inst.Bounds(p), w)
	}

	// Signal switching: per net, activity × f × C × V² charged to the
	// driver, plus the driver's internal switching energy.
	for _, n := range nl.Nets {
		if n.Driver == nil {
			continue
		}
		drv := n.Driver.Inst
		_, cw := wm.NetRC(n)
		cTotal := cw + n.SinkCapF()
		act := n.Activity
		if n.Clock {
			act = 2.0
		}
		wNet := 0.5 * act * f * cTotal * v2
		var wInt float64
		if !drv.IsMacro() {
			k := drv.Cell.Kind
			if k == cell.TieHi || k == cell.TieLo {
				continue // constants do not switch
			}
			wInt = act * f * drv.Cell.SwitchEnergyJ
		}
		if n.Clock {
			bd.ClockW += wNet + wInt
		} else {
			bd.SwitchingW += wNet + wInt
		}
		addInst(drv, wNet+wInt)
	}

	// Leakage and macro access power.
	for _, inst := range nl.Instances {
		if inst.IsMacro() {
			leak := inst.Macro.LeakageW
			bd.LeakageW += leak
			// Peripheral (Si) share vs BEOL share of access power.
			acc := macroAccessRate * f * inst.Macro.AccessEnergyJ
			bd.MacroW += acc
			si := leak + acc*(1-beolAccessFrac)
			beol := acc * beolAccessFrac
			bd.ByTier[tech.TierSiCMOS] += si
			bd.ByTier[inst.Tier] += beol
			bd.ByModule[moduleOf(inst.Name)] += si + beol
			bd.Density.AddRect(inst.Bounds(p), si+beol)
			continue
		}
		bd.LeakageW += inst.Cell.LeakageW
		addInst(inst, inst.Cell.LeakageW)
	}

	bd.TotalW = bd.SwitchingW + bd.ClockW + bd.LeakageW + bd.MacroW

	// Peak density: W per grid cell → W/mm².
	for iy := 0; iy < bd.Density.NY; iy++ {
		for ix := 0; ix < bd.Density.NX; ix++ {
			areaMM2 := float64(bd.Density.CellRect(ix, iy).Area()) / 1e12
			if areaMM2 <= 0 {
				continue
			}
			d := bd.Density.At(ix, iy) / areaMM2
			if d > bd.PeakDensityWPerMM2 {
				bd.PeakDensityWPerMM2 = d
			}
		}
	}
	return bd, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// moduleOf maps an instance name to its top-level module: the prefix
// before the first underscore ("cs0_pe_r0c0_..." → "cs0").
func moduleOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '_' {
			return name[:i]
		}
	}
	return name
}
