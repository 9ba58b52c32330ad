package core

import (
	"fmt"
	"math"

	"m3d/internal/analytic"
	"m3d/internal/tech"
)

// FutureWorkRow is one design point of the upper-layer-logic study.
type FutureWorkRow struct {
	Name string
	// NSi / NCN are computing sub-systems on the Si and CNFET tiers.
	NSi, NCN   int
	Speedup    float64
	EDPBenefit float64
}

// cnfetCSEnergyPenalty is the per-op energy penalty of a CNFET-tier CS:
// the BEOL device has lower drive, so iso-frequency operation needs wider
// (higher-capacitance) gates.
const cnfetCSEnergyPenalty = 0.15

// FutureWorkUpperLogic evaluates the paper's conclusion point (2): "these
// benefits ... will grow with further performance optimization (e.g., full
// CMOS on upper layers)". Beyond the case study's 8 Si-tier CSs, the CNFET
// tier's area outside the RRAM arrays hosts additional CSs built from the
// (weaker) BEOL library. Returns the case-study point and the
// upper-logic point on ResNet-18.
func FutureWorkUpperLogic(p *tech.PDK) ([]FutureWorkRow, error) {
	m, err := CaseStudyMachine(p)
	if err != nil {
		return nil, err
	}
	am, a2d, nSi := m.Area, m.A2D, m.N

	// Case-study point.
	res, err := analytic.EvaluateMany(m.Params, m.Loads)
	if err != nil {
		return nil, err
	}
	rows := []FutureWorkRow{{
		Name: "Si-tier CSs only (case study)", NSi: nSi, NCN: 0,
		Speedup: res.Speedup, EDPBenefit: res.EDPBenefit,
	}}

	// Upper-logic point: the CNFET tier is free outside the RRAM arrays.
	// CNFET CSs are drawn wider to meet the same 20 MHz clock, costing
	// area and energy.
	freeCN := am.Total2D() - am.ACells
	widthPenalty := p.SiFET.IonUAPerUm / p.CNFET.IonUAPerUm // iso-drive sizing
	nCN := int(math.Floor(freeCN / (am.ACS * widthPenalty)))
	if nCN < 0 {
		nCN = 0
	}
	n := nSi + nCN
	upper := a2d.WithParallelCS(n)
	params := Params(a2d, upper)
	// Energy penalty applies to the CNFET share of compute.
	frac := float64(nCN) / float64(n)
	params.EC *= 1 + cnfetCSEnergyPenalty*frac
	params.ECIdle *= 1 + cnfetCSEnergyPenalty*frac
	res, err = analytic.EvaluateMany(params, m.Loads)
	if err != nil {
		return nil, err
	}
	rows = append(rows, FutureWorkRow{
		Name: fmt.Sprintf("+ CNFET-tier logic (%d upper CSs)", nCN),
		NSi:  nSi, NCN: nCN,
		Speedup: res.Speedup, EDPBenefit: res.EDPBenefit,
	})
	return rows, nil
}
