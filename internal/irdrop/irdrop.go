// Package irdrop analyzes static IR drop on the chip's power delivery
// network: the die is modeled as a resistive mesh (the power mesh straps
// on the upper metals), cells inject their average current at the nearest
// mesh node, supply pads pin the mesh boundary to VDD, and a Gauss–Seidel
// solve yields the node voltage map. The M3D concern: stacking more
// compute into the same footprint raises local current density, so the
// flow checks the worst drop stays within budget.
package irdrop

import (
	"fmt"
	"math"

	"m3d/internal/geom"
	"m3d/internal/tech"
)

// The analysis's fixed model of the power grid and its sign-off.
const (
	// meshSpan is the number of power-strap pitches across the die: the
	// mesh scales with the die, so a square die solves 32 × 32 nodes
	// whatever its size.
	meshSpan = 32
	// strapResOhm is the resistance of one mesh segment between adjacent
	// nodes: wide upper-metal straps.
	strapResOhm = 0.4
	// maxIterations bounds the Gauss–Seidel solve.
	maxIterations = 10000
	// toleranceV is the convergence threshold in volts: a sweep that moves
	// no node by 1 nV or more ends the solve.
	toleranceV = 1e-9
	// dropBudgetFrac is the allowed drop as a fraction of VDD, the usual
	// 5% static IR-drop sign-off limit.
	dropBudgetFrac = 0.05
)

// Report is the IR-drop result.
type Report struct {
	// WorstDropV is the largest VDD-to-node drop.
	WorstDropV float64
	// WorstAt is the location of the worst node.
	WorstAt geom.Point
	// MeanDropV averages over all nodes.
	MeanDropV float64
	// BudgetV is the allowed drop; Pass reports WorstDropV <= BudgetV.
	BudgetV float64
	Pass    bool
	// Iterations used by the solver.
	Iterations int
	// VoltageMap holds the solved node voltages.
	VoltageMap *geom.Grid
}

// Analyze solves the mesh for the given power-density map (total watts
// distributed over the die, as produced by the power package).
func Analyze(p *tech.PDK, die geom.Rect, density *geom.Grid) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("irdrop: invalid PDK: %w", err)
	}
	if die.Empty() {
		return nil, fmt.Errorf("irdrop: empty die")
	}
	if density == nil {
		return nil, fmt.Errorf("irdrop: nil power density map")
	}
	pitch := die.W() / meshSpan
	if pitch < 1 {
		pitch = 1
	}
	mesh := geom.NewGrid(die, pitch)
	nx, ny := mesh.NX, mesh.NY
	if nx < 2 || ny < 2 {
		return nil, fmt.Errorf("irdrop: mesh %dx%d too coarse", nx, ny)
	}

	// Current injection per mesh node: map the density grid onto the mesh.
	inj := make([]float64, nx*ny)
	for iy := 0; iy < density.NY; iy++ {
		for ix := 0; ix < density.NX; ix++ {
			w := density.At(ix, iy)
			if w <= 0 {
				continue
			}
			c := density.CellRect(ix, iy).Center()
			mx, my := mesh.CellOf(c)
			inj[my*nx+mx] += w / p.VDD
		}
	}

	// Pads: the full die boundary ring is pinned to VDD (a pad ring).
	pad := func(ix, iy int) bool {
		return ix == 0 || iy == 0 || ix == nx-1 || iy == ny-1
	}

	g := 1 / strapResOhm
	v := make([]float64, nx*ny)
	for i := range v {
		v[i] = p.VDD
	}

	iter := 0
	for ; iter < maxIterations; iter++ {
		var worstDelta float64
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				if pad(ix, iy) {
					continue
				}
				i := iy*nx + ix
				var sumG, sumGV float64
				if ix > 0 {
					sumG += g
					sumGV += g * v[i-1]
				}
				if ix < nx-1 {
					sumG += g
					sumGV += g * v[i+1]
				}
				if iy > 0 {
					sumG += g
					sumGV += g * v[i-nx]
				}
				if iy < ny-1 {
					sumG += g
					sumGV += g * v[i+nx]
				}
				nv := (sumGV - inj[i]) / sumG
				if d := math.Abs(nv - v[i]); d > worstDelta {
					worstDelta = d
				}
				v[i] = nv
			}
		}
		if worstDelta < toleranceV {
			break
		}
	}

	rep := &Report{
		BudgetV:    p.VDD * dropBudgetFrac,
		Iterations: iter,
		VoltageMap: mesh,
	}
	var sum float64
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			drop := p.VDD - v[iy*nx+ix]
			mesh.Set(ix, iy, v[iy*nx+ix])
			sum += drop
			if drop > rep.WorstDropV {
				rep.WorstDropV = drop
				rep.WorstAt = mesh.CellRect(ix, iy).Center()
			}
		}
	}
	rep.MeanDropV = sum / float64(nx*ny)
	rep.Pass = rep.WorstDropV <= rep.BudgetV
	return rep, nil
}
