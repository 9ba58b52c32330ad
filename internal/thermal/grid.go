package thermal

import (
	"fmt"

	"m3d/internal/geom"
	"m3d/internal/tech"
)

// The grid solve's fixed settings.
const (
	// lateralKPerW is the thermal resistance between adjacent grid nodes
	// (silicon lateral spreading).
	lateralKPerW = 8.0
	// maxIterations bounds the Gauss–Seidel solve.
	maxIterations = 10000
	// toleranceK is the convergence threshold in kelvin: a sweep that
	// moves no node by 1e-7 K or more ends the solve.
	toleranceK = 1e-7
)

// GridReport is the solved temperature field.
type GridReport struct {
	// PeakRiseK / MeanRiseK summarize the field.
	PeakRiseK, MeanRiseK float64
	// PeakAt locates the hottest node.
	PeakAt geom.Point
	// Field holds per-node temperature rise (K).
	Field *geom.Grid
	// Iterations used.
	Iterations int
	// Feasible is PeakRiseK ≤ the PDK budget.
	Feasible bool
}

// SolveGrid runs a steady-state 2D thermal solve over a power-density map:
// each node dissipates its share of power, conducts laterally to its
// neighbours and vertically to the sink. Compared with Eq. 17's lumped
// stack, this resolves hot spots (the CS clusters of the M3D design).
// tiers is the interleaved pair count Y whose vertical resistance the heat
// crosses (1 for the case study).
func SolveGrid(p *tech.PDK, density *geom.Grid, tiers int) (*GridReport, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("thermal: invalid PDK: %w", err)
	}
	if density == nil {
		return nil, fmt.Errorf("thermal: nil density map")
	}
	if tiers < 1 {
		return nil, fmt.Errorf("thermal: tiers %d must be ≥ 1", tiers)
	}
	nx, ny := density.NX, density.NY
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("thermal: degenerate density map")
	}
	// The whole stack resistance serves the die in parallel across the
	// nodes: each node's resistance to the sink scales with their count.
	verticalKPerW := (p.RthetaSink + float64(tiers)*p.RthetaPerTier) * float64(nx*ny)

	gl := 1 / lateralKPerW
	gv := 1 / verticalKPerW
	temp := make([]float64, nx*ny)

	iter := 0
	for ; iter < maxIterations; iter++ {
		var worst float64
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				i := iy*nx + ix
				sumG := gv
				sumGT := 0.0 // ambient at rise 0 through gv
				if ix > 0 {
					sumG += gl
					sumGT += gl * temp[i-1]
				}
				if ix < nx-1 {
					sumG += gl
					sumGT += gl * temp[i+1]
				}
				if iy > 0 {
					sumG += gl
					sumGT += gl * temp[i-nx]
				}
				if iy < ny-1 {
					sumG += gl
					sumGT += gl * temp[i+nx]
				}
				nv := (sumGT + density.At(ix, iy)) / sumG
				if d := nv - temp[i]; d > worst || -d > worst {
					if d < 0 {
						d = -d
					}
					worst = d
				}
				temp[i] = nv
			}
		}
		if worst < toleranceK {
			break
		}
	}

	rep := &GridReport{Field: geom.NewGrid(density.Region, density.Pitch), Iterations: iter}
	var sum float64
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			v := temp[iy*nx+ix]
			rep.Field.Set(ix, iy, v)
			sum += v
			if v > rep.PeakRiseK {
				rep.PeakRiseK = v
				rep.PeakAt = rep.Field.CellRect(ix, iy).Center()
			}
		}
	}
	rep.MeanRiseK = sum / float64(nx*ny)
	rep.Feasible = rep.PeakRiseK <= p.MaxTempRiseK
	return rep, nil
}
