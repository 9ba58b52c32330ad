package place

import (
	"math"
	"math/rand"

	"m3d/internal/floorplan"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// RefineOptions tunes the detailed-placement refinement.
type RefineOptions struct {
	// Moves is the number of annealing moves to attempt (default
	// 50 × cells).
	Moves int
	// Seed makes refinement deterministic.
	Seed int64
	// StartTemp is the initial temperature in DBU of wirelength (default:
	// one row height).
	StartTemp float64
}

// RefineResult reports the refinement.
type RefineResult struct {
	// HPWLBefore/HPWLAfter bracket the pass.
	HPWLBefore, HPWLAfter int64
	// Accepted counts applied moves.
	Accepted int
}

// Refine runs simulated-annealing detailed placement on the tier's cells:
// same-row adjacent-pair swaps and same-width cross-row swaps, preserving
// legality by construction. It polishes the Tetris legalizer's output (the
// flow's equivalent of a detailed-placement ECO pass). A swap that would
// carry either cell out of its group's region is skipped.
func Refine(f *floorplan.Floorplan, nl *netlist.Netlist, tier tech.Tier, opt RefineOptions) (RefineResult, error) {
	cells := movableOn(nl, tier)
	res := RefineResult{HPWLBefore: nl.TotalHPWL()}
	if len(cells) < 2 {
		res.HPWLAfter = res.HPWLBefore
		return res, nil
	}
	if opt.Moves <= 0 {
		opt.Moves = 50 * len(cells)
	}
	if opt.StartTemp <= 0 {
		opt.StartTemp = float64(f.PDK.RowHeight)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	p := f.PDK

	// netCost: HPWL of all nets touching the given instances. The
	// dedup scratch is epoch-stamped and keyed by the dense Net.ID so the
	// two-calls-per-move hot loop never allocates.
	seen := make([]uint32, len(nl.Nets))
	var epoch uint32
	netCost := func(a, b *netlist.Instance) int64 {
		epoch++
		var c int64
		for _, inst := range [2]*netlist.Instance{a, b} {
			for _, pin := range inst.Pins() {
				n := pin.Net
				if n == nil || n.Clock || seen[n.ID] == epoch {
					continue
				}
				seen[n.ID] = epoch
				c += n.HPWL()
			}
		}
		return c
	}

	temp := opt.StartTemp
	cool := math.Pow(0.01, 1/float64(opt.Moves)) // end at 1% of start temp
	for m := 0; m < opt.Moves; m++ {
		a := cells[rng.Intn(len(cells))]
		b := cells[rng.Intn(len(cells))]
		if a == b {
			continue
		}
		// Legal swap: identical footprints swap anywhere; otherwise skip
		// (keeps the pass trivially legal).
		if a.Width(p) != b.Width(p) || a.Height(p) != b.Height(p) {
			continue
		}
		if !inRegion(f, a, b.Pos) || !inRegion(f, b, a.Pos) {
			continue
		}
		before := netCost(a, b)
		a.Pos, b.Pos = b.Pos, a.Pos
		delta := netCost(a, b) - before
		if delta <= 0 || rng.Float64() < math.Exp(-float64(delta)/temp) {
			res.Accepted++
		} else {
			a.Pos, b.Pos = b.Pos, a.Pos // revert
		}
		temp *= cool
	}
	res.HPWLAfter = nl.TotalHPWL()
	return res, nil
}

// inRegion reports whether c placed at pos lies inside its group's
// region.
func inRegion(f *floorplan.Floorplan, c *netlist.Instance, pos geom.Point) bool {
	w, h := c.Width(f.PDK), c.Height(f.PDK)
	return f.Region(c.Group).ContainsRect(geom.Rect{Lo: pos, Hi: geom.Pt(pos.X+w, pos.Y+h)})
}
