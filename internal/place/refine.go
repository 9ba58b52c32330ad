package place

import (
	"math"
	"math/rand"

	"m3d/internal/floorplan"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// refineMovesPerCell is the annealing budget per movable cell: the
// schedule cools to 1% of its start temperature over 50 × cells moves.
const refineMovesPerCell = 50

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
// carry either cell out of its group's region is skipped. The seed makes
// refinement deterministic.
func Refine(f *floorplan.Floorplan, nl *netlist.Netlist, tier tech.Tier, seed int64) (RefineResult, error) {
	cells := movableOn(nl, tier)
	res := RefineResult{HPWLBefore: nl.TotalHPWL()}
	if len(cells) < 2 {
		res.HPWLAfter = res.HPWLBefore
		return res, nil
	}
	moves := refineMovesPerCell * len(cells)
	rng := rand.New(rand.NewSource(seed))
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

	// The start temperature is one row height of wirelength: at first, a
	// swap that adds one row height of HPWL is accepted with probability
	// 1/e.
	temp := float64(p.RowHeight)
	cool := math.Pow(0.01, 1/float64(moves)) // end at 1% of start temp
	for m := 0; m < moves; m++ {
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
