// Package place implements the placement stage of the flow: min-cut tier
// assignment for M3D designs (Fiduccia–Mattheyses style bi-partitioning),
// force-directed global placement with density spreading around macro
// blockages, and Tetris-style row legalization. It owns the
// placement-legality rules (Audit): the flow checks them after
// legalization (CheckLegal) and drc reports them at sign-off.
//
// Every stage fences each instance group (netlist.Instance.Group) inside
// its floorplan region (floorplan.Floorplan.Region); ungrouped cells and
// every cell of a design with one region get the die.
package place

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"m3d/internal/floorplan"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// The global placer's fixed recipe.
const (
	// iterations is the number of attraction/spreading rounds; the
	// attraction step cools linearly to zero over them.
	iterations = 24
	// targetDensity is the bin utilization ceiling spreading enforces; the
	// slack leaves room for legalization and clock buffers.
	targetDensity = 0.75
)

// Result reports placement quality.
type Result struct {
	// HPWL is the post-placement half-perimeter wirelength (DBU).
	HPWL int64
	// Cells is the number of cells placed.
	Cells int
}

// maxFanoutForForces excludes huge nets (clock, resets) from attraction.
const maxFanoutForForces = 32

// Global places the movable cells of the given tier inside the floorplan
// using iterative net attraction plus density spreading, then legalizes
// them onto rows. Fixed instances and macros are respected as blockages,
// and every cell stays inside its group's region. The seed makes
// placement deterministic.
func Global(f *floorplan.Floorplan, nl *netlist.Netlist, tier tech.Tier, seed int64) (Result, error) {
	cells := movableOn(nl, tier)
	if len(cells) == 0 {
		return Result{}, nil
	}
	p := f.PDK
	rng := rand.New(rand.NewSource(seed))

	// Initial spread: jitter around the centre of each cell's region.
	die := f.Die
	for _, c := range cells {
		r := f.Region(c.Group)
		c.Pos = geom.Pt(
			r.Center().X+int64(rng.NormFloat64()*float64(r.W())/8),
			r.Center().Y+int64(rng.NormFloat64()*float64(r.H())/8),
		)
		clampInto(c, r, p)
	}

	binPitch := die.W() / 48
	if binPitch < 4*p.RowHeight {
		binPitch = 4 * p.RowHeight
	}
	blocked := f.DensityGrid(tier)

	for it := 0; it < iterations; it++ {
		// Attraction: move every cell toward the centroid of its connected
		// pins, with a cooling factor. The sweep is Gauss-Seidel: each move
		// reads the live positions of the cells moved before it.
		alpha := 0.8 * (1 - float64(it)/float64(iterations+1))
		for _, c := range cells {
			sx, sy, n := int64(0), int64(0), 0
			accum := func(other *netlist.Pin) {
				if other.Inst == c {
					return
				}
				loc := other.Loc()
				sx += loc.X
				sy += loc.Y
				n++
			}
			for _, pin := range c.Pins() {
				net := pin.Net
				if net == nil || net.Clock || len(net.Sinks)+1 > maxFanoutForForces {
					continue
				}
				if net.Driver != nil {
					accum(net.Driver)
				}
				for _, other := range net.Sinks {
					accum(other)
				}
			}
			if n == 0 {
				continue
			}
			tx := float64(sx)/float64(n) - float64(c.Pos.X)
			ty := float64(sy)/float64(n) - float64(c.Pos.Y)
			c.Pos = geom.Pt(c.Pos.X+int64(alpha*tx), c.Pos.Y+int64(alpha*ty))
			clampInto(c, f.Region(c.Group), p)
		}
		// Density spreading: push cells out of over-full / blocked bins.
		// Serial on purpose: its RNG draws are consumed in sorted-bin
		// order and gated on bin occupancy, a sequential stream that any
		// reordering would change (and the goldens with it).
		spread(cells, f, tier, binPitch, blocked, rng)
	}

	if err := Legalize(f, nl, tier); err != nil {
		return Result{}, err
	}
	return Result{HPWL: nl.TotalHPWL(), Cells: len(cells)}, nil
}

func movableOn(nl *netlist.Netlist, tier tech.Tier) []*netlist.Instance {
	var out []*netlist.Instance
	for _, inst := range nl.MovableCells() {
		if inst.Tier == tier {
			out = append(out, inst)
		}
	}
	return out
}

// clampInto moves c the least distance that puts it inside r.
func clampInto(c *netlist.Instance, r geom.Rect, p *tech.PDK) {
	w, h := c.Width(p), c.Height(p)
	if c.Pos.X < r.Lo.X {
		c.Pos.X = r.Lo.X
	}
	if c.Pos.Y < r.Lo.Y {
		c.Pos.Y = r.Lo.Y
	}
	if c.Pos.X+w > r.Hi.X {
		c.Pos.X = r.Hi.X - w
	}
	if c.Pos.Y+h > r.Hi.Y {
		c.Pos.Y = r.Hi.Y - h
	}
}

// neighbour is one candidate destination bin of spread.
type neighbour struct {
	score float64
	rect  geom.Rect
}

// spread relieves over-dense bins by moving cells toward the least dense
// neighbouring bin whose centre lies in the cell's region; a moved cell
// lands inside both the bin and its region. Density counts every cell,
// whatever its group.
func spread(cells []*netlist.Instance, f *floorplan.Floorplan, tier tech.Tier,
	binPitch int64, blocked *geom.Grid, rng *rand.Rand) {

	p := f.PDK
	g := geom.NewGrid(f.Die, binPitch)
	nbins := g.NX * g.NY
	binOf := make([]int, len(cells)) // row-major bin index of each cell
	start := make([]int, nbins+1)
	for i, c := range cells {
		ix, iy := g.CellOf(c.Pos)
		g.Add(ix, iy, float64(c.AreaNM2(p)))
		binOf[i] = iy*g.NX + ix
		start[binOf[i]+1]++
	}
	// Stable counting sort by bin index: the bins come in (y, x) order and
	// the cells of a bin in their given order, so the RNG draws below
	// follow one fixed sequence. Bin b holds binned[start[b]:start[b+1]].
	for b := 0; b < nbins; b++ {
		start[b+1] += start[b]
	}
	binned := make([]*netlist.Instance, len(cells))
	next := make([]int, nbins)
	copy(next, start)
	for i, b := range binOf {
		binned[next[b]] = cells[i]
		next[b]++
	}
	var nbrs []neighbour
	for b := 0; b < nbins; b++ {
		cs := binned[start[b]:start[b+1]]
		if len(cs) == 0 {
			continue
		}
		ix, iy := b%g.NX, b/g.NX
		cellRect := g.CellRect(ix, iy)
		capArea := float64(cellRect.Area())
		// Subtract blocked fraction (sampled from the floorplan grid).
		bx, by := blocked.CellOf(cellRect.Center())
		avail := capArea * (1 - blocked.At(bx, by)) * targetDensity
		used := g.At(ix, iy)
		if used <= avail || avail <= 0 && used == 0 {
			continue
		}
		// Move the overflow (random subset) toward the least-used neighbour.
		moveFrac := 1 - avail/used
		if avail <= 0 {
			moveFrac = 1
		}
		nbrs = nbrs[:0]
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				jx, jy := ix+dx, iy+dy
				if (dx == 0 && dy == 0) || !g.InBounds(jx, jy) {
					continue
				}
				nr := g.CellRect(jx, jy)
				nbx, nby := blocked.CellOf(nr.Center())
				navail := float64(nr.Area()) * (1 - blocked.At(nbx, nby)) * targetDensity
				if navail <= 0 {
					continue
				}
				nbrs = append(nbrs, neighbour{score: g.At(jx, jy) / navail, rect: nr})
			}
		}
		for _, c := range cs {
			r := f.Region(c.Group)
			best := -1
			for i, nb := range nbrs {
				if r.Contains(nb.rect.Center()) && (best < 0 || nb.score < nbrs[best].score) {
					best = i
				}
			}
			if best < 0 {
				continue
			}
			if rng.Float64() > moveFrac {
				continue
			}
			dst := nbrs[best].rect.Intersect(r)
			c.Pos = geom.Pt(
				dst.Lo.X+rng.Int63n(max64(dst.W(), 1)),
				dst.Lo.Y+rng.Int63n(max64(dst.H(), 1)),
			)
			clampInto(c, r, p)
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// segment is a free interval of one placement row.
type segment struct {
	x0, x1 int64
	cursor int64
}

// Legalize snaps the tier's movable cells onto rows and sites, avoiding
// blockages and overlaps, minimizing displacement greedily (Tetris style).
// A cell takes the nearest slot inside its group's region; only when the
// region has no slot left does it take the nearest slot anywhere on the
// die.
func Legalize(f *floorplan.Floorplan, nl *netlist.Netlist, tier tech.Tier) error {
	p := f.PDK
	cells := movableOn(nl, tier)
	if len(cells) == 0 {
		return nil
	}
	rows := f.Rows()
	if len(rows) == 0 {
		return fmt.Errorf("place: floorplan has no rows")
	}
	blocks := f.Blockages(tier)
	var regions []geom.Rect
	for _, c := range cells {
		if r := f.Region(c.Group); !slices.Contains(regions, r) {
			regions = append(regions, r)
		}
	}

	// Build free segments per row, split at the region edges that cross
	// the row so that no segment straddles two regions.
	segsPerRow := make([][]segment, len(rows))
	for i, r := range rows {
		rowRect := geom.R(r.X0, r.Y, r.X1, r.Y+p.RowHeight)
		var cuts []geom.Rect
		for _, b := range blocks {
			if b.Overlaps(rowRect) {
				cuts = append(cuts, b)
			}
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a].Lo.X < cuts[b].Lo.X })
		var edges []int64
		for _, reg := range regions {
			if reg.Lo.Y <= r.Y && r.Y+p.RowHeight <= reg.Hi.Y {
				edges = append(edges, reg.Lo.X, reg.Hi.X)
			}
		}
		slices.Sort(edges)
		free := func(x0, x1 int64) {
			for _, e := range edges {
				if x0 < e && e < x1 {
					segsPerRow[i] = append(segsPerRow[i], segment{x0: x0, x1: e, cursor: x0})
					x0 = e
				}
			}
			segsPerRow[i] = append(segsPerRow[i], segment{x0: x0, x1: x1, cursor: x0})
		}
		x := r.X0
		for _, cRect := range cuts {
			if cRect.Lo.X > x {
				free(x, cRect.Lo.X)
			}
			if cRect.Hi.X > x {
				x = cRect.Hi.X
			}
		}
		if x < r.X1 {
			free(x, r.X1)
		}
	}

	// Place cells in x order.
	order := append([]*netlist.Instance(nil), cells...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Pos.X < order[j].Pos.X })

	rowOf := func(y int64) int {
		i := int((y - rows[0].Y) / p.RowHeight)
		if i < 0 {
			i = 0
		}
		if i >= len(rows) {
			i = len(rows) - 1
		}
		return i
	}

	// nearest returns the cheapest slot for c among the segments inside
	// area, or bestRow -1 when none has room.
	nearest := func(c *netlist.Instance, area geom.Rect) (bestRow, bestSeg int) {
		w := c.Width(p)
		home := rowOf(c.Pos.Y)
		bestCost := int64(math.MaxInt64)
		bestRow, bestSeg = -1, -1
		// Expanding row search; break once the row distance alone exceeds
		// the best cost so far.
		for d := 0; d < len(rows); d++ {
			progressed := false
			for _, ri := range []int{home - d, home + d} {
				if ri < 0 || ri >= len(rows) || (d == 0 && ri != home) {
					continue
				}
				progressed = true
				rowDist := int64(d) * p.RowHeight
				if rowDist >= bestCost || rows[ri].Y < area.Lo.Y || rows[ri].Y+p.RowHeight > area.Hi.Y {
					continue
				}
				for si := range segsPerRow[ri] {
					s := &segsPerRow[ri][si]
					if s.x0 < area.Lo.X || s.x1 > area.Hi.X {
						continue
					}
					x := snapUp(s.cursor-f.Die.Lo.X, p.SiteWidth) + f.Die.Lo.X
					if s.x1-x < w {
						continue
					}
					cost := rowDist + abs64(x-c.Pos.X)
					if cost < bestCost {
						bestCost, bestRow, bestSeg = cost, ri, si
					}
				}
			}
			if !progressed || (bestRow >= 0 && int64(d)*p.RowHeight > bestCost) {
				break
			}
		}
		return bestRow, bestSeg
	}

	for _, c := range order {
		bestRow, bestSeg := nearest(c, f.Region(c.Group))
		if bestRow < 0 {
			bestRow, bestSeg = nearest(c, f.Die)
		}
		if bestRow < 0 {
			return fmt.Errorf("place: no legal slot for %s (width %d) on tier %v", c.Name, c.Width(p), tier)
		}
		s := &segsPerRow[bestRow][bestSeg]
		x := snapUp(s.cursor-f.Die.Lo.X, p.SiteWidth) + f.Die.Lo.X
		c.Pos = geom.Pt(x, rows[bestRow].Y)
		s.cursor = x + c.Width(p)
	}
	return nil
}

// snapUp rounds x up to the next site boundary.
func snapUp(x, site int64) int64 {
	if r := x % site; r != 0 {
		if x >= 0 {
			return x + site - r
		}
		return x - r
	}
	return x
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Rule names a placement-legality rule; drc reports a broken one as the
// violation kind of the same name.
type Rule string

// The legality rules.
const (
	OffDie  Rule = "off-die"  // the cell's bounds leave the die
	OffGrid Rule = "off-grid" // the cell is not on a row or not on a site
	Blocked Rule = "blockage" // the cell overlaps a blockage of its tier
	Overlap Rule = "overlap"  // the cell overlaps its left neighbour in its row
)

// Violation is one broken rule: the cell and what it breaks.
type Violation struct {
	Rule   Rule
	Cell   *netlist.Instance
	Detail string
}

// Audit checks every non-macro cell on the tier against the legality
// rules and returns every violation and the number of cells checked: each
// cell's own rules in netlist order (a cell off the die is checked no
// further), then overlaps row by row, bottom to top, each row left to
// right (cells at one spot in netlist order).
func Audit(f *floorplan.Floorplan, nl *netlist.Netlist, tier tech.Tier) ([]Violation, int) {
	p := f.PDK
	var out []Violation
	var rows []*netlist.Instance
	checked := 0
	for _, c := range nl.Instances {
		if c.IsMacro() || c.Tier != tier {
			continue
		}
		checked++
		b := c.Bounds(p)
		if !f.Die.ContainsRect(b) {
			out = append(out, Violation{OffDie, c, fmt.Sprintf("cell %v outside die %v", b, f.Die)})
			continue
		}
		rows = append(rows, c)
		if (c.Pos.Y-f.Die.Lo.Y)%p.RowHeight != 0 {
			out = append(out, Violation{OffGrid, c, fmt.Sprintf("y=%d not on a row", c.Pos.Y)})
		}
		if (c.Pos.X-f.Die.Lo.X)%p.SiteWidth != 0 {
			out = append(out, Violation{OffGrid, c, fmt.Sprintf("x=%d not on a site", c.Pos.X)})
		}
		for _, blk := range f.Blockages(tier) {
			if blk.Overlaps(b) {
				out = append(out, Violation{Blocked, c, fmt.Sprintf("overlaps %v keep-out at %v", tier, blk)})
				break
			}
		}
	}
	slices.SortFunc(rows, func(a, b *netlist.Instance) int {
		if a.Pos.Y != b.Pos.Y {
			return cmp.Compare(a.Pos.Y, b.Pos.Y)
		}
		if a.Pos.X != b.Pos.X {
			return cmp.Compare(a.Pos.X, b.Pos.X)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	for i := 1; i < len(rows); i++ {
		prev, c := rows[i-1], rows[i]
		if c.Pos.Y == prev.Pos.Y && c.Pos.X < prev.Pos.X+prev.Width(p) {
			out = append(out, Violation{Overlap, c, fmt.Sprintf("overlaps %s in row y=%d", prev.Name, c.Pos.Y)})
		}
	}
	return out, checked
}

// CheckLegal verifies the tier's placement: all cells on rows/sites inside
// the die, no overlaps, no blockage violations. The error is Audit's first
// violation.
func CheckLegal(f *floorplan.Floorplan, nl *netlist.Netlist, tier tech.Tier) error {
	if vs, _ := Audit(f, nl, tier); len(vs) > 0 {
		return fmt.Errorf("place: %s: %s", vs[0].Cell.Name, vs[0].Detail)
	}
	return nil
}
