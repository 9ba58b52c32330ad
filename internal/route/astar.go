package route

import (
	"math"

	"m3d/internal/tech"
)

// pqItem is an A* frontier entry.
type pqItem struct {
	node int
	f, g float64
}

// pq is a typed min-heap on f. It reimplements container/heap's exact
// sift algorithm (same comparison sequence, so the pop order — ties
// included — is identical to the heap.Interface version it replaces)
// without boxing every entry through interface{}: the boxed Push/Pop
// pair accounted for ~94% of all allocations in a reduced flow.Run
// before the change. The sifts are hole-based: instead of swapping the
// moving item pairwise they shift elements into the hole and place the
// item once, which halves the stores per level while performing the
// same comparisons on the same values — the final array is identical.
type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	q.up(len(*q) - 1)
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	h.down(0, n)
	it := h[n]
	*q = h[:n]
	return it
}

func (q pq) up(j int) {
	it := q[j]
	for j > 0 {
		i := (j - 1) / 2 // parent
		if it.f >= q[i].f {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = it
}

func (q pq) down(i0, n int) {
	i := i0
	it := q[i]
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].f < q[j1].f {
			j = j2 // right child
		}
		if q[j].f >= it.f {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = it
}

// congestion cost multiplier: cost = base * (1 + penalty), penalty grows
// steeply past capacity.
func congPenalty(use, capacity int32, hist float64) float64 {
	if capacity <= 0 {
		return 1e6
	}
	// Below-3/4 utilization the penalty is the bare history term; the
	// integer compare decides it without the division. It is exact:
	// use*4 > cap*3 ⟺ use/cap > 0.75, and for int32 operands the float64
	// quotient below cannot round across the 3/4 boundary (the gap to
	// 0.75 is at least 1/(4·cap), far above one ulp), so this branch
	// never changes the result.
	if int64(use)*4 <= int64(capacity)*3 {
		return hist
	}
	u := float64(use) / float64(capacity)
	pen := hist
	if u >= 1 {
		pen += 20 * (u - 0.75)
	} else {
		pen += 4 * (u - 0.75)
	}
	return pen
}

// viaCost is the base cost of one layer change relative to one gcell of
// wire.
const viaCost = 0.9

// ilvCost is the extra cost of crossing the ILV boundary.
const ilvCost = 1.6

// hWeight > 1 makes the A* heuristic slightly inadmissible, trading a few
// percent of path cost for a large reduction in explored nodes.
const hWeight = 1.3

// bboxMargin is the search-window margin (in gcells) around the two
// terminals; most nets route inside it. A failed windowed search falls
// back to the full grid.
const bboxMargin = 6

// searcher owns the routing state of one Route call: the epoch-stamped
// A* scratch, the open heap, the tree of the net being routed, and the
// sink-ordering scratch.
type searcher struct {
	g *grid

	// A* scratch, reused across searches (epoch-stamped).
	gScore   []float64
	from     []int32
	epoch    []uint32
	curEpoch uint32
	open     pq

	// tree lists the nodes the net being routed has reached, other than
	// its driver, in the order they joined; onTree stamps the driver and
	// every tree node with treeEpoch. Both are reset per net by plantTree.
	tree      []int
	onTree    []uint32
	treeEpoch uint32

	// sinkScratch is reused across routeNet calls so per-net sink
	// ordering allocates nothing once grown.
	sinkScratch []sinkRef
}

// plantTree starts a new net's tree at the driver node src.
func (s *searcher) plantTree(src int) {
	if n := s.g.nNodes(); len(s.onTree) != n {
		s.onTree = make([]uint32, n)
	}
	s.treeEpoch++
	if s.treeEpoch == 0 { // wrapped: force full reset
		clear(s.onTree)
		s.treeEpoch = 1
	}
	s.tree = s.tree[:0]
	s.onTree[src] = s.treeEpoch
}

// isOnTree reports whether node n is the driver or a node of the tree.
func (s *searcher) isOnTree(n int) bool { return s.onTree[n] == s.treeEpoch }

// growTree adds the nodes of a path that are not yet on the tree.
func (s *searcher) growTree(path []int) {
	for _, n := range path {
		if !s.isOnTree(n) {
			s.onTree[n] = s.treeEpoch
			s.tree = append(s.tree, n)
		}
	}
}

// astar finds a low-cost path to dst from src or, when the net's tree has
// grown beyond its driver, from any tree node; returns the node path
// (tree node..dst) or nil.
func (s *searcher) astar(src, dst int) []int {
	if path := s.astarBounded(src, dst, bboxMargin); path != nil {
		return path
	}
	return s.astarBounded(src, dst, 1<<30)
}

// astarBounded searches within a window of margin gcells around the
// terminals. The driver src and then every node of s.tree are seeded at
// cost zero, so the path starts wherever joining the tree is cheapest;
// with an empty tree it is the plain src-to-dst search. Scratch arrays are
// reused across calls with an epoch counter, so each search touches only
// the nodes it visits.
func (s *searcher) astarBounded(src, dst, margin int) []int {
	g := s.g
	nNodes := g.nNodes()
	if len(s.gScore) != nNodes {
		s.gScore = make([]float64, nNodes)
		s.from = make([]int32, nNodes)
		s.epoch = make([]uint32, nNodes)
	}
	s.curEpoch++
	if s.curEpoch == 0 { // wrapped: force full reset
		for i := range s.epoch {
			s.epoch[i] = 0
		}
		s.curEpoch = 1
	}
	gScore := s.gScore
	from := s.from
	touch := func(n int) {
		if s.epoch[n] != s.curEpoch {
			s.epoch[n] = s.curEpoch
			gScore[n] = math.Inf(1)
			from[n] = -1
		}
	}
	touch(src)
	touch(dst)

	dl, dxy := g.split(dst)
	dX, dY := dxy%g.nx, dxy/g.nx
	sl, sxy := g.split(src)
	sX, sY := sxy%g.nx, sxy/g.nx

	// Search window.
	x0, x1 := minInt(sX, dX)-margin, maxInt(sX, dX)+margin
	y0, y1 := minInt(sY, dY)-margin, maxInt(sY, dY)+margin

	// The heuristic takes the neighbor's coordinates directly: the relax
	// sites already know them, and recovering them via split() put a
	// div/mod pair on the hottest path of the search.
	hAt := func(l, x, y int) float64 {
		dist := float64(absInt(x-dX) + absInt(y-dY))
		return hWeight * (dist + viaCost*float64(absInt(l-dl)))
	}

	s.open = s.open[:0]
	open := &s.open
	open.push(pqItem{node: src, f: hAt(sl, sX, sY)})
	gScore[src] = 0
	for _, n := range s.tree {
		touch(n)
		gScore[n] = 0
		l, xy := g.split(n)
		open.push(pqItem{node: n, f: hAt(l, xy%g.nx, xy/g.nx)})
	}

	for len(*open) > 0 {
		cur := open.pop()
		if cur.node == dst {
			// Reconstruct into an exact-size slice, filled in reverse. Only
			// the seeds keep from == -1, so the walk ends on the tree.
			steps := 0
			for n := dst; n != -1; n = int(from[n]) {
				steps++
			}
			path := make([]int, steps)
			for n, i := dst, steps-1; n != -1; n, i = int(from[n]), i-1 {
				path[i] = n
			}
			return path
		}
		if cur.g > gScore[cur.node] {
			continue
		}
		l, xy := g.split(cur.node)
		x, y := xy%g.nx, xy/g.nx
		L := g.layers[l]

		relax := func(nn, nl, nx, ny int, cost float64) {
			touch(nn)
			ng := cur.g + cost
			if ng < gScore[nn] {
				gScore[nn] = ng
				from[nn] = int32(cur.node)
				open.push(pqItem{node: nn, f: ng + hAt(nl, nx, ny), g: ng})
			}
		}

		// Planar moves in the layer's preferred direction, clipped to the
		// search window.
		if L.Dir == tech.DirHorizontal {
			if x+1 < g.nx && x+1 <= x1 {
				i := g.idx(l, x, y)
				relax(g.idx(l, x+1, y), l, x+1, y, 1+congPenalty(g.useH[i], g.capH[i], g.histH[i]))
			}
			if x > 0 && x-1 >= x0 {
				i := g.idx(l, x-1, y)
				relax(g.idx(l, x-1, y), l, x-1, y, 1+congPenalty(g.useH[i], g.capH[i], g.histH[i]))
			}
		} else {
			if y+1 < g.ny && y+1 <= y1 {
				i := g.idx(l, x, y)
				relax(g.idx(l, x, y+1), l, x, y+1, 1+congPenalty(g.useV[i], g.capV[i], g.histV[i]))
			}
			if y > 0 && y-1 >= y0 {
				i := g.idx(l, x, y-1)
				relax(g.idx(l, x, y-1), l, x, y-1, 1+congPenalty(g.useV[i], g.capV[i], g.histV[i]))
			}
		}
		// Via moves. Zero-capacity cuts (ILVs consumed by an RRAM array
		// above) are impassable.
		if l+1 < len(g.layers) {
			i := g.idx(l, x, y)
			if g.capUp[i] > 0 {
				c := viaCost
				if l == g.boundary {
					c += ilvCost
				}
				relax(g.idx(l+1, x, y), l+1, x, y, c+congPenalty(g.useUp[i], g.capUp[i], g.histUp[i]))
			}
		}
		if l > 0 {
			i := g.idx(l-1, x, y)
			if g.capUp[i] > 0 {
				c := viaCost
				if l-1 == g.boundary {
					c += ilvCost
				}
				relax(g.idx(l-1, x, y), l-1, x, y, c+congPenalty(g.useUp[i], g.capUp[i], g.histUp[i]))
			}
		}
	}
	return nil
}

func (g *grid) split(n int) (layer, xy int) {
	return n / (g.nx * g.ny), n % (g.nx * g.ny)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// overflowCount returns the number of over-capacity edges and bumps history
// on them.
func (g *grid) overflowCount(bumpHistory bool) int {
	n := 0
	for i := range g.useH {
		if g.capH[i] > 0 && g.useH[i] > g.capH[i] {
			n++
			if bumpHistory {
				g.histH[i] += 1.0
			}
		}
		if g.capV[i] > 0 && g.useV[i] > g.capV[i] {
			n++
			if bumpHistory {
				g.histV[i] += 1.0
			}
		}
		if g.capUp[i] > 0 && g.useUp[i] > g.capUp[i] {
			n++
			if bumpHistory {
				g.histUp[i] += 1.0
			}
		}
	}
	return n
}

// pathOverflows reports whether any edge of the path is over capacity.
func (g *grid) pathOverflows(path []int) bool {
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		la, xya := g.split(a)
		lb, xyb := g.split(b)
		xa, ya := xya%g.nx, xya/g.nx
		xb, yb := xyb%g.nx, xyb/g.nx
		switch {
		case la != lb:
			lo := la
			if lb < lo {
				lo = lb
			}
			i := g.idx(lo, xa, ya)
			if g.useUp[i] > g.capUp[i] {
				return true
			}
		case xa != xb:
			lo := xa
			if xb < lo {
				lo = xb
			}
			i := g.idx(la, lo, ya)
			if g.useH[i] > g.capH[i] {
				return true
			}
		default:
			lo := ya
			if yb < lo {
				lo = yb
			}
			i := g.idx(la, xa, lo)
			if g.useV[i] > g.capV[i] {
				return true
			}
		}
	}
	return false
}
