package route

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"m3d/internal/tech"
)

// window is an A* search window: planar moves must land inside it, via
// moves are never clipped.
type window struct{ x0, x1, y0, y1 int }

func searchWindow(g *grid, src, dst, margin int) window {
	_, sxy := g.split(src)
	_, dxy := g.split(dst)
	sX, sY := sxy%g.nx, sxy/g.nx
	dX, dY := dxy%g.nx, dxy/g.nx
	return window{
		minInt(sX, dX) - margin, maxInt(sX, dX) + margin,
		minInt(sY, dY) - margin, maxInt(sY, dY) + margin,
	}
}

// stepCost is the cost the search charges for the move a→b inside w, and
// whether that move exists at all. It restates astarBounded's neighbour
// rules independently: preferred-direction planar steps and vias through
// cuts with capacity left.
func stepCost(g *grid, w window, a, b int) (float64, bool) {
	la, xya := g.split(a)
	lb, xyb := g.split(b)
	xa, ya := xya%g.nx, xya/g.nx
	xb, yb := xyb%g.nx, xyb/g.nx
	switch {
	case la == lb && ya == yb && absInt(xa-xb) == 1:
		if g.layers[la].Dir != tech.DirHorizontal || xb < w.x0 || xb > w.x1 {
			return 0, false
		}
		i := g.idx(la, minInt(xa, xb), ya)
		return 1 + refCongPenalty(g.useH[i], g.capH[i], g.histH[i]), true
	case la == lb && xa == xb && absInt(ya-yb) == 1:
		if g.layers[la].Dir == tech.DirHorizontal || yb < w.y0 || yb > w.y1 {
			return 0, false
		}
		i := g.idx(la, xa, minInt(ya, yb))
		return 1 + refCongPenalty(g.useV[i], g.capV[i], g.histV[i]), true
	case xya == xyb && absInt(la-lb) == 1:
		lo := minInt(la, lb)
		i := g.idx(lo, xa, ya)
		if g.capUp[i] <= 0 {
			return 0, false
		}
		c := viaCost
		if lo == g.boundary {
			c += ilvCost
		}
		return c + refCongPenalty(g.useUp[i], g.capUp[i], g.histUp[i]), true
	}
	return 0, false
}

// neighbours lists every node one legal move away from n inside w.
func neighbours(g *grid, w window, n int) []int {
	l, xy := g.split(n)
	x, y := xy%g.nx, xy/g.nx
	var out []int
	try := func(nl, nx, ny int) {
		if nl < 0 || nl >= len(g.layers) || nx < 0 || nx >= g.nx || ny < 0 || ny >= g.ny {
			return
		}
		m := g.idx(nl, nx, ny)
		if _, ok := stepCost(g, w, n, m); ok {
			out = append(out, m)
		}
	}
	try(l, x+1, y)
	try(l, x-1, y)
	try(l, x, y+1)
	try(l, x, y-1)
	try(l+1, x, y)
	try(l-1, x, y)
	return out
}

// multiSourceDijkstra returns the least cost of any path inside w from a
// source to dst, or +Inf when none exists.
func multiSourceDijkstra(g *grid, w window, sources []int, dst int) float64 {
	dist := make([]float64, g.nNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	open := &refPQ{}
	for _, n := range sources {
		dist[n] = 0
		heap.Push(open, pqItem{node: n})
	}
	for open.Len() > 0 {
		cur := heap.Pop(open).(pqItem)
		if cur.f > dist[cur.node] {
			continue
		}
		if cur.node == dst {
			return cur.f
		}
		for _, m := range neighbours(g, w, cur.node) {
			c, _ := stepCost(g, w, cur.node, m)
			if d := cur.f + c; d < dist[m] {
				dist[m] = d
				heap.Push(open, pqItem{node: m, f: d})
			}
		}
	}
	return math.Inf(1)
}

// TestTreeSearchWithinWeightOfOptimum grows random nets on the randGrid
// corpus the way routeNet does and checks every search, windowed and
// full-grid: a path exists exactly when the multi-source optimum is
// finite, it is legal, starts at the driver or a tree node, ends at the
// sink, and costs at most hWeight times the optimum of a test-local
// multi-source Dijkstra over the same window.
func TestTreeSearchWithinWeightOfOptimum(t *testing.T) {
	searches, worst := 0, 1.0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := 5+rng.Intn(8), 5+rng.Intn(8)
		g := randGrid(rng, nx, ny)
		s := &searcher{g: g}
		for trial := 0; trial < 20; trial++ {
			src := rng.Intn(g.nNodes())
			s.plantTree(src)
			for k := 2 + rng.Intn(6); k > 0; k-- {
				dst := rng.Intn(g.nNodes())
				if s.isOnTree(dst) {
					continue
				}
				sources := append([]int{src}, s.tree...)
				var grown []int
				for _, margin := range []int{bboxMargin, 1 << 30} {
					w := searchWindow(g, src, dst, margin)
					best := multiSourceDijkstra(g, w, sources, dst)
					path := s.astarBounded(src, dst, margin)
					searches++
					if path == nil {
						if !math.IsInf(best, 1) {
							t.Fatalf("seed %d trial %d margin %d: no path, optimum %.3f", seed, trial, margin, best)
						}
						continue
					}
					if math.IsInf(best, 1) {
						t.Fatalf("seed %d trial %d margin %d: path %v where none exists", seed, trial, margin, path)
					}
					if !s.isOnTree(path[0]) || path[len(path)-1] != dst {
						t.Fatalf("seed %d trial %d margin %d: path %v does not run tree→%d", seed, trial, margin, path, dst)
					}
					cost := 0.0
					for i := 1; i < len(path); i++ {
						c, ok := stepCost(g, w, path[i-1], path[i])
						if !ok {
							t.Fatalf("seed %d trial %d margin %d: illegal step %d→%d", seed, trial, margin, path[i-1], path[i])
						}
						cost += c
					}
					if cost > hWeight*best+1e-9 {
						t.Fatalf("seed %d trial %d margin %d: cost %.4f > %.1f × optimum %.4f",
							seed, trial, margin, cost, hWeight, best)
					}
					if best > 0 && cost/best > worst {
						worst = cost / best
					}
					grown = path
				}
				if grown != nil {
					g.commitPathUsage(grown, +1)
					s.growTree(grown)
				}
			}
		}
	}
	if searches < 1000 {
		t.Fatalf("only %d searches ran", searches)
	}
	t.Logf("%d searches, worst cost / optimum %.4f", searches, worst)
}

// TestRoutedNetsAreTrees checks the committed routing of real placed
// designs: each net's first path starts at its driver, every later path
// starts on the earlier ones, every step is one grid move, and the union
// of the paths reaches every sink — one connected node set per net.
func TestRoutedNetsAreTrees(t *testing.T) {
	for _, size := range [][2]int{{1, 2}, {2, 2}} {
		fx := placedFixture(t, size[0], size[1])
		res, work, err := routeWork(fx.fp, fx.nl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.FailedNets != 0 {
			t.Fatalf("%v: %d failed nets", size, res.FailedNets)
		}
		g := newGrid(fx.fp)
		for _, rn := range work {
			n := rn.net
			dx, dy := g.cellOf(n.Driver.Loc())
			tree := map[int]bool{g.idx(g.pinLayer(n.Driver.Inst), dx, dy): true}
			for i, path := range rn.paths {
				if !tree[path[0]] {
					t.Fatalf("%v net %s: path %d starts off the tree at %d", size, n.Name, i, path[0])
				}
				for j, v := range path {
					if j > 0 && !adjacent(g, path[j-1], v) {
						t.Fatalf("%v net %s: path %d jumps %d→%d", size, n.Name, i, path[j-1], v)
					}
					tree[v] = true
				}
			}
			for _, sk := range n.Sinks {
				sx, sy := g.cellOf(sk.Loc())
				if d := g.idx(g.pinLayer(sk.Inst), sx, sy); !tree[d] {
					t.Fatalf("%v net %s: sink %s at node %d is not on the tree", size, n.Name, sk.Inst.Name, d)
				}
			}
		}
	}
}

// adjacent reports whether a and b are one planar step or one via apart.
func adjacent(g *grid, a, b int) bool {
	la, xya := g.split(a)
	lb, xyb := g.split(b)
	xa, ya := xya%g.nx, xya/g.nx
	xb, yb := xyb%g.nx, xyb/g.nx
	if la == lb {
		return absInt(xa-xb)+absInt(ya-yb) == 1
	}
	return xya == xyb && absInt(la-lb) == 1
}
