package route

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"m3d/internal/tech"
)

// refPQ is the pre-optimization priority queue: the boxed heap.Interface
// implementation that the typed pq replaced. It is kept here as a test
// oracle so any future change to the typed heap that alters pop order —
// ties included — fails loudly.
type refPQ []pqItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].f < q[j].f }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// refCongPenalty is the pre-optimization congestion penalty: always one
// float division. The production congPenalty short-circuits the ≤75%
// utilization case with an integer compare; this oracle proves the two
// agree bit-for-bit on every cost the search evaluates.
func refCongPenalty(use, capacity int32, hist float64) float64 {
	if capacity <= 0 {
		return 1e6
	}
	u := float64(use) / float64(capacity)
	pen := hist
	if u >= 1 {
		pen += 20 * (u - 0.75)
	} else if u > 0.75 {
		pen += 4 * (u - 0.75)
	}
	return pen
}

// TestTypedHeapMatchesContainerHeap drives the typed pq and the boxed
// reference through identical randomized push/pop interleavings and
// requires bit-identical pop sequences. The f values are drawn from a
// small discrete set so ties are frequent: equal-key ordering is exactly
// what the typed reimplementation must preserve.
func TestTypedHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got pq
		ref := &refPQ{}
		for op := 0; op < 2000; op++ {
			if len(got) != ref.Len() {
				t.Fatalf("seed %d op %d: len %d vs %d", seed, op, len(got), ref.Len())
			}
			if len(got) == 0 || rng.Intn(3) != 0 {
				it := pqItem{
					node: rng.Intn(64),
					f:    float64(rng.Intn(8)) * 0.5, // few distinct keys → many ties
					g:    rng.Float64(),
				}
				got.push(it)
				heap.Push(ref, it)
			} else {
				a := got.pop()
				b := heap.Pop(ref).(pqItem)
				if a != b {
					t.Fatalf("seed %d op %d: pop %+v, reference popped %+v", seed, op, a, b)
				}
			}
		}
		for len(got) > 0 {
			a := got.pop()
			b := heap.Pop(ref).(pqItem)
			if a != b {
				t.Fatalf("seed %d drain: pop %+v, reference popped %+v", seed, a, b)
			}
		}
	}
}

// astarBoundedRef is a behavioral copy of the pre-optimization
// astarBounded: driven by container/heap on the boxed refPQ instead of
// the typed pq, with the float-division congestion penalty and the
// split()-based heuristic. It shares the searcher's epoch-stamped
// scratch (each call bumps the epoch), so a divergence can only come
// from the optimized queue, penalty, or heuristic plumbing.
func (s *searcher) astarBoundedRef(src, dst, margin int) []int {
	g := s.g
	nNodes := len(g.layers) * g.nx * g.ny
	if len(s.gScore) != nNodes {
		s.gScore = make([]float64, nNodes)
		s.from = make([]int32, nNodes)
		s.epoch = make([]uint32, nNodes)
	}
	s.curEpoch++
	if s.curEpoch == 0 {
		for i := range s.epoch {
			s.epoch[i] = 0
		}
		s.curEpoch = 1
	}
	gScore := s.gScore
	from := s.from
	seen := func(n int) bool { return s.epoch[n] == s.curEpoch }
	touch := func(n int) {
		if !seen(n) {
			s.epoch[n] = s.curEpoch
			gScore[n] = math.Inf(1)
			from[n] = -1
		}
	}
	touch(src)
	touch(dst)

	dl, dxy := g.split(dst)
	dX, dY := dxy%g.nx, dxy/g.nx
	_, sxy := g.split(src)
	sX, sY := sxy%g.nx, sxy/g.nx

	x0, x1 := minInt(sX, dX)-margin, maxInt(sX, dX)+margin
	y0, y1 := minInt(sY, dY)-margin, maxInt(sY, dY)+margin

	h := func(n int) float64 {
		l, xy := g.split(n)
		x, y := xy%g.nx, xy/g.nx
		dist := float64(absInt(x-dX) + absInt(y-dY))
		return hWeight * (dist + viaCost*float64(absInt(l-dl)))
	}

	open := &refPQ{}
	heap.Push(open, pqItem{node: src, f: h(src)})
	gScore[src] = 0

	for open.Len() > 0 {
		cur := heap.Pop(open).(pqItem)
		if cur.node == dst {
			steps, reached := 0, false
			for n := dst; n != -1; n = int(from[n]) {
				steps++
				if n == src {
					reached = true
					break
				}
			}
			if !reached {
				return nil
			}
			path := make([]int, steps)
			for n, i := dst, steps-1; ; n, i = int(from[n]), i-1 {
				path[i] = n
				if n == src {
					break
				}
			}
			return path
		}
		if cur.g > gScore[cur.node] {
			continue
		}
		l, xy := g.split(cur.node)
		x, y := xy%g.nx, xy/g.nx
		L := g.layers[l]

		relax := func(nn int, cost float64) {
			touch(nn)
			ng := cur.g + cost
			if ng < gScore[nn] {
				gScore[nn] = ng
				from[nn] = int32(cur.node)
				heap.Push(open, pqItem{node: nn, f: ng + h(nn), g: ng})
			}
		}

		if L.Dir == tech.DirHorizontal {
			if x+1 < g.nx && x+1 <= x1 {
				i := g.idx(l, x, y)
				relax(g.idx(l, x+1, y), 1+refCongPenalty(g.useH[i], g.capH[i], g.histH[i]))
			}
			if x > 0 && x-1 >= x0 {
				i := g.idx(l, x-1, y)
				relax(g.idx(l, x-1, y), 1+refCongPenalty(g.useH[i], g.capH[i], g.histH[i]))
			}
		} else {
			if y+1 < g.ny && y+1 <= y1 {
				i := g.idx(l, x, y)
				relax(g.idx(l, x, y+1), 1+refCongPenalty(g.useV[i], g.capV[i], g.histV[i]))
			}
			if y > 0 && y-1 >= y0 {
				i := g.idx(l, x, y-1)
				relax(g.idx(l, x, y-1), 1+refCongPenalty(g.useV[i], g.capV[i], g.histV[i]))
			}
		}
		if l+1 < len(g.layers) {
			i := g.idx(l, x, y)
			if g.capUp[i] > 0 {
				c := viaCost
				if l == g.boundary {
					c += ilvCost
				}
				relax(g.idx(l+1, x, y), c+refCongPenalty(g.useUp[i], g.capUp[i], g.histUp[i]))
			}
		}
		if l > 0 {
			i := g.idx(l-1, x, y)
			if g.capUp[i] > 0 {
				c := viaCost
				if l-1 == g.boundary {
					c += ilvCost
				}
				relax(g.idx(l-1, x, y), c+refCongPenalty(g.useUp[i], g.capUp[i], g.histUp[i]))
			}
		}
	}
	return nil
}

// randGrid builds a synthetic routing grid with randomized capacities,
// usage, and congestion history — enough structure to make many distinct
// path costs and enough ties to stress equal-key pop order.
func randGrid(rng *rand.Rand, nx, ny int) *grid {
	layers := tech.Default130().RoutingLayers()
	g := &grid{layers: layers, nx: nx, ny: ny, boundary: 1}
	n := len(layers) * nx * ny
	g.capH = make([]int32, n)
	g.capV = make([]int32, n)
	g.capUp = make([]int32, n)
	g.useH = make([]int32, n)
	g.useV = make([]int32, n)
	g.useUp = make([]int32, n)
	g.histH = make([]float64, n)
	g.histV = make([]float64, n)
	g.histUp = make([]float64, n)
	for i := 0; i < n; i++ {
		g.capH[i] = int32(rng.Intn(5))
		g.capV[i] = int32(rng.Intn(5))
		g.capUp[i] = int32(rng.Intn(4)) // zeros make some vias impassable
		g.useH[i] = int32(rng.Intn(6))
		g.useV[i] = int32(rng.Intn(6))
		g.useUp[i] = int32(rng.Intn(4))
		g.histH[i] = float64(rng.Intn(3))
		g.histV[i] = float64(rng.Intn(3))
		g.histUp[i] = float64(rng.Intn(3))
	}
	return g
}

// TestAstarPathEquivalenceRandomGrids compares the optimized search against
// the container/heap oracle over a randomized grid corpus: same grid, same
// terminals, both windowed and full-grid margins, element-identical paths.
func TestAstarPathEquivalenceRandomGrids(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := 5+rng.Intn(8), 5+rng.Intn(8)
		g := randGrid(rng, nx, ny)
		s := &searcher{g: g}
		nNodes := len(g.layers) * nx * ny
		for trial := 0; trial < 40; trial++ {
			src, dst := rng.Intn(nNodes), rng.Intn(nNodes)
			for _, margin := range []int{bboxMargin, 1 << 30} {
				got := s.astarBounded(src, dst, margin)
				want := s.astarBoundedRef(src, dst, margin)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d trial %d margin %d: path %v, reference %v",
						seed, trial, margin, got, want)
				}
			}
		}
	}
}
