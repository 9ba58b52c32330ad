package sta

import (
	"math"
	"math/rand"
	"testing"

	"m3d/internal/tech"
)

// foldFromZero is AnalyzeBatch's arrival rule as first written, kept as
// the oracle for the first-input seeding: every resolved instance's
// lanes start at 0 and fold all of its inputs with >=, then the endpoints are
// scanned with the strict >. It returns the arrival lanes (slot-major,
// stride K) and the critical paths, and counts the first-input values
// that were negative, NaN and −0 in firsts.
func foldFromZero(g *BatchGraph, scales [][tech.NumTiers]float64, firsts *[3]int) (arr, crit []float64) {
	K := len(scales)
	scale := func(lane int32, k int) float64 {
		if int(lane) == unitLane {
			return 1
		}
		return scales[k][lane]
	}
	launches, resolved := len(g.launchT), len(g.inOff)-1
	arr = make([]float64, (launches+resolved)*K)
	for i, at := range g.launchT {
		for k := 0; k < K; k++ {
			arr[i*K+k] = at
		}
	}
	for i := 0; i < resolved; i++ {
		for k := 0; k < K; k++ {
			w := 0.0
			for j, a := range g.in[g.inOff[i]:g.inOff[i+1]] {
				t := arr[int(a.drv)*K+k] + float64(g.netD[a.net]*scale(g.netLane[a.net], k))
				if j == 0 {
					switch {
					case math.IsNaN(t):
						firsts[1]++
					case t == 0 && math.Signbit(t):
						firsts[2]++
					case t < 0:
						firsts[0]++
					}
				}
				if t >= w {
					w = t
				}
			}
			arr[(launches+i)*K+k] = w
		}
	}
	crit = make([]float64, K)
	for _, e := range g.ends {
		for k := 0; k < K; k++ {
			if t := arr[int(e.drv)*K+k] + float64(g.netD[e.net]*scale(g.netLane[e.net], k)) + e.setup; t > crit[k] {
				crit[k] = t
			}
		}
	}
	return arr, crit
}

// randomBatchGraph hand-builds an acyclic BatchGraph whose launch
// times, arc delays and scales are drawn from special, so first inputs
// come out negative, NaN, −0, +0, infinite and ordinary. Each arc drives
// its own net; the instance in slot j reads one to three earlier slots.
func randomBatchGraph(rng *rand.Rand, special []float64) *BatchGraph {
	pick := func() float64 { return special[rng.Intn(len(special))] }
	nLaunch, nResolved := 2+rng.Intn(4), 1+rng.Intn(10)
	g := &BatchGraph{inOff: []int32{0}}
	arc := func(drv int) batchArc {
		g.netD = append(g.netD, pick())
		g.netLane = append(g.netLane, int32(rng.Intn(unitLane+1)))
		return batchArc{int32(drv), int32(len(g.netD) - 1)}
	}
	for i := 0; i < nLaunch; i++ {
		g.launchT = append(g.launchT, pick())
	}
	for j := nLaunch; j < nLaunch+nResolved; j++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			g.in = append(g.in, arc(rng.Intn(j)))
		}
		g.inOff = append(g.inOff, int32(len(g.in)))
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		g.ends = append(g.ends, batchEnd{batchArc: arc(rng.Intn(nLaunch + nResolved)), setup: float64(rng.Intn(2)) * 1e-11})
	}
	return g
}

// TestAnalyzeBatchFirstInputSeeding pins AnalyzeBatch's seeding of each
// resolved instance from its first input ("t if t >= 0, else 0")
// against the zero-then-fold loop it replaced, bit for bit, on every
// arrival lane and critical path of hand-built graphs whose first inputs
// yield negative, NaN and −0 lanes. Each timer prices two batches of up
// to its capacity, reused as the yield engine reuses its timers.
func TestAnalyzeBatchFirstInputSeeding(t *testing.T) {
	negZero := math.Copysign(0, -1)
	special := []float64{-1e-9, math.NaN(), negZero, 0, 3e-10, -2, math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(1))
	const maxK = 8
	var firsts [3]int
	for trial := 0; trial < 200; trial++ {
		g := randomBatchGraph(rng, special)
		bt, err := NewBatchTimer(g, maxK)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			K := 1 + rng.Intn(maxK)
			scales := make([][tech.NumTiers]float64, K)
			for k := range scales {
				for tier := range scales[k] {
					scales[k][tier] = special[rng.Intn(len(special))]
				}
			}
			got := make([]float64, K)
			if err := bt.AnalyzeBatch(scales, got); err != nil {
				t.Fatal(err)
			}
			wantArr, wantCrit := foldFromZero(g, scales, &firsts)
			for slot := len(g.launchT); slot < len(g.launchT)+len(g.inOff)-1; slot++ {
				for k := 0; k < K; k++ {
					a, w := bt.arr[slot*maxK+k], wantArr[slot*K+k]
					if math.Float64bits(a) != math.Float64bits(w) {
						t.Fatalf("trial %d pass %d: slot %d corner %d arrival %v (bits %#x), oracle %v (bits %#x)",
							trial, pass, slot, k, a, math.Float64bits(a), w, math.Float64bits(w))
					}
				}
			}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(wantCrit[k]) {
					t.Fatalf("trial %d pass %d: corner %d critical path %v, oracle %v", trial, pass, k, got[k], wantCrit[k])
				}
			}
		}
	}
	for i, name := range []string{"negative", "NaN", "−0"} {
		if firsts[i] == 0 {
			t.Errorf("no first input was %s: the graphs do not cover that case", name)
		}
	}
}
