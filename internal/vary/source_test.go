package vary

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where math/rand's reduction (seed mod 2³¹−1,
// negatives shifted up, 0 replaced) has a boundary.
var edgeSeeds = []int64{
	0, 1, -1, 2, -2, zeroSeed, -zeroSeed,
	lcgMod - 1, lcgMod, lcgMod + 1, -(lcgMod - 1), -lcgMod, -(lcgMod + 1),
	2 * lcgMod, -2 * lcgMod, 3*lcgMod + zeroSeed, 1 << 31, -1 << 31, 1 << 62,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// TestCornerSourceMatchesMathRand pins cornerSource to math/rand bit for
// bit: Uint64 and Int63 over eight outputs for the edge seeds and 2,000
// random seeds, over 1,000 outputs (well past the fallback at output
// 274) for the edge seeds, and NormFloat64/Float64 through a *rand.Rand
// that is re-seeded mid-stream, as the engine's scratch generator is.
func TestCornerSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	pick := rand.New(rand.NewSource(20231017))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	src := new(cornerSource)
	for si, seed := range seeds {
		n := 8
		if si < len(edgeSeeds) {
			n = 1000
		}
		want := rand.NewSource(seed).(rand.Source64)
		src.Seed(seed)
		for k := 1; k <= n; k++ {
			if got, w := src.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d: Uint64 output %d = %#x, want %#x", seed, k, got, w)
			}
		}
		want.Seed(seed)
		src.Seed(seed)
		for k := 1; k <= n; k++ {
			if got, w := src.Int63(), want.Int63(); got != w {
				t.Fatalf("seed %d: Int63 output %d = %d, want %d", seed, k, got, w)
			}
		}
	}

	r := rand.New(newCornerSource(-7))
	r.Float64()
	for si, seed := range seeds[:len(edgeSeeds)+200] {
		n := 16
		if si < len(edgeSeeds) {
			n = 200 // ≥ 400 outputs: through the fallback
		}
		r.NormFloat64() // leave the previous stream mid-way
		r.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < n; k++ {
			if got, w := r.NormFloat64(), want.NormFloat64(); got != w {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, want %v", seed, k, got, w)
			}
			if got, w := r.Float64(), want.Float64(); got != w {
				t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, k, got, w)
			}
		}
	}
}
