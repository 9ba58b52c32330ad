package vary_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"m3d/internal/vary"
)

// TestSortedPrefixMatchesReference pins the streamed-refinement helpers
// against the reference Curve and QuantilesOf: a prefix grown by
// MergeSorted one sorted batch at a time must give deep-equal curves and
// bands after every batch, for several batch splits. Samples sit on a
// coarse grid, so ties within a batch, across batches and at a curve
// period are all exercised.
func TestSortedPrefixMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 300)
		for i := range xs {
			xs[i] = 1e-9 * float64(8+rng.Intn(12)) / 8
		}
		// Periods below, on and between the grid values, and past the top.
		periods := []float64{0.5e-9, 1e-9, 1.0625e-9, 1.25e-9, 1.875e-9, 2.5e-9, 3e-9}
		for _, batch := range []int{1, 3, 32, 97, len(xs)} {
			var sorted []float64
			for lo := 0; lo < len(xs); lo += batch {
				hi := min(lo+batch, len(xs))
				part := append([]float64(nil), xs[lo:hi]...)
				sort.Float64s(part)
				sorted = vary.MergeSorted(sorted, part)
				if !sort.Float64sAreSorted(sorted) {
					t.Fatalf("seed %d batch %d after %d: prefix not ascending", seed, batch, hi)
				}
				prefix := xs[:hi]
				if got, want := vary.CurveSorted(sorted, periods), vary.Curve(prefix, periods); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d batch %d after %d: curve %v, want %v", seed, batch, hi, got, want)
				}
				if got, want := vary.QuantilesSorted(sorted), vary.QuantilesOf(prefix); got != want {
					t.Fatalf("seed %d batch %d after %d: band %+v, want %+v", seed, batch, hi, got, want)
				}
			}
		}
	}
	if got, want := vary.CurveSorted(nil, []float64{1e-9}), vary.Curve(nil, []float64{1e-9}); !reflect.DeepEqual(got, want) {
		t.Fatalf("empty curve %v, want %v", got, want)
	}
	if got := vary.QuantilesSorted(nil); got != (vary.Quantiles{}) {
		t.Fatalf("empty band %+v, want zeros", got)
	}
}
