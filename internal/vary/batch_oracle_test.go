package vary_test

import (
	"errors"
	"math"
	"testing"

	"m3d/internal/errs"
	"m3d/internal/exec"
	"m3d/internal/sta"
	"m3d/internal/tech"
	"m3d/internal/vary"
)

// TestEngineMatchesPerCornerTimer pins the corner-batched engine against
// the pre-batching implementation it replaced: one sta.Timer per corner
// with SetTierDelayScale, bit-for-bit. Widths 1/2/8 cover the serial
// zero-alloc path and the slab fan-out; sample counts 1/7/100 cover a
// sub-slab batch, a ragged tail, and multiple full slabs. Each width
// runs a cold engine and one whose sampler is primed to 50 corners, so
// the [0, 100) window has a slab, [32, 64), that mixes cached corners
// with corners drawn inside the slab.
func TestEngineMatchesPerCornerTimer(t *testing.T) {
	p, nl := chainNetlist(t, 16)
	v := tech.DefaultVariation()
	const seed = 42

	sampler, err := vary.NewSampler(v, seed)
	if err != nil {
		t.Fatal(err)
	}
	oracle := sta.NewTimer(p, nl, nil)
	want := make([]float64, 100)
	for i := range want {
		c := sampler.Corner(i)
		oracle.SetTierDelayScale(c.TierScale[:])
		rep, err := oracle.Analyze(1.0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep.CriticalPathS
	}

	for _, width := range []int{1, 2, 8} {
		for _, primed := range []int{0, 50} {
			e, err := vary.NewEngine(p, nl, nil, v, seed)
			if err != nil {
				t.Fatal(err)
			}
			e.Sampler().Prime(primed)
			st := exec.Resolve(exec.WithWorkers(width))
			for _, n := range []int{1, 7, 100} {
				got := make([]float64, n)
				if err := e.CriticalPathsInto(st, 0, n, got); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("width %d primed %d n %d sample %d: %.17g vs per-corner oracle %.17g",
							width, primed, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSamplerPrimeIdentity checks the corner cache: primed corners are
// bit-identical to cold draws, priming is idempotent and growable, and
// out-of-cache indices still draw correctly.
func TestSamplerPrimeIdentity(t *testing.T) {
	v := tech.DefaultVariation()
	cold, err := vary.NewSampler(v, 7)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := vary.NewSampler(v, 7)
	if err != nil {
		t.Fatal(err)
	}
	warm.Prime(16)
	warm.Prime(8)             // shrink request: no-op
	warm.Prime(64)            // growth re-uses the cached prefix
	for i := 0; i < 80; i++ { // 64..79 fall past the cache
		if cold.Corner(i) != warm.Corner(i) {
			t.Fatalf("corner %d: cold %+v != primed %+v", i, cold.Corner(i), warm.Corner(i))
		}
	}
}

// TestCriticalPathsIntoValidation covers the caller-owned-storage
// contract: window and length violations, including a window reaching
// past MaxSamples, match errs.ErrBadSpec.
func TestCriticalPathsIntoValidation(t *testing.T) {
	p, nl := chainNetlist(t, 4)
	e, err := vary.NewEngine(p, nl, nil, tech.DefaultVariation(), 1)
	if err != nil {
		t.Fatal(err)
	}
	st := exec.Resolve(exec.WithWorkers(1))
	if err := e.CriticalPathsInto(st, 2, 1, nil); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("bad window: got %v", err)
	}
	if err := e.CriticalPathsInto(st, 0, 4, make([]float64, 3)); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("short dst: got %v", err)
	}
	if err := e.CriticalPathsInto(st, vary.MaxSamples, vary.MaxSamples+1, make([]float64, 1)); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("window past MaxSamples: got %v", err)
	}
	if err := e.CriticalPathsInto(st, 0, math.MaxInt, nil); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("huge window: got %v", err)
	}
	if err := e.CriticalPathsInto(st, 3, 3, nil); err != nil {
		t.Fatalf("empty window: got %v", err)
	}
}

// TestOptionsValidatePeriods: a yield period must be positive and
// finite; NaN and ±Inf match errs.ErrBadSpec like non-positive periods.
func TestOptionsValidatePeriods(t *testing.T) {
	for _, p := range []float64{0, -1e-9, math.NaN(), math.Inf(1), math.Inf(-1)} {
		o := vary.Options{Samples: 1, Periods: []float64{1e-9, p}}
		if err := o.Validate(); !errors.Is(err, errs.ErrBadSpec) {
			t.Errorf("period %g: got %v, want ErrBadSpec", p, err)
		}
	}
	if err := (vary.Options{Samples: 1, Periods: []float64{1e-9, 2e-9}}).Validate(); err != nil {
		t.Errorf("finite periods: got %v", err)
	}
}

// TestCriticalPathsZeroSteadyStateAllocs is the satellite guarantee
// behind BenchmarkMonteCarloSTA's allocs/op = 0: once the corner cache
// and one scratch are warm, the serial sampling path allocates nothing.
func TestCriticalPathsZeroSteadyStateAllocs(t *testing.T) {
	p, nl := chainNetlist(t, 16)
	e, err := vary.NewEngine(p, nl, nil, tech.DefaultVariation(), 1)
	if err != nil {
		t.Fatal(err)
	}
	st := exec.Resolve(exec.WithWorkers(1))
	dst := make([]float64, 64)
	if err := e.CriticalPathsInto(st, 0, 64, dst); err != nil { // warm cache + scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.CriticalPathsInto(st, 0, 64, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state CriticalPathsInto allocates %v objects/run, want 0", allocs)
	}
}
