package vary_test

import (
	"errors"
	"reflect"
	"testing"

	"m3d/internal/analytic"
	"m3d/internal/arch"
	"m3d/internal/core"
	"m3d/internal/errs"
	"m3d/internal/exec"
	"m3d/internal/tech"
	"m3d/internal/vary"
	"m3d/internal/workload"
)

// TestYieldWidthDeterminism is the acceptance-criteria gate: a
// 4096-sample Monte-Carlo yield run must be deep-equal at worker widths
// 1, 2 and 8. Corners are sample-indexed and MapWith writes each result
// at its input index, so scheduling can never reorder or change a value.
func TestYieldWidthDeterminism(t *testing.T) {
	p, nl := chainNetlist(t, 10)
	e, err := vary.NewEngine(p, nl, nil, tech.DefaultVariation(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var results []*vary.Result
	for _, w := range []int{1, 2, 8} {
		res, err := e.Analyze(vary.Options{Samples: 4096}, exec.WithWorkers(w))
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		results = append(results, res)
	}
	for i, res := range results[1:] {
		if !reflect.DeepEqual(results[0], res) {
			t.Fatalf("width %d result differs from width 1", []int{2, 8}[i])
		}
	}
}

// TestYieldBatchSplitDeterminism pins the property the /v1/yield stream
// rests on: Refine in any window size refines one prefix of the samples
// per window and ends deep-equal to Analyze, because samples are
// index-addressed. An emit that returns false stops it after one window.
func TestYieldBatchSplitDeterminism(t *testing.T) {
	p, nl := chainNetlist(t, 10)
	e, err := vary.NewEngine(p, nl, nil, tech.DefaultVariation(), 11)
	if err != nil {
		t.Fatal(err)
	}
	o := vary.Options{Samples: 300}
	whole, err := e.Analyze(o, exec.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{0, 1, 7, 128, 299, 300, 1000} {
		var got []*vary.Result
		if err := e.Refine(o, batch, func(r *vary.Result) bool {
			got = append(got, r)
			return true
		}, exec.WithWorkers(4)); err != nil {
			t.Fatal(err)
		}
		window := batch
		if window < 1 || window > o.Samples {
			window = o.Samples
		}
		if want := (o.Samples + window - 1) / window; len(got) != want {
			t.Fatalf("batch %d: %d refinements, want %d", batch, len(got), want)
		}
		for i, r := range got {
			n := min((i+1)*window, o.Samples)
			if !reflect.DeepEqual(r.CritPathS, whole.CritPathS[:n]) {
				t.Fatalf("batch %d refinement %d: samples are not the first %d of Analyze's", batch, i, n)
			}
			if want := vary.QuantilesOf(whole.CritPathS[:n]); r.CritQuantiles != want {
				t.Fatalf("batch %d refinement %d: band %+v, want %+v", batch, i, r.CritQuantiles, want)
			}
		}
		if last := got[len(got)-1]; !reflect.DeepEqual(last, whole) {
			t.Fatalf("batch %d: final refinement differs from Analyze", batch)
		}
	}
	calls := 0
	if err := e.Refine(o, 7, func(*vary.Result) bool { calls++; return false }); err != nil || calls != 1 {
		t.Fatalf("stopped refinement: %d emits, err %v; want 1, nil", calls, err)
	}
}

// TestYieldCacheWarmthIndependence re-runs the same analysis on one
// engine: the second pass reuses pooled slab scratch whose arrival lanes
// hold the first pass's values and must still be deep-equal to the
// first.
func TestYieldCacheWarmthIndependence(t *testing.T) {
	p, nl := chainNetlist(t, 10)
	e, err := vary.NewEngine(p, nl, nil, tech.DefaultVariation(), 13)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := e.Analyze(vary.Options{Samples: 512}, exec.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.Analyze(vary.Options{Samples: 512}, exec.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm-pool rerun differs from cold run")
	}
}

// TestEDPBandDeterminism checks the analytic-model band: the serial
// corner loop is trivially width-independent, but the band must also be
// reproducible across fresh samplers at the same seed, and invariant to
// splitting the sample range (index-addressed corners again).
func TestEDPBandDeterminism(t *testing.T) {
	pdk := tech.Default130()
	a2d, a3d, _, err := core.CaseStudyPair(pdk)
	if err != nil {
		t.Fatal(err)
	}
	am, err := core.AreaModel(pdk, arch.MB64)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := core.Loads(a2d, workload.ResNet18())
	if err != nil {
		t.Fatal(err)
	}
	pr := core.Params(a2d, a3d)
	d := analytic.DesignPoint{Delta: 2, TierPairs: 2, BWScale: 1}

	mk := func() *vary.Sampler {
		s, err := vary.NewSampler(tech.DefaultVariation(), 99)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	b1, err := vary.EDPBand(pr, am, loads, d, mk(), 2048)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := vary.EDPBand(pr, am, loads, d, mk(), 2048)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatalf("EDP bands differ across fresh samplers: %+v vs %+v", b1, b2)
	}
}

// TestEDPSamplesBadCount pins the sample-count bounds of EDPSamples and
// EDPBand (and so of m3d.VariationEDPSamples/VariationEDPBand): a count
// outside [1, MaxSamples] matches errs.ErrBadSpec instead of panicking
// in makeslice (negative) or returning an all-zero band (zero).
func TestEDPSamplesBadCount(t *testing.T) {
	s, err := vary.NewSampler(tech.DefaultVariation(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := analytic.DesignPoint{Delta: 1, TierPairs: 1, BWScale: 1}
	for _, n := range []int{-1, 0, vary.MaxSamples + 1} {
		if _, err := vary.EDPSamples(analytic.Params{}, analytic.AreaModel{}, nil, d, s, n); !errors.Is(err, errs.ErrBadSpec) {
			t.Errorf("EDPSamples(n=%d) error = %v, want ErrBadSpec", n, err)
		}
		if _, err := vary.EDPBand(analytic.Params{}, analytic.AreaModel{}, nil, d, s, n); !errors.Is(err, errs.ErrBadSpec) {
			t.Errorf("EDPBand(n=%d) error = %v, want ErrBadSpec", n, err)
		}
	}
}
