package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestBeyondCountsSamplesAboveTheRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{0, 0.99, 0}, {99, 0.90, 9}, {100, 0.90, 10}, {199, 0.95, 9}, {200, 0.95, 10},
		// 0.99·1000 is 990 in exact arithmetic: exactly ten beyond.
		{999, 0.99, 9}, {1000, 0.99, 10}, {10000, 0.999, 10},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestNamedTailFailsWithoutTenBeyond(t *testing.T) {
	lat := make([]float64, 150)
	for i := range lat {
		lat[i] = float64(i)
	}
	r := &result{Workload: "w", E2E: map[string]metric{}}
	r.tail("p90_ms", lat, 0.90)
	if r.Failed != 0 || r.E2E["p90_ms"].Value != 134 || r.E2E["p90_ms"].N != 150 {
		t.Errorf("p90 of 150 samples: failed=%d metric=%+v", r.Failed, r.E2E["p90_ms"])
	}
	r.tail("p99_ms", lat, 0.99)
	if r.Failed != 1 {
		t.Errorf("p99 of 150 samples: failed=%d, want the run to fail", r.Failed)
	}
	if _, ok := r.E2E["p99_ms"]; ok {
		t.Error("unsupported p99 was reported")
	}
	traced := &result{Workload: "w", Trace: true, E2E: map[string]metric{}}
	traced.tail("p99_ms", lat, 0.99)
	if traced.Failed != 0 || len(traced.E2E) != 0 {
		t.Errorf("traced half-run: failed=%d metrics=%v, want the tail omitted", traced.Failed, traced.E2E)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{3.1, 0.5, 2.2, 9.9, 4.4, 7.0, 1.3}, 1.3, 7.0},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, %t; want %g, %g", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
	if got, want := median([]float64{4, 1, 3, 2}), 2.5; got != want {
		t.Errorf("median = %g, want %g", got, want)
	}
}

func TestVerdict(t *testing.T) {
	runs := func(vals ...float64) sideStats {
		var rs []result
		for i, v := range vals {
			rs = append(rs, result{Workload: "w", Seed: int64(i + 1), E2E: map[string]metric{"m": {Value: v}}})
		}
		return statsOf(rs, "w", "m")
	}
	lower := bound{share: 0.10}
	base := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	if v, _, _ := verdict(base, runs(105, 106, 104, 105, 107, 103, 105, 106, 104, 105), lower); v != "ok" {
		t.Errorf("+5%% within a 10%% bound: %s", v)
	}
	if v, _, _ := verdict(base, runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), lower); v != "REGRESSED" {
		t.Errorf("+20%% past a 10%% bound: %s", v)
	}
	v, wins, pairs := verdict(base, runs(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), lower)
	if v != "gain" || wins != 10 || pairs != 10 {
		t.Errorf("-10%% winning every pair: %s %d/%d", v, wins, pairs)
	}
	if v, _, _ := verdict(base, runs(99, 101, 99, 100, 102, 98, 100, 101, 99, 99), lower); v != "ok" {
		t.Errorf("noise must not read as a gain: %s", v)
	}
	noisy := runs(60, 140, 70, 130, 100, 65, 135, 100, 90, 110)
	if v, _, _ := verdict(noisy, runs(130, 50, 140, 120, 125, 150, 60, 130, 128, 120), lower); v != "unresolved" {
		t.Errorf("worse median past the bound inside a wider-than-bound spread: %s", v)
	}
	// +8% is inside the 10% bound, but the base's own runs spread by far
	// more than that: the runs cannot show the metric unchanged.
	if v, _, _ := verdict(noisy, runs(65, 150, 75, 140, 108, 70, 146, 108, 97, 119), lower); v != "unresolved" {
		t.Errorf("worse median inside the bound and a wider-than-bound spread: %s", v)
	}
	if v, _, _ := verdict(noisy, runs(150, 151, 152, 153, 154, 155, 156, 157, 158, 159), lower); v != "REGRESSED" {
		t.Errorf("every change run worse than every noisy base run: %s", v)
	}
	if v, _, _ := verdict(noisy, runs(50, 51, 52, 53, 54, 55, 56, 57, 58, 59), lower); v == "unresolved" || v == "REGRESSED" {
		t.Errorf("every change run better than every noisy base run: %s", v)
	}
	zero := runs(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if v, _, _ := verdict(zero, zero, bound{}); v != "ok" {
		t.Errorf("zero on both sides: %s", v)
	}
	if v, _, _ := verdict(zero, runs(1, 1, 1, 1, 1, 1, 1, 1, 1, 1), bound{}); v != "REGRESSED" {
		t.Errorf("rise from a zero base: %s", v)
	}
	higher := bound{share: 0.10, higher: true}
	if v, _, _ := verdict(base, runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), higher); v != "REGRESSED" {
		t.Errorf("-20%% throughput: %s", v)
	}
}
