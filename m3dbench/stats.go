package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a reported tail percentile must leave
// above it; with fewer, the percentile is an artefact of one or two
// outliers and is not reported.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of the p-quantile among
// n samples. The epsilon keeps p·n that is integral in exact arithmetic
// (0.99·1000) from rounding up past it.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank p-quantile of sorted (ascending)
// samples; 0 for none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond counts the samples of n that lie above the p-quantile's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle sample, or the mean of the two middle samples for
// an even count (Python's statistics.median); 0 for none.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads computed here match the ones a reader recomputes
// with that call. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, false
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3), true
}
