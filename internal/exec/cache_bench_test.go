package exec

import (
	"fmt"
	"testing"
)

// The cache benchmarks pin the cost of the three Cache regimes the
// service runs in: unbounded hit (the PR 2 baseline), bounded hit (LRU
// bookkeeping on the hot path), and bounded churn (every call interns a
// fresh key and evicts the tail). scripts/benchdiff.sh tracks them
// against bench/BENCH_0.json.

func BenchmarkCacheHitUnbounded(b *testing.B) {
	var c Cache[int, int]
	c.Do(0, func() (int, error) { return 42, nil })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, _ := c.Do(0, func() (int, error) { return 0, nil }); v != 42 {
			b.Fatal("miss")
		}
	}
}

func BenchmarkCacheHitLRU(b *testing.B) {
	c := NewLRU[int, int](64)
	for k := 0; k < 64; k++ {
		c.Do(k, func() (int, error) { return k, nil })
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 63
		if v, _ := c.Do(k, func() (int, error) { return -1, nil }); v != k {
			b.Fatal("miss")
		}
	}
}

func BenchmarkCacheChurnLRU(b *testing.B) {
	c := NewLRU[int, int](64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Do(i, func() (int, error) { return i, nil })
	}
}

func BenchmarkCacheHitLRUParallel(b *testing.B) {
	c := NewLRU[string, int](64)
	keys := make([]string, 64)
	for k := range keys {
		keys[k] = fmt.Sprintf("key-%d", k)
		c.Do(keys[k], func() (int, error) { return k, nil })
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := keys[i&63]
			i++
			if _, err := c.Do(k, func() (int, error) { return -1, nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
}
