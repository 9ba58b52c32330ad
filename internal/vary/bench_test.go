package vary_test

import (
	"testing"

	"m3d/internal/exec"
	"m3d/internal/tech"
	"m3d/internal/vary"
)

// BenchmarkMonteCarloSTA is the benchdiff-tracked cost of Monte-Carlo
// timing: one 32-corner window on a 16-stage chain, serial so the
// number is scheduling-independent. Since the corner-batched kernel the
// window is ONE levelization walk into caller-owned storage. The engine
// draws every uncached corner inside the slab that times it, so the
// warm-up primes the sampler's cache explicitly: the loop then times the
// batched kernel alone, not 32 corner draws per op (the Yield4096
// benchmark below gates the draws). The warm-up call outside the timed
// region fills the scratch free list, so the loop pins the
// zero-steady-state-alloc contract (allocs/op must stay 0 —
// scripts/benchdiff.sh fails on any allocation the base commit did not
// make).
func BenchmarkMonteCarloSTA(b *testing.B) {
	p, nl := chainNetlist(b, 16)
	e, err := vary.NewEngine(p, nl, nil, tech.DefaultVariation(), 1)
	if err != nil {
		b.Fatal(err)
	}
	st := exec.Resolve(exec.WithWorkers(1))
	dst := make([]float64, 32)
	e.Sampler().Prime(32)
	if err := e.CriticalPathsInto(st, 0, 32, dst); err != nil { // warm scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.CriticalPathsInto(st, 0, 32, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloYield4096 is a full 4096-corner yield window,
// serial: the benchdiff-tracked cost of draws plus timing, and the
// profile target behind `make profile-yield`. The sampler is never
// primed, so every op draws its 4096 corners inside the slabs, as a real
// /v1/yield request does. Each draw reseeds an O(1) cornerSource
// (~0.1 µs); a return to math/rand's 607-word reseed per corner costs
// ~50× more per op and fails the gate. The warm-up call fills the
// scratch free list outside the timed region, so allocs/op is 0 at any
// iteration count and must stay 0.
func BenchmarkMonteCarloYield4096(b *testing.B) {
	p, nl := chainNetlist(b, 16)
	e, err := vary.NewEngine(p, nl, nil, tech.DefaultVariation(), 1)
	if err != nil {
		b.Fatal(err)
	}
	st := exec.Resolve(exec.WithWorkers(1))
	dst := make([]float64, 4096)
	if err := e.CriticalPathsInto(st, 0, 4096, dst); err != nil { // warm scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.CriticalPathsInto(st, 0, 4096, dst); err != nil {
			b.Fatal(err)
		}
	}
}
