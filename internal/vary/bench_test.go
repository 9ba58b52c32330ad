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
// batched kernel alone, not 32 generator reseeds per op. The warm-up
// call outside the timed region fills the scratch free list, so the loop
// pins the zero-steady-state-alloc contract (allocs/op must stay 0 —
// benchdiff fails on any alloc regression).
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

// BenchmarkMonteCarloYield4096 is the profile target behind
// `make profile-yield`: a full 4096-corner yield window, serial, sized
// so CPU/heap profiles show the batched kernel's steady state rather
// than setup. The sampler is never primed, so every op also draws its
// 4096 corners inside the slabs, as a real /v1/yield request does, and
// the profile shows what a request pays for draws next to timing. Not
// benchdiff-tracked (it is a profiling vehicle; the 32-corner benchmark
// above is the regression gate).
func BenchmarkMonteCarloYield4096(b *testing.B) {
	p, nl := chainNetlist(b, 16)
	e, err := vary.NewEngine(p, nl, nil, tech.DefaultVariation(), 1)
	if err != nil {
		b.Fatal(err)
	}
	st := exec.Resolve(exec.WithWorkers(1))
	dst := make([]float64, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.CriticalPathsInto(st, 0, 4096, dst); err != nil {
			b.Fatal(err)
		}
	}
}
