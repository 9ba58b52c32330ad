package flow

import (
	"crypto/sha256"
	"testing"

	"m3d/internal/exec"
	"m3d/internal/tech"
)

// benchSpecs is a reduced RunMany batch: four distinct tiny SoCs (different
// seeds) so nothing hits the memo cache and every spec runs the full
// synthesize→partition→place→route→sign-off pipeline.
func benchSpecs() []SoCSpec {
	base := SoCSpec{
		ArrayRows: 2, ArrayCols: 2,
		RRAMCapBits:    2 << 20,
		BankWordBits:   64,
		GlobalSRAMBits: 64 << 10,
	}
	specs := make([]SoCSpec, 4)
	for i := range specs {
		specs[i] = base
		specs[i].Seed = int64(i + 1)
	}
	return specs
}

// BenchmarkRunFlowReduced runs one reduced spec through the full
// synthesize→place→route→sign-off pipeline — the perf pass's headline
// number. Tracked by scripts/benchdiff.sh for both ns/op and allocs/op.
func BenchmarkRunFlowReduced(b *testing.B) {
	p := tech.Default130()
	spec := benchSpecs()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaseStudyPair is one operation of the benchmark's
// flow-casestudy workload: the reduced Sec. II case study (the 2D
// baseline and its two-CS M3D twin), then the GDS and DEF of both
// designs streamed into sha256. `make profile` profiles it, so the
// exports show next to the flow stages.
func BenchmarkCaseStudyPair(b *testing.B) {
	p := tech.Default130()
	spec := benchSpecs()[0]
	h := sha256.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		twoD, m3d, err := CaseStudy(p, spec, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range []*Result{twoD, m3d} {
			h.Reset()
			if err := res.WriteGDS(h); err != nil {
				b.Fatal(err)
			}
			h.Reset()
			if err := res.WriteDEF(h); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRunManySerial runs the batch through sequential Run calls —
// the pre-engine behaviour.
func BenchmarkRunManySerial(b *testing.B) {
	p := tech.Default130()
	specs := benchSpecs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := Run(p, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRunManyParallel runs the same batch through the worker pool at
// the default width (GOMAXPROCS or M3D_WORKERS).
func BenchmarkRunManyParallel(b *testing.B) {
	p := tech.Default130()
	specs := benchSpecs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunMany(p, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunManyParallelWidth4 pins four workers — one per spec — the
// configuration the ISSUE's speedup criterion measures on a ≥4-core host.
func BenchmarkRunManyParallelWidth4(b *testing.B) {
	p := tech.Default130()
	specs := benchSpecs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunMany(p, specs, exec.WithWorkers(4)); err != nil {
			b.Fatal(err)
		}
	}
}
