package analytic

import (
	"testing"

	"m3d/internal/exec"
)

// benchGrid is the Fig. 8 sweep shape scaled up (denser axes) so the
// serial-vs-parallel comparison measures per-point work, not setup.
var (
	benchCS = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128}
	benchBW = []float64{0.5, 1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32}
)

func benchLoad() (Params, Load) {
	p := equivParams()
	return p, Load{F0: 16e6, D0: 1e6, NPart: 64}
}

// BenchmarkSweepSerial is the seed's nested-loop sweep, kept as the
// reference implementation.
func BenchmarkSweepSerial(b *testing.B) {
	p, w := benchLoad()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sweepBandwidthCSSerial(p, w, benchCS, benchBW); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the same grid through the exec pool at the
// default pool width.
func BenchmarkSweepParallel(b *testing.B) {
	p, w := benchLoad()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SweepBandwidthCS(p, w, benchCS, benchBW); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallelWidth8 pins the pool width explicitly, so runs on
// many-core machines report the scaling the ISSUE's criterion targets.
func BenchmarkSweepParallelWidth8(b *testing.B) {
	p, w := benchLoad()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SweepBandwidthCS(p, w, benchCS, benchBW, exec.WithWorkers(8)); err != nil {
			b.Fatal(err)
		}
	}
}
