package route

import "testing"

// BenchmarkRouteNets measures the negotiated-congestion router — A*
// search dominates — on a placed 2x2 systolic block. Tracked by
// scripts/benchdiff.sh for both ns/op and allocs/op.
func BenchmarkRouteNets(b *testing.B) {
	fx := placedFixture(b, 2, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Route(fx.fp, fx.nl, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
