package thermal

import (
	"math"
	"testing"
	"testing/quick"

	"m3d/internal/tech"
)

func TestEq17HandComputed(t *testing.T) {
	// Two tiers: R0=2, R1=0.5 P1=1W, R2=0.5 P2=2W.
	// rise = (0.5+2)*1 + (0.5+0.5+2)*2 = 2.5 + 6 = 8.5 K.
	s := Stack{R0KPerW: 2, Tiers: []TierLoad{
		{RthetaKPerW: 0.5, PowerW: 1},
		{RthetaKPerW: 0.5, PowerW: 2},
	}}
	if got := s.TempRiseK(); math.Abs(got-8.5) > 1e-12 {
		t.Errorf("TempRise = %g, want 8.5", got)
	}
}

func TestEmptyStackNoRise(t *testing.T) {
	s := Stack{R0KPerW: 2}
	if s.TempRiseK() != 0 {
		t.Error("no tiers, no rise")
	}
	if !s.Feasible(0) {
		t.Error("zero rise is feasible at zero budget")
	}
}

func TestNewStackFromPDK(t *testing.T) {
	p := tech.Default130()
	s := NewStack(p, []float64{0.2, 0.2, 0.2})
	if len(s.Tiers) != 3 || s.R0KPerW != p.RthetaSink {
		t.Fatalf("stack construction wrong: %+v", s)
	}
	for _, tier := range s.Tiers {
		if tier.RthetaKPerW != p.RthetaPerTier {
			t.Error("per-tier resistance not from PDK")
		}
	}
}

func TestRiseMonotoneInTiers(t *testing.T) {
	p := tech.Default130()
	f := func(nRaw uint8, pRaw uint8) bool {
		n := 1 + int(nRaw)%12
		pw := 0.05 + float64(pRaw)/255.0
		powers := make([]float64, n)
		for i := range powers {
			powers[i] = pw
		}
		r1 := NewStack(p, powers).TempRiseK()
		r2 := NewStack(p, append(powers, pw)).TempRiseK()
		return r2 > r1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUpperTiersCostMore(t *testing.T) {
	// Moving the same power higher in the stack increases the rise.
	p := tech.Default130()
	low := NewStack(p, []float64{1.0, 0.0, 0.0}).TempRiseK()
	high := NewStack(p, []float64{0.0, 0.0, 1.0}).TempRiseK()
	if high <= low {
		t.Errorf("power high in the stack (%g) should cost more than low (%g)", high, low)
	}
}

func TestMaxTiers(t *testing.T) {
	p := tech.Default130()
	// rise(Y) = sum_{i=1..Y} (i*Rt + R0) * P. With P=2W, R0=2, Rt=0.6:
	// Y=10: sum = P*(R0*Y + Rt*Y(Y+1)/2) = 2*(20+33) = 106 > 60.
	// Y=6: 2*(12+12.6) = 49.2 <= 60; Y=7: 2*(14+16.8)=61.6 > 60 → max 6.
	if got := MaxTiers(p, 2.0); got != 6 {
		t.Errorf("MaxTiers(2W) = %d, want 6", got)
	}
	// Tiny power: effectively unbounded but finite.
	if got := MaxTiers(p, 1e-12); got < 1000 {
		t.Errorf("negligible power should allow many tiers, got %d", got)
	}
	// Huge power: not even one tier.
	if got := MaxTiers(p, 1000); got != 0 {
		t.Errorf("1kW per tier should allow 0 tiers, got %d", got)
	}
}

func TestMaxTiersConsistentWithFeasible(t *testing.T) {
	p := tech.Default130()
	f := func(pRaw uint8) bool {
		pw := 0.5 + float64(pRaw)/32.0
		y := MaxTiers(p, pw)
		if y == 0 {
			powers := []float64{pw}
			return !NewStack(p, powers).Feasible(p.MaxTempRiseK)
		}
		at := make([]float64, y)
		over := make([]float64, y+1)
		for i := range at {
			at[i] = pw
		}
		for i := range over {
			over[i] = pw
		}
		return NewStack(p, at).Feasible(p.MaxTempRiseK) &&
			!NewStack(p, over).Feasible(p.MaxTempRiseK)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHotspotRise(t *testing.T) {
	p := tech.Default130()
	s := NewStack(p, []float64{1.0})
	rise, err := HotspotRiseK(s, 0.5, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	// 0.5 W/mm² × 2 mm² × (2.0+0.6) K/W = 2.6 K.
	if math.Abs(rise-2.6) > 1e-9 {
		t.Errorf("hotspot rise = %g, want 2.6", rise)
	}
	if _, err := HotspotRiseK(s, 0.5, 0); err == nil {
		t.Error("zero spreading area should fail")
	}
}
