package analytic

import (
	"math"
	"math/rand"
	"testing"

	"m3d/internal/tech"
	"m3d/internal/thermal"
)

// This file is the property-based invariant suite for the Sec. III
// analytical framework: randomized-but-valid Params/Load draws checked
// against the model's mathematical guarantees rather than point goldens.
// Every subtest logs its seed so a failure replays deterministically.

// invariantSeeds are the fixed seeds the suite runs at; each seed drives
// an independent stream of randomized machines and workloads.
var invariantSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765, 10946}

const invariantTol = 1e-9

// randParams draws a valid machine with B3D = scale·B2D for a uniform
// scale in [1, N] — the physically meaningful regime (Eq. 2 frees Si for
// at most N sub-systems, each fed from an equal bank partition), and
// exactly the regime in which Speedup ≤ N is a theorem (see
// TestInvariantSpeedupBoundedByN).
func randParams(rng *rand.Rand) Params {
	n := 1 + rng.Intn(16)
	b2d := 64 * math.Pow(2, 3*rng.Float64()) // [64, 512) bits/cycle
	scale := 1 + rng.Float64()*float64(n-1)  // [1, N)
	return Params{
		PPeak:    256 * math.Pow(2, 2*rng.Float64()),
		B2D:      b2d,
		B3D:      scale * b2d,
		N:        n,
		Alpha2D:  1e-12 * (1 + rng.Float64()),
		Alpha3D:  1e-13 * (1 + rng.Float64()),
		EC:       1e-12 * (1 + rng.Float64()),
		ECIdle:   1e-13 * (1 + rng.Float64()),
		EMIdle2D: 1e-11 * (1 + rng.Float64()),
		EMIdle3D: 1e-12 * (1 + rng.Float64()),
	}
}

// randLoad draws a valid workload for p: positive F0/D0 and a partition
// count covering the NPart < N, = N and > N branches of the N# rule.
func randLoad(rng *rand.Rand, p Params) Load {
	return Load{
		F0:    1e6 * (1 + 100*rng.Float64()),
		D0:    1e5 * (1 + 100*rng.Float64()),
		NPart: 1 + rng.Intn(2*p.N),
	}
}

// memBoundLoad draws a workload that stays memory-bound on the M3D side
// even at bandwidth scale bMax: D0·N/(B2D·bMax) ≥ F0/(min(N#, N)·PPeak). In
// this regime T3D = D0·N/B3D, so more bandwidth strictly shortens
// execution and idles nothing extra — the regime where EDP benefit is
// provably monotone in bandwidth (outside it the memory-idle term
// E_M^idle·(t − D0·N/B3D) grows with bandwidth and the claim is false).
func memBoundLoad(rng *rand.Rand, p Params, bMax float64) Load {
	w := randLoad(rng, p)
	nm := float64(min(w.NPart, p.N)) // randLoad's N# is at least 1
	// Cap F0 at a random fraction of the bound so the property is
	// exercised strictly inside the region, not only on its boundary.
	f0Bound := w.D0 * float64(p.N) * nm * p.PPeak / (p.B2D * bMax)
	w.F0 = f0Bound * (0.1 + 0.85*rng.Float64())
	return w
}

// TestInvariantSpeedupBoundedByN: with B3D ≤ N·B2D (randParams'
// construction), T3D ≥ T2D/N termwise, so Eq. 5 speedup can never exceed
// the parallel CS count N — parallelism is the only lever, and bandwidth
// per CS never exceeds the baseline's.
func TestInvariantSpeedupBoundedByN(t *testing.T) {
	for _, seed := range invariantSeeds {
		rng := rand.New(rand.NewSource(seed))
		t.Logf("seed %d", seed)
		for i := 0; i < 200; i++ {
			p := randParams(rng)
			w := randLoad(rng, p)
			s := Speedup(p, w)
			if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("seed %d draw %d: degenerate speedup %g (p=%+v w=%+v)", seed, i, s, p, w)
			}
			if bound := float64(p.N) * (1 + invariantTol); s > bound {
				t.Fatalf("seed %d draw %d: speedup %g exceeds N=%d (p=%+v w=%+v)", seed, i, s, p.N, p, w)
			}
		}
	}
}

// TestInvariantEDPMonotoneInBandwidth: at fixed N and a memory-bound
// workload, scaling M3D bandwidth up never lowers the EDP benefit.
func TestInvariantEDPMonotoneInBandwidth(t *testing.T) {
	scales := []float64{1, 1.5, 2, 3, 4, 6, 8, 12, 16}
	bMax := scales[len(scales)-1]
	for _, seed := range invariantSeeds {
		rng := rand.New(rand.NewSource(seed))
		t.Logf("seed %d", seed)
		for i := 0; i < 100; i++ {
			p := randParams(rng)
			w := memBoundLoad(rng, p, bMax)
			prev := math.Inf(-1)
			for _, sc := range scales {
				q := p
				q.B3D = p.B2D * sc
				res, err := Evaluate(q, w)
				if err != nil {
					t.Fatalf("seed %d draw %d scale %g: %v", seed, i, sc, err)
				}
				if res.EDPBenefit < prev*(1-invariantTol) {
					t.Fatalf("seed %d draw %d: EDP benefit fell %g → %g at scale %g (p=%+v w=%+v)",
						seed, i, prev, res.EDPBenefit, sc, q, w)
				}
				prev = res.EDPBenefit
			}
		}
	}
}

// TestInvariantThermalHeadroomMonotoneInTiers: at fixed per-tier power,
// every added tier pushes the Eq. 17 junction rise up (each tier heats
// through all resistances below it), so the headroom against the PDK
// budget never grows with stack depth.
func TestInvariantThermalHeadroomMonotoneInTiers(t *testing.T) {
	pdk := tech.Default130()
	for _, seed := range invariantSeeds {
		rng := rand.New(rand.NewSource(seed))
		t.Logf("seed %d", seed)
		for i := 0; i < 50; i++ {
			perTier := 0.5 + 10*rng.Float64()
			prevHeadroom := math.Inf(1)
			prevRise := 0.0
			for tiers := 1; tiers <= 16; tiers++ {
				powers := make([]float64, tiers)
				for j := range powers {
					powers[j] = perTier
				}
				rise := thermal.NewStack(pdk, powers).TempRiseK()
				if rise < prevRise-invariantTol {
					t.Fatalf("seed %d draw %d: rise fell %g → %g K at %d tiers (per-tier %g W)",
						seed, i, prevRise, rise, tiers, perTier)
				}
				headroom := pdk.MaxTempRiseK - rise
				if headroom > prevHeadroom+invariantTol {
					t.Fatalf("seed %d draw %d: headroom grew %g → %g K at %d tiers (per-tier %g W)",
						seed, i, prevHeadroom, headroom, tiers, perTier)
				}
				prevRise, prevHeadroom = rise, headroom
			}
		}
	}
}

// TestInvariantDegenerateMatchesBaseline: collapsing every M3D advantage
// — N=1, B3D=B2D, α_3D=α_2D, E_M^idle,3D=E_M^idle,2D — makes Eqs. 4/7
// coincide with Eqs. 1/6, so speedup, energy ratio and EDP benefit are
// all exactly 1 (within 1e-9). The area-model analogue: δ=1 (Case 1)
// and β small enough to not via-limit the cell (Case 2 δ=1) leave the
// geometry untouched.
func TestInvariantDegenerateMatchesBaseline(t *testing.T) {
	for _, seed := range invariantSeeds {
		rng := rand.New(rand.NewSource(seed))
		t.Logf("seed %d", seed)
		for i := 0; i < 200; i++ {
			p := randParams(rng)
			p.N = 1
			p.B3D = p.B2D
			p.Alpha3D = p.Alpha2D
			p.EMIdle3D = p.EMIdle2D
			w := randLoad(rng, p)
			res, err := Evaluate(p, w)
			if err != nil {
				t.Fatalf("seed %d draw %d: %v", seed, i, err)
			}
			for name, got := range map[string]float64{
				"speedup":      res.Speedup,
				"energy ratio": res.EnergyRatio,
				"edp benefit":  res.EDPBenefit,
			} {
				if math.Abs(got-1) > invariantTol {
					t.Fatalf("seed %d draw %d: degenerate %s = %.12g, want 1 (p=%+v w=%+v)",
						seed, i, name, got, p, w)
				}
			}
		}

		// Area-model degeneracy at δ=1: the footprint and the M3D CS
		// count match the unrelaxed Eq. 2 geometry.
		a := AreaModel{
			ACS:    1e6 * (1 + rng.Float64()),
			ACells: 1e6 * (1 + 10*rng.Float64()),
			APerif: 1e5 * rng.Float64(),
			ABusIO: 1e5 * rng.Float64(),
		}
		c1, err := a.Case1(1)
		if err != nil {
			t.Fatalf("seed %d: Case1(1): %v", seed, err)
		}
		if c1.Footprint != a.Total2D() {
			t.Fatalf("seed %d: δ=1 footprint %g ≠ A_2D %g", seed, c1.Footprint, a.Total2D())
		}
		if c1.N2DNew != 1 {
			t.Fatalf("seed %d: δ=1 grown baseline N = %d, want 1", seed, c1.N2DNew)
		}
		// β=1 with a via budget already inside the cell area keeps δ=1.
		delta, err := Case2Delta(1, 4, 100, 1e6)
		if err != nil || delta != 1 {
			t.Fatalf("seed %d: Case2Delta(β=1) = %g, %v, want 1", seed, delta, err)
		}
	}
}
