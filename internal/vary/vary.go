// Package vary models inter-tier process variation for the monolithic-3D
// stack and estimates its timing-yield and energy consequences by Monte
// Carlo. The physical picture follows Musavvir et al. (inter-tier
// process variation in monolithic 3D): the bottom FEOL Si CMOS tier sees
// ordinary drive-strength spread, while the BEOL tiers fabricated on top
// — CNFET access transistors and the RRAM/ILV stack — carry both a
// systematic degradation (CNFET Vt shift from low-temperature processing)
// and a wider random spread (CNFET drive σ, ILV resistance spread), with
// a tunable tier-to-tier correlation from shared lithography and thermal
// history.
//
// Each Monte-Carlo sample is a Corner: one multiplicative delay scale per
// tech.Tier, timed in slabs of corners by sta.BatchTimer over a timing
// graph compiled once per design (Compile returns it as a Timing, to
// which each (Variation, seed) binds its own Engine; the per-corner
// sta.Timer.SetTierDelayScale path is the tests' oracle), plus the
// matching analytic-model perturbations for EDP bands. Corners
// are drawn by a seeded, sample-indexed generator — Corner(i) is a pure
// function of (Variation, seed, i) — so a fan-out over the worker pool
// (exec.MapWith) returns deep-equal results at any pool width, the same
// determinism contract internal/dse relies on. Each corner's generator
// runs on a cornerSource: the stream of rand.NewSource(cornerSeed(i)),
// bit for bit, seeded in O(1) rather than by filling math/rand's
// 607-word register, so a draw costs ~0.1 µs instead of ~13 µs. The
// yield engine draws each corner inside the slab task that times it, so
// the draws share the pool with the batched STA.
package vary

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"m3d/internal/errs"
	"m3d/internal/tech"
)

// minScale floors every per-tier delay scale: no corner, however many
// sigma out, can make a tier infinitely fast (or invert delay signs).
const minScale = 0.05

// Corner is one sampled process corner: the per-tier multiplicative
// delay scales, indexed by tech.Tier. A scale of exactly 1.0 in every
// entry is bit-for-bit nominal timing (the σ=0 corner).
type Corner struct {
	// Index is the sample index the corner was drawn at.
	Index int
	// TierScale[t] multiplies every delay arc driven from tier t.
	TierScale [tech.NumTiers]float64
}

// Sampler draws correlated process corners from a seeded, sample-indexed
// RNG. It is stateless between draws: Corner(i) depends only on the
// variation parameters, the seed, and i, never on which corners were
// drawn before — the property that makes Monte-Carlo fan-outs
// width-deterministic.
//
// Because each draw is a pure function of (Variation, seed, i), corners
// may be cached: Prime(n) precomputes the first n corners once, after
// which Corner(i) is a slice read. A cold draw is four normal deviates
// on an O(1)-seeded cornerSource, so the cache saves little per read;
// it serves callers that re-read the same stream for every design point
// — the DSE's per-point EDP bands and m3ddse -variation. The yield
// engine reads each corner once and does not prime: its slab tasks draw
// uncached corners on their own reused generator (see corner).
type Sampler struct {
	v    tech.Variation
	seed uint64

	// primed is the append-only corner cache: an atomically published
	// prefix of the corner stream. Readers load the current slice
	// header; Prime extends under mu and publishes a longer prefix.
	// Cached and freshly drawn corners are bit-identical by
	// construction, so cache warmth never changes a result.
	mu     sync.Mutex
	primed atomic.Pointer[[]Corner]
}

// NewSampler validates the variation parameters and builds a sampler
// for the given seed. Invalid parameters match errs.ErrBadSpec.
func NewSampler(v tech.Variation, seed int64) (*Sampler, error) {
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("vary: %v: %w", err, errs.ErrBadSpec)
	}
	return &Sampler{v: v, seed: uint64(seed)}, nil
}

// Variation returns the sampler's variation parameters.
func (s *Sampler) Variation() tech.Variation { return s.v }

// mix is the splitmix64 finalizer: a high-quality 64-bit hash used to
// decorrelate per-sample RNG streams derived from (seed, index).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// clampScale floors a sampled delay scale at minScale.
func clampScale(s float64) float64 {
	if s < minScale {
		return minScale
	}
	return s
}

// Corner draws the i-th process corner. The draw order is fixed — one
// shared factor z0, then one idiosyncratic deviate per tier (Si, RRAM,
// CNFET) — so the sequence of deviates consumed never depends on the
// σ values; two samplers at different σ see identical z draws for the
// same (seed, i), which is what makes yield monotone comparisons across
// a σ ladder exact rather than statistical.
//
// Each tier's deviate is z_t = ρ·z0 + √(1−ρ²)·ε_t. At ρ=1 the √ term is
// exactly zero, so every tier sees the identical z0 (the single-corner
// limit); at σ=0 every scale is exactly 1.0 (0·z == 0 in IEEE-754), so
// the corner collapses bit-for-bit onto nominal timing.
func (s *Sampler) Corner(i int) Corner { return s.corner(nil, i) }

// corner returns corner i from the cache when the cache covers i, and
// otherwise draws it: on rng, a generator over a cornerSource, reseeded
// with cornerSeed(i), or on a fresh one when rng is nil. A reseeded
// cornerSource yields the same stream as a fresh one, so the cache and
// both draw routes give bit-identical corners; a caller that owns rng
// draws without allocating.
func (s *Sampler) corner(rng *rand.Rand, i int) Corner {
	if c := s.primed.Load(); c != nil && i >= 0 && i < len(*c) {
		return (*c)[i]
	}
	if rng == nil {
		return s.drawCorner(rand.New(newCornerSource(s.cornerSeed(i))), i)
	}
	rng.Seed(s.cornerSeed(i))
	return s.drawCorner(rng, i)
}

// cornerSeed derives the i-th draw's RNG seed from the sampler seed.
func (s *Sampler) cornerSeed(i int) int64 {
	return int64(mix(s.seed ^ mix(uint64(i))))
}

// drawCorner consumes the fixed four-deviate sequence from rng (already
// seeded with cornerSeed(i)) and builds the corner. rng runs on a
// cornerSource, whose stream equals rand.NewSource(cornerSeed(i))'s bit
// for bit and whose Seed is O(1), so Prime and the yield engine's slab
// tasks reseed one generator per corner without an allocation — or a
// bit of divergence from the math/rand stream the goldens pin.
func (s *Sampler) drawCorner(rng *rand.Rand, i int) Corner {
	z0 := rng.NormFloat64()
	rho := s.v.TierCorr
	idio := math.Sqrt(1 - rho*rho)
	zSi := rho*z0 + idio*rng.NormFloat64()
	zRRAM := rho*z0 + idio*rng.NormFloat64()
	zCN := rho*z0 + idio*rng.NormFloat64()

	var c Corner
	c.Index = i
	c.TierScale[tech.TierSiCMOS] = clampScale(1 + s.v.SiDriveSigma*zSi)
	c.TierScale[tech.TierRRAM] = clampScale(1 + s.v.ILVRSpread*zRRAM)
	c.TierScale[tech.TierCNFET] = clampScale(1 + s.v.CNFETVtShift + s.v.CNFETDriveSigma*zCN)
	return c
}

// Prime extends the corner cache to cover indices [0, n). It is safe to
// call concurrently with Corner readers (the cache is published
// atomically and only ever grows) and is idempotent: re-priming a
// covered prefix is a single atomic load. The draws run serially on the
// calling goroutine, so Prime is for callers that re-read the stream:
// the DSE's per-point EDP bands and m3ddse -variation prime their sample
// count once and read the same corners for every design point. A
// single pass such as a yield run skips the cache: the engine draws
// each corner on the pool, inside the slab that times it.
func (s *Sampler) Prime(n int) {
	if n > MaxSamples {
		n = MaxSamples
	}
	if n <= 0 {
		return
	}
	if c := s.primed.Load(); c != nil && len(*c) >= n {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var have []Corner
	if c := s.primed.Load(); c != nil {
		have = *c
	}
	if len(have) >= n {
		return
	}
	// Callers prime their whole sample count once, so the cache is
	// sized to exactly n.
	out := append(make([]Corner, 0, n), have...)
	rng := rand.New(newCornerSource(1))
	for i := len(out); i < n; i++ {
		rng.Seed(s.cornerSeed(i))
		out = append(out, s.drawCorner(rng, i))
	}
	s.primed.Store(&out)
}

// Quantiles summarizes a Monte-Carlo sample set by its 5th, 50th and
// 95th percentiles — the band the experiment tables report.
type Quantiles struct {
	P5  float64 `json:"p5"`
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
}

// QuantilesOf computes nearest-rank p5/p50/p95 over xs (which it does
// not modify). By construction P5 ≤ P50 ≤ P95. Empty input yields zeros.
func QuantilesOf(xs []float64) Quantiles {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return QuantilesSorted(sorted)
}

// QuantilesSorted is QuantilesOf over an already ascending slice: three
// index reads, no copy and no sort.
func QuantilesSorted(sorted []float64) Quantiles {
	if len(sorted) == 0 {
		return Quantiles{}
	}
	return Quantiles{
		P5:  nearestRank(sorted, 0.05),
		P50: nearestRank(sorted, 0.50),
		P95: nearestRank(sorted, 0.95),
	}
}

// MergeSorted merges the ascending slice batch into the ascending slice
// sorted and returns the ascending result. It appends to sorted, so it
// reuses sorted's backing array when that has room, and merges from the
// back in O(len(sorted)+len(batch)) without a second buffer. A streamed
// run that merges each sorted batch in keeps its whole sample prefix
// ordered for QuantilesSorted and CurveSorted, instead of copying and
// sorting the prefix once per refinement.
func MergeSorted(sorted, batch []float64) []float64 {
	i := len(sorted) - 1
	out := append(sorted, batch...)
	for j, k := len(batch)-1, len(out)-1; j >= 0; k-- {
		if i >= 0 && out[i] > batch[j] {
			out[k] = out[i]
			i--
		} else {
			out[k] = batch[j]
			j--
		}
	}
	return out
}

// nearestRank returns the nearest-rank p-quantile of an ascending slice.
func nearestRank(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
