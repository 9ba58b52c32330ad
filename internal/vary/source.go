package vary

import "math/rand"

// math/rand's generator is an additive lagged-Fibonacci register of
// rngLen words with tap rngTap. Seed fills the register from a Lehmer
// LCG (x ← 48271·x mod 2³¹−1) XORed with a fixed table, rngCooked, and
// every later output is the sum of two register words. A corner draw
// reads only its first few outputs, so cornerSource computes exactly the
// words those outputs read, straight from the seed, instead of filling
// all 607 words per corner.
const (
	rngLen   = 607
	rngTap   = 273
	lcgMod   = 1<<31 - 1
	lcgMul   = 48271
	zeroSeed = 89482311 // the reduced seed math/rand substitutes for 0
)

var (
	// lcgPow[n] = 48271ⁿ mod 2³¹−1. Register word i reads the LCG states
	// after 21+3i, 22+3i and 23+3i steps, so n runs to 23+3·606 = 1841.
	lcgPow [3*rngLen + 21]uint64
	// rngCooked is math/rand's unexported seeding table, recovered at
	// init from the public stream of rand.NewSource(1).
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for n := range lcgPow {
		lcgPow[n] = p
		p = p * lcgMul % lcgMod
	}

	// Output k (1-based) of a fresh source is vec[feed] + vec[tap] with
	// tap = 607−k and feed = 334−k mod 607, and the sum is written back
	// to vec[feed]. For k > 273 the tap word is output k−273, so those
	// outputs expose the seeded words at (941−k) mod 607 — positions
	// 0…60 and 334…606 — and outputs k ≤ 273, each the sum of seeded
	// words 334−k and 607−k, give the rest.
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	var vec [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		vec[(2*rngLen-rngTap-k)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[rngLen-rngTap-k] = out[k] - vec[rngLen-k]
	}
	for i := range vec {
		rngCooked[i] = vec[i] ^ lcgWord(1, i)
	}
}

// lcgWord is the LCG part of register word i for a reduced seed: the
// three states it reads, packed at bit offsets 40, 20 and 0.
func lcgWord(seed uint64, i int) uint64 {
	return seed*lcgPow[21+3*i]%lcgMod<<40 ^
		seed*lcgPow[22+3*i]%lcgMod<<20 ^
		seed*lcgPow[23+3*i]%lcgMod
}

// cornerSource is a rand.Source64 whose stream is bit-identical to
// rand.NewSource(seed)'s and whose Seed is O(1): it keeps only the
// reduced seed and a count of outputs drawn. Output k ≤ 273 is the sum
// of seeded words 334−k and 607−k, neither yet overwritten, so it costs
// six modular multiplies. Later outputs read words the stream has
// already rewritten; there the source replays math/rand's own generator
// to the same position and continues on it. A four-deviate corner draw
// practically never gets that far, but the stream stays exact if it does.
type cornerSource struct {
	seed uint64        // reduced seed, in [1, 2³¹−2]
	n    int           // outputs drawn since Seed
	fb   rand.Source64 // math/rand's own generator, past output rngTap
}

// newCornerSource returns a cornerSource seeded with seed.
func newCornerSource(seed int64) *cornerSource {
	s := new(cornerSource)
	s.Seed(seed)
	return s
}

// Seed reduces seed exactly as math/rand does and rewinds the stream.
func (s *cornerSource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.n = 0
}

// Uint64 returns the next output of rand.NewSource(seed).
func (s *cornerSource) Uint64() uint64 {
	s.n++
	if s.n <= rngTap {
		i, j := rngLen-rngTap-s.n, rngLen-s.n
		return (lcgWord(s.seed, i) ^ rngCooked[i]) + (lcgWord(s.seed, j) ^ rngCooked[j])
	}
	if s.n == rngTap+1 {
		s.fb = rand.NewSource(int64(s.seed)).(rand.Source64)
		for k := 1; k < s.n; k++ {
			s.fb.Uint64()
		}
	}
	return s.fb.Uint64()
}

// Int63 returns the next output of rand.NewSource(seed) as math/rand's
// Int63 does: the low 63 bits of Uint64.
func (s *cornerSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
