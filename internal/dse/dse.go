// Package dse is the adaptive multi-objective design-space explorer: a
// Pareto search over the combined Case 1 × Case 3 design space of the
// paper — BEOL access-FET width relaxation δ, interleaved compute+memory
// tier pairs Y, and memory bandwidth scale — ranking designs by four
// objectives: speedup, EDP benefit, thermal headroom (Eq. 17) and chip
// footprint. It replaces exhaustive grids: instead of evaluating every
// lattice cell it seeds a coarse sample, keeps a Pareto archive with
// dominated-region pruning, and refines on a halving ε-grid around the
// non-dominated points until the frontier closes under its stride-1
// neighbourhood, typically issuing a small fraction of the brute-force
// grid's model evaluations (see EXPERIMENTS.md).
//
// Determinism contract (the exec.Map discipline): candidate
// batches are generated single-threaded in canonical lattice order —
// seeded random exploration included — evaluated on the exec worker pool
// (results land at their input index), and committed to the archive
// serially in that order. Every flushed Update and the final Result are
// therefore deep-equal at any worker width. Points are not memoized: one
// costs about 2 µs, and building the case-study machine (one CS netlist
// measurement) is nearly all of a default exploration's cost.
package dse

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"m3d/internal/analytic"
	"m3d/internal/core"
	"m3d/internal/errs"
	"m3d/internal/exec"
	"m3d/internal/flow"
	"m3d/internal/macro"
	"m3d/internal/obs"
	"m3d/internal/tech"
	"m3d/internal/thermal"
	"m3d/internal/vary"
)

// maxGridCells bounds the lattice of one exploration (mirrors the serve
// tier's sweep-point bound).
const maxGridCells = 65536

// maxAxisSteps bounds one axis.
const maxAxisSteps = 512

// maxTierPairs bounds the Case 3 stack depth (far above the thermally
// feasible range).
const maxTierPairs = 64

// Axis is a uniform float axis: Steps values from Min to Max inclusive
// (Steps == 1 collapses to Min).
type Axis struct {
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Steps int     `json:"steps"`
}

// Value returns lattice value i ∈ [0, Steps).
func (a Axis) Value(i int) float64 {
	if a.Steps <= 1 {
		return a.Min
	}
	return a.Min + (a.Max-a.Min)*float64(i)/float64(a.Steps-1)
}

// IntAxis is a unit-stride integer axis, Min..Max inclusive.
type IntAxis struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

// Steps reports the number of lattice values.
func (a IntAxis) Steps() int { return a.Max - a.Min + 1 }

// Value returns lattice value i ∈ [0, Steps()).
func (a IntAxis) Value(i int) int { return a.Min + i }

// Space is the boxed design space the explorer samples. The zero value
// of any axis selects its default (DefaultSpace); PerTierPowerW ≤ 0
// selects 2 W per pair.
type Space struct {
	// Deltas is the Case 1 BEOL FET width relaxation axis (δ ≥ 1).
	Deltas Axis `json:"deltas"`
	// TierPairs is the Case 3 interleaved pair axis (Y ≥ 1).
	TierPairs IntAxis `json:"tier_pairs"`
	// BWScales scales the M3D total memory bandwidth (> 0).
	BWScales Axis `json:"bw_scales"`
	// PerTierPowerW is the power dissipated per interleaved pair, feeding
	// the Eq. 17 thermal headroom objective.
	PerTierPowerW float64 `json:"per_tier_power_w,omitempty"`
}

// DefaultSpace is the stock exploration box: δ ∈ [1, 2.5] in 16 steps,
// Y ∈ [1, 6], bandwidth scale ∈ [1, 8] in 8 steps, 2 W per pair.
func DefaultSpace() Space {
	return Space{
		Deltas:        Axis{Min: 1, Max: 2.5, Steps: 16},
		TierPairs:     IntAxis{Min: 1, Max: 6},
		BWScales:      Axis{Min: 1, Max: 8, Steps: 8},
		PerTierPowerW: 2,
	}
}

// WithDefaults fills zero-valued axes and the per-pair power from
// DefaultSpace — the normalization Explore and BruteForce apply before
// validating.
func (s Space) WithDefaults() Space {
	def := DefaultSpace()
	if s.Deltas == (Axis{}) {
		s.Deltas = def.Deltas
	}
	if s.TierPairs == (IntAxis{}) {
		s.TierPairs = def.TierPairs
	}
	if s.BWScales == (Axis{}) {
		s.BWScales = def.BWScales
	}
	if s.PerTierPowerW <= 0 {
		s.PerTierPowerW = def.PerTierPowerW
	}
	return s
}

// Validate checks the (defaults-applied) space. Violations match
// errs.ErrBadSpec.
func (s Space) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("dse: %s: %w", fmt.Sprintf(format, args...), errs.ErrBadSpec)
	}
	if s.Deltas.Steps < 1 || s.Deltas.Steps > maxAxisSteps {
		return bad("delta axis steps %d outside [1, %d]", s.Deltas.Steps, maxAxisSteps)
	}
	if s.Deltas.Min < 1 || s.Deltas.Max < s.Deltas.Min {
		return bad("delta axis [%g, %g] needs 1 ≤ min ≤ max", s.Deltas.Min, s.Deltas.Max)
	}
	if s.BWScales.Steps < 1 || s.BWScales.Steps > maxAxisSteps {
		return bad("bandwidth axis steps %d outside [1, %d]", s.BWScales.Steps, maxAxisSteps)
	}
	if s.BWScales.Min <= 0 || s.BWScales.Max < s.BWScales.Min {
		return bad("bandwidth axis [%g, %g] needs 0 < min ≤ max", s.BWScales.Min, s.BWScales.Max)
	}
	if s.TierPairs.Min < 1 || s.TierPairs.Max < s.TierPairs.Min || s.TierPairs.Max > maxTierPairs {
		return bad("tier pair axis [%d, %d] needs 1 ≤ min ≤ max ≤ %d",
			s.TierPairs.Min, s.TierPairs.Max, maxTierPairs)
	}
	if g := s.GridSize(); g > maxGridCells {
		return bad("grid of %d cells exceeds the limit %d", g, maxGridCells)
	}
	return nil
}

// GridSize is the full lattice cell count — what a brute-force sweep
// would evaluate.
func (s Space) GridSize() int {
	return s.Deltas.Steps * s.TierPairs.Steps() * s.BWScales.Steps
}

// coord is one lattice cell (axis indices).
type coord struct{ d, y, b int }

func coordLess(a, b coord) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	if a.y != b.y {
		return a.y < b.y
	}
	return a.b < b.b
}

// Options tune one exploration.
type Options struct {
	// MaxEvals bounds the number of point evaluations this exploration
	// may issue; ≤ 0 selects GridSize()/4 (the adaptive search is
	// expected to beat a quarter of brute force).
	MaxEvals int
	// Seed drives the per-round randomized exploration samples. The same
	// seed yields the same search at any worker width.
	Seed int64
	// Explore is the number of extra seeded random lattice samples mixed
	// into the initial coarse batch (escape hatch for frontier islands
	// the stride lattice misses): 0 selects 8, negative disables.
	Explore int
	// RequireThermal drops points whose Eq. 17 temperature rise exceeds
	// the PDK budget (negative thermal headroom) from the archive.
	RequireThermal bool

	// VarySamples switches the exploration into variation-aware mode:
	// every point is additionally evaluated under this many process
	// corners drawn from the PDK's Variation parameters, the p5/p50/p95
	// EDP band lands on the Point, and EDPBenefit becomes the band's p5
	// so the Pareto search optimizes yield-constrained EDP. 0 (the
	// default) is nominal evaluation.
	VarySamples int
	// VarySeed selects the corner stream for variation-aware mode; the
	// same (Variation, VarySeed, VarySamples) reproduces every band.
	VarySeed int64
}

// Update is one streamed frontier snapshot: the current non-dominated
// set plus the number of evaluations issued so far. The final update of
// a run carries Done plus the run totals.
type Update struct {
	Round       int     `json:"round"`
	Evaluations int     `json:"evaluations"`
	Frontier    []Point `json:"frontier"`
	Done        bool    `json:"done,omitempty"`
	// GridSize and Exhausted are set on the Done update: the brute-force
	// cell count for comparison, and whether the evaluation budget ran
	// out before the frontier closed.
	GridSize  int  `json:"grid_size,omitempty"`
	Exhausted bool `json:"exhausted,omitempty"`
}

// Result is the final state of one exploration.
type Result struct {
	Frontier    []Point `json:"frontier"`
	Evaluations int     `json:"evaluations"`
	Rounds      int     `json:"rounds"`
	GridSize    int     `json:"grid_size"`
	Exhausted   bool    `json:"exhausted,omitempty"`
}

// evaluator computes points of one space against the case-study machine.
type evaluator struct {
	space Space
	m     *core.CaseStudy
	pdk   *tech.PDK
	evals *obs.Counter

	// Variation-aware mode (Options.VarySamples > 0): the corner
	// sampler and per-point corner count for EDP bands.
	sampler     *vary.Sampler
	varySamples int
}

// Explore runs the adaptive Pareto search over space on the case-study
// machine (the Sec. II 2D baseline and its ResNet-18 loads). onUpdate —
// when non-nil — receives one Update per round plus a final Done update,
// always from the calling goroutine, in round order. The usual exec
// options apply: WithWorkers fans point evaluations out (results are
// width-independent), WithContext cancels between batches, tracing and
// metrics attach via WithTracer/WithMetrics (counters dse.evals and
// dse.rounds, gauge dse.frontier.size).
func Explore(pdk *tech.PDK, space Space, opt Options, onUpdate func(Update), opts ...exec.Option) (*Result, error) {
	space = space.WithDefaults()
	if err := space.Validate(); err != nil {
		return nil, err
	}
	st := exec.Resolve(opts...)
	if st.Label == "" {
		st.Label = "dse.point"
	}
	if st.Tracer != nil {
		sp := st.Tracer.StartSpan("dse.explore",
			obs.Int("grid", space.GridSize()), obs.Int("max_evals", opt.MaxEvals))
		defer sp.End()
	}
	ev, err := newEvaluator(pdk, space, st.Metrics.Counter("dse.evals"), opt.VarySamples, opt.VarySeed)
	if err != nil {
		return nil, err
	}

	maxEvals := opt.MaxEvals
	if maxEvals <= 0 {
		maxEvals = space.GridSize() / 4
		if maxEvals < 1 {
			maxEvals = 1
		}
	}
	explore := opt.Explore
	if explore == 0 {
		explore = 8
	}
	remaining := maxEvals
	rng := rand.New(rand.NewSource(opt.Seed))
	rounds := st.Metrics.Counter("dse.rounds")
	frontierSize := st.Metrics.Gauge("dse.frontier.size")

	visited := make(map[coord]bool)
	archive := &Archive{}
	strides := initialStrides(space)
	cands := coarseSample(space, strides)
	if explore > 0 {
		cands = append(cands, randomUnvisited(space, visited, rng, explore, cands)...)
		sortCoords(cands)
	}
	issued := 0
	exhausted := false

	round := 0
	for {
		// Truncate the batch to the remaining budget (canonical order, so
		// the kept prefix is width-independent), evaluate on the pool, and
		// commit serially in candidate order.
		grant := min(len(cands), remaining)
		remaining -= grant
		if grant < len(cands) {
			cands = cands[:grant]
			exhausted = true
		}
		for _, c := range cands {
			visited[c] = true
		}
		pts, err := exec.MapWith(st, cands, ev.eval)
		if err != nil {
			return nil, err
		}
		issued += len(cands)
		for _, p := range pts {
			if opt.RequireThermal && p.ThermalHeadroomK < 0 {
				continue
			}
			archive.Add(p)
		}
		rounds.Add(1)
		frontierSize.Set(int64(archive.Len()))
		round++
		done := exhausted
		var next []coord
		if !done {
			next, strides = nextCandidates(space, archive, strides, visited)
			done = len(next) == 0
		}
		if onUpdate != nil {
			u := Update{Round: round - 1, Evaluations: issued, Frontier: archive.Frontier(), Done: done}
			if done {
				u.GridSize = space.GridSize()
				u.Exhausted = exhausted
			}
			onUpdate(u)
		}
		if done {
			break
		}
		cands = next
	}
	return &Result{
		Frontier:    archive.Frontier(),
		Evaluations: issued,
		Rounds:      round,
		GridSize:    space.GridSize(),
		Exhausted:   exhausted,
	}, nil
}

// BruteForce evaluates every lattice cell of space and returns the exact
// non-dominated set — the oracle the adaptive search is tested against.
// Its evaluations count on dse.brute.evals, apart from Explore's.
func BruteForce(pdk *tech.PDK, space Space, opts ...exec.Option) (*Result, error) {
	space = space.WithDefaults()
	if err := space.Validate(); err != nil {
		return nil, err
	}
	st := exec.Resolve(opts...)
	if st.Label == "" {
		st.Label = "dse.brute.point"
	}
	ev, err := newEvaluator(pdk, space, st.Metrics.Counter("dse.brute.evals"), 0, 0)
	if err != nil {
		return nil, err
	}

	all := make([]coord, 0, space.GridSize())
	for d := 0; d < space.Deltas.Steps; d++ {
		for y := 0; y < space.TierPairs.Steps(); y++ {
			for b := 0; b < space.BWScales.Steps; b++ {
				all = append(all, coord{d, y, b})
			}
		}
	}
	pts, err := exec.MapWith(st, all, ev.eval)
	if err != nil {
		return nil, err
	}
	archive := &Archive{}
	for _, p := range pts {
		archive.Add(p)
	}
	return &Result{
		Frontier:    archive.Frontier(),
		Evaluations: len(all),
		Rounds:      1,
		GridSize:    len(all),
	}, nil
}

func newEvaluator(pdk *tech.PDK, space Space, evals *obs.Counter, varySamples int, varySeed int64) (*evaluator, error) {
	if varySamples < 0 || varySamples > vary.MaxSamples {
		return nil, fmt.Errorf("dse: variation samples %d out of range [0, %d]: %w",
			varySamples, vary.MaxSamples, errs.ErrBadSpec)
	}
	var sampler *vary.Sampler
	if varySamples > 0 {
		var err error
		if sampler, err = vary.NewSampler(pdk.Variation, varySeed); err != nil {
			return nil, err
		}
		// Every point evaluation reuses the same corners; draw them once.
		sampler.Prime(varySamples)
	}
	m, err := core.CaseStudyMachine(pdk)
	if err != nil {
		return nil, err
	}
	return &evaluator{
		space:       space,
		m:           m,
		pdk:         pdk,
		evals:       evals,
		sampler:     sampler,
		varySamples: varySamples,
	}, nil
}

// eval computes one lattice cell.
func (ev *evaluator) eval(_ context.Context, _ int, c coord) (Point, error) {
	ev.evals.Add(1)
	d := analytic.DesignPoint{
		Delta:     ev.space.Deltas.Value(c.d),
		TierPairs: ev.space.TierPairs.Value(c.y),
		BWScale:   ev.space.BWScales.Value(c.b),
	}
	pr, err := analytic.CasePoint(ev.m.Params, ev.m.Area, ev.m.Loads, d)
	if err != nil {
		return Point{}, err
	}
	powers := make([]float64, d.TierPairs)
	for i := range powers {
		powers[i] = ev.space.PerTierPowerW
	}
	rise := thermal.NewStack(ev.pdk, powers).TempRiseK()
	pt := Point{
		Delta:            d.Delta,
		TierPairs:        d.TierPairs,
		BWScale:          d.BWScale,
		N:                pr.N,
		N2DNew:           pr.N2DNew,
		Speedup:          pr.Speedup,
		EDPBenefit:       pr.EDPBenefit,
		ThermalHeadroomK: ev.pdk.MaxTempRiseK - rise,
		FootprintMM2:     pr.Footprint / 1e12,
	}
	if ev.sampler != nil {
		band, err := vary.EDPBand(ev.m.Params, ev.m.Area, ev.m.Loads, d, ev.sampler, ev.varySamples)
		if err != nil {
			return Point{}, err
		}
		pt.EDPBenefitP5, pt.EDPBenefitP50, pt.EDPBenefitP95 = band.P5, band.P50, band.P95
		// Yield-constrained objective: rank by what 95% of chips meet.
		pt.EDPBenefit = band.P5
	}
	return pt, nil
}

// initialStrides picks per-axis power-of-two strides giving ~3-4 coarse
// samples per axis.
func initialStrides(space Space) [3]int {
	return [3]int{
		initialStride(space.Deltas.Steps),
		initialStride(space.TierPairs.Steps()),
		initialStride(space.BWScales.Steps),
	}
}

func initialStride(steps int) int {
	if steps <= 1 {
		return 1
	}
	want := (steps - 1 + 2) / 3 // ceil((steps-1)/3)
	s := 1
	for s < want {
		s *= 2
	}
	return s
}

// coarseSample is the round-0 candidate list: every stride-aligned cell
// plus the axis endpoints, in canonical order.
func coarseSample(space Space, strides [3]int) []coord {
	ds := axisCoords(space.Deltas.Steps, strides[0])
	ys := axisCoords(space.TierPairs.Steps(), strides[1])
	bs := axisCoords(space.BWScales.Steps, strides[2])
	out := make([]coord, 0, len(ds)*len(ys)*len(bs))
	for _, d := range ds {
		for _, y := range ys {
			for _, b := range bs {
				out = append(out, coord{d, y, b})
			}
		}
	}
	return out
}

func axisCoords(steps, stride int) []int {
	var out []int
	for i := 0; i < steps; i += stride {
		out = append(out, i)
	}
	if out[len(out)-1] != steps-1 {
		out = append(out, steps-1)
	}
	return out
}

// nextCandidates builds the following round's batch: the unvisited
// neighbourhood of the archive at the current strides, halving strides
// until it is non-empty (ε-grid refinement). An empty return means the
// frontier is closed under its stride-1 axis neighbourhood — convergence.
func nextCandidates(space Space, archive *Archive, strides [3]int, visited map[coord]bool) ([]coord, [3]int) {
	for {
		cands := neighbourhood(space, archive, strides, visited)
		if len(cands) > 0 {
			sortCoords(cands)
			return cands, strides
		}
		if strides[0] == 1 && strides[1] == 1 && strides[2] == 1 {
			return nil, strides
		}
		for i := range strides {
			if strides[i] > 1 {
				strides[i] /= 2
			}
		}
	}
}

// neighbourhood collects the unvisited axis-aligned ±stride offsets
// around every frontier point, deduplicated, unsorted. Axis moves (6
// offsets) rather than the full 26-cell box keep the refinement from
// flood-filling the lattice: frontier manifolds of the analytic model
// are axis-connected (footprint varies only with δ, headroom only with
// Y), so closure under axis moves finds the same frontier at a fraction
// of the evaluations.
func neighbourhood(space Space, archive *Archive, strides [3]int, visited map[coord]bool) []coord {
	steps := [3]int{space.Deltas.Steps, space.TierPairs.Steps(), space.BWScales.Steps}
	seen := make(map[coord]bool)
	var out []coord
	for _, p := range archive.Frontier() {
		c := coordOf(space, p)
		for _, n := range []coord{
			{c.d - strides[0], c.y, c.b}, {c.d + strides[0], c.y, c.b},
			{c.d, c.y - strides[1], c.b}, {c.d, c.y + strides[1], c.b},
			{c.d, c.y, c.b - strides[2]}, {c.d, c.y, c.b + strides[2]},
		} {
			if seen[n] || visited[n] {
				continue
			}
			if n.d < 0 || n.d >= steps[0] || n.y < 0 || n.y >= steps[1] || n.b < 0 || n.b >= steps[2] {
				continue
			}
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// randomUnvisited draws up to n seeded random lattice cells not yet
// visited and not already in batch. Draws are sequential on one rng, so
// the result is width-independent.
func randomUnvisited(space Space, visited map[coord]bool, rng *rand.Rand, n int, batch []coord) []coord {
	inBatch := make(map[coord]bool, len(batch))
	for _, c := range batch {
		inBatch[c] = true
	}
	var out []coord
	for tries := 0; tries < 8*n && len(out) < n; tries++ {
		c := coord{
			d: rng.Intn(space.Deltas.Steps),
			y: rng.Intn(space.TierPairs.Steps()),
			b: rng.Intn(space.BWScales.Steps),
		}
		if visited[c] || inBatch[c] {
			continue
		}
		inBatch[c] = true
		out = append(out, c)
	}
	return out
}

// coordOf inverts the axis value maps (values are exact functions of the
// index, so rounding recovers it).
func coordOf(space Space, p Point) coord {
	return coord{
		d: axisIndex(space.Deltas, p.Delta),
		y: p.TierPairs - space.TierPairs.Min,
		b: axisIndex(space.BWScales, p.BWScale),
	}
}

func axisIndex(a Axis, v float64) int {
	if a.Steps <= 1 || a.Max == a.Min {
		return 0
	}
	i := int((v-a.Min)/(a.Max-a.Min)*float64(a.Steps-1) + 0.5)
	if i < 0 {
		i = 0
	}
	if i >= a.Steps {
		i = a.Steps - 1
	}
	return i
}

func sortCoords(cs []coord) {
	sort.Slice(cs, func(i, j int) bool { return coordLess(cs[i], cs[j]) })
}

// FlowSpec is the physical flow a promoted point runs, with the given flow
// seed: a small M3D SoC whose CS count follows the point's N, clamped to
// 1..4 so promotion stays interactive, with 2×2 arrays, 1 MB of RRAM, one
// bank per CS and 64 Kbit of global SRAM. Promotion is a physical-design
// sanity probe of the frontier's shape, not a full-scale build; m3ddse
// and the service both run this spec.
func (p Point) FlowSpec(seed int64) flow.SoCSpec {
	numCS := min(max(p.N, 1), 4)
	return flow.SoCSpec{
		Style:          macro.Style3D,
		NumCS:          numCS,
		ArrayRows:      2,
		ArrayCols:      2,
		RRAMCapBits:    1 << 23,
		Banks:          numCS,
		GlobalSRAMBits: 64 << 10,
		Seed:           seed,
	}
}
