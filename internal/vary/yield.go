package vary

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"m3d/internal/errs"
	"m3d/internal/exec"
	"m3d/internal/netlist"
	"m3d/internal/obs"
	"m3d/internal/route"
	"m3d/internal/sta"
	"m3d/internal/tech"
)

// MaxSamples bounds one Monte-Carlo run; requests beyond it match
// errs.ErrBadSpec.
const MaxSamples = 1 << 20

// critPathBounds are the vary.critpath.seconds histogram buckets
// (seconds): digital critical paths in this PDK land in the ns range.
var critPathBounds = []float64{1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7}

// Options configures one Monte-Carlo yield run.
type Options struct {
	// Samples is the number of process corners to time (1..MaxSamples).
	// The engine's seed selects the corner stream, so one engine
	// reproduces a run exactly at any worker width.
	Samples int
	// Periods are the clock periods (seconds) the yield curve is
	// evaluated at; empty selects DefaultPeriods around the nominal
	// critical path.
	Periods []float64
}

// Validate checks the run options. Violations match errs.ErrBadSpec.
func (o Options) Validate() error {
	if o.Samples < 1 || o.Samples > MaxSamples {
		return fmt.Errorf("vary: samples %d out of range [1, %d]: %w", o.Samples, MaxSamples, errs.ErrBadSpec)
	}
	for _, p := range o.Periods {
		if !(p > 0) || math.IsInf(p, 1) {
			return fmt.Errorf("vary: period %g must be positive and finite: %w", p, errs.ErrBadSpec)
		}
	}
	return nil
}

// YieldPoint is one point of the timing-yield curve: the fraction of
// sampled corners whose critical path meets the clock period.
type YieldPoint struct {
	PeriodS float64 `json:"period_s"`
	Yield   float64 `json:"yield"`
}

// Result is one Monte-Carlo yield analysis.
type Result struct {
	// Nominal is the zero-variation STA report the run is anchored on.
	Nominal *sta.Report
	// CritPathS holds the per-sample critical paths (seconds), indexed
	// by sample; deep-equal at any worker width for a fixed seed.
	CritPathS []float64
	// Curve is P(slack ≥ 0) vs clock period, non-decreasing in period.
	Curve []YieldPoint
	// CritQuantiles is the p5/p50/p95 band of the sampled critical path.
	CritQuantiles Quantiles
}

// analyzePeriodS is the constraint handed to per-corner STA passes; only
// the target-independent critical path is consumed, so any positive
// period works.
const analyzePeriodS = 1.0

// batchCorners is the engine's internal corner-slab width: every sample
// window is cut into slabs of this many corners and each slab is priced
// by ONE sta.BatchTimer pass over the design's compiled graph. The slab
// cut is a fixed function of the sample indices — never of the worker
// width — and corner i's value is independent of which slab prices it,
// so results stay bit-identical at any width and across any caller-side
// window split.
const batchCorners = 32

// batchScratch is one worker's reusable slab state: a corner-batched
// timer (arrival and scale lanes over the Timing's shared compiled
// graph), the slab's corner-scale staging slice, and the generator the
// slab reseeds, in O(1) on its cornerSource, to draw each uncached
// corner.
type batchScratch struct {
	bt     *sta.BatchTimer
	scales [][tech.NumTiers]float64
	rng    *rand.Rand
}

// Timing is the design-bound half of a yield engine, built once per
// finished design by Compile: the nominal STA report every sample is
// anchored on, the batched timing graph every slab shares read-only,
// and a free list of batchScratch — a plain slice-indexed stack, not a
// sync.Pool, so scratch survives GC cycles, steady-state sampling
// allocates nothing, and heap profiles of the yield path show the
// design's timing state once instead of churn. Any number of Engines,
// one per (Variation, seed), may bind to one Timing and run
// concurrently; they share its graph and its scratch. Analyze results
// are pure in (netlist, corner), so scratch reuse — whatever the
// stack's warmth, whichever engine used it last — never changes a
// sample's value.
type Timing struct {
	graph   *sta.BatchGraph
	nominal *sta.Report

	mu   sync.Mutex
	free []*batchScratch
}

// Compile builds the yield timing of one finished design: the netlist,
// placement and routes must not change while the timing is in use.
// routes may be nil (pre-route wire estimates). The nominal STA runs
// once here, and the batched timing graph is compiled from the wire
// model that analysis warmed.
func Compile(p *tech.PDK, nl *netlist.Netlist, routes *route.Result) (*Timing, error) {
	wm := sta.NewWireModel(p, routes)
	nom, err := sta.Analyze(p, nl, wm, analyzePeriodS)
	if err != nil {
		return nil, fmt.Errorf("vary: nominal analysis: %w", err)
	}
	g, err := sta.CompileBatch(p, nl, wm)
	if err != nil {
		return nil, fmt.Errorf("vary: batch timing graph: %w", err)
	}
	return &Timing{graph: g, nominal: nom}, nil
}

// Nominal returns the zero-variation STA report computed by Compile.
func (t *Timing) Nominal() *sta.Report { return t.nominal }

// Engine binds a corner sampler for (v, seed) to the compiled timing.
// The variation parameters are validated (errs.ErrBadSpec on
// violation); nothing design-bound is recomputed.
func (t *Timing) Engine(v tech.Variation, seed int64) (*Engine, error) {
	s, err := NewSampler(v, seed)
	if err != nil {
		return nil, err
	}
	return &Engine{timing: t, sampler: s}, nil
}

// get pops a scratch off the free list, building one over the shared
// graph on a cold stack.
func (t *Timing) get() (*batchScratch, error) {
	t.mu.Lock()
	if n := len(t.free); n > 0 {
		sc := t.free[n-1]
		t.free = t.free[:n-1]
		t.mu.Unlock()
		return sc, nil
	}
	t.mu.Unlock()
	bt, err := sta.NewBatchTimer(t.graph, batchCorners)
	if err != nil {
		return nil, fmt.Errorf("vary: batch timer: %w", err)
	}
	return &batchScratch{
		bt:     bt,
		scales: make([][tech.NumTiers]float64, 0, batchCorners),
		rng:    rand.New(newCornerSource(1)),
	}, nil
}

// put returns a scratch to the free list unless the list already holds
// width of them, width being the pool width of the returning call; the
// extras go to the GC. A retained design therefore keeps at most as
// many scratches as the widest call that times it runs at once.
func (t *Timing) put(sc *batchScratch, width int) {
	t.mu.Lock()
	if len(t.free) < width {
		t.free = append(t.free, sc)
	}
	t.mu.Unlock()
}

// Engine runs Monte-Carlo timing yield over one placed-and-routed
// netlist: a corner sampler bound to the design's compiled Timing.
// Binding is cheap, so a caller that times one design under many
// (Variation, seed) pairs compiles the Timing once and binds an Engine
// per pair.
type Engine struct {
	timing  *Timing
	sampler *Sampler
}

// NewEngine builds a yield engine for one finished design: Compile, then
// Timing.Engine. See both for the contract.
func NewEngine(p *tech.PDK, nl *netlist.Netlist, routes *route.Result, v tech.Variation, seed int64) (*Engine, error) {
	t, err := Compile(p, nl, routes)
	if err != nil {
		return nil, err
	}
	return t.Engine(v, seed)
}

// Nominal returns the zero-variation STA report of the engine's design.
func (e *Engine) Nominal() *sta.Report { return e.timing.nominal }

// Sampler returns the engine's corner sampler.
func (e *Engine) Sampler() *Sampler { return e.sampler }

// runSlab prices corners [slabLo, slabHi) with one batched timing pass,
// writing critical paths into out (len slabHi-slabLo). Each corner comes
// from the sampler's cache when the cache covers it and is otherwise
// drawn here, on the scratch's generator, so the draws run on whichever
// worker times the slab.
func (e *Engine) runSlab(sc *batchScratch, slabLo, slabHi int, out []float64,
	samples *obs.Counter, hist *obs.Histogram) error {
	sc.scales = sc.scales[:0]
	for i := slabLo; i < slabHi; i++ {
		sc.scales = append(sc.scales, e.sampler.corner(sc.rng, i).TierScale)
	}
	if err := sc.bt.AnalyzeBatch(sc.scales, out); err != nil {
		return fmt.Errorf("vary: samples [%d, %d): %w", slabLo, slabHi, err)
	}
	samples.Add(int64(slabHi - slabLo))
	for _, c := range out {
		hist.Observe(c)
	}
	return nil
}

// checkWindow accepts a sample window [lo, hi) with 0 ≤ lo ≤ hi ≤
// MaxSamples; anything else matches errs.ErrBadSpec.
func checkWindow(lo, hi int) error {
	if lo < 0 || hi < lo || hi > MaxSamples {
		return fmt.Errorf("vary: bad sample window [%d, %d) (max %d): %w", lo, hi, MaxSamples, errs.ErrBadSpec)
	}
	return nil
}

// CriticalPathsInto times the sample window [lo, hi) into caller-owned
// storage: dst must have length hi-lo and receives dst[i-lo] = critical
// path of corner i, drawn inside its slab and priced through the
// corner-batched STA kernel. Because corners are index-addressed, slab
// cuts are index-aligned and results land at their input index, dst is
// deep-equal at any worker width, and a caller may split [0, N) into any
// window sequence (Refine does) without changing a single value. With
// st.Workers == 1 the steady-state path allocates nothing — no fan-out
// machinery, one reused scratch whose generator draws every uncached
// corner — which is what TestCriticalPathsZeroSteadyStateAllocs pins.
func (e *Engine) CriticalPathsInto(st *exec.Settings, lo, hi int, dst []float64) error {
	if err := checkWindow(lo, hi); err != nil {
		return err
	}
	if len(dst) != hi-lo {
		return fmt.Errorf("vary: dst length %d != window [%d, %d) size %d: %w",
			len(dst), lo, hi, hi-lo, errs.ErrBadSpec)
	}
	if err := st.Ctx.Err(); err != nil {
		return fmt.Errorf("vary: %w: %w", errs.ErrCanceled, err)
	}
	if hi == lo {
		return nil
	}
	samples := st.Metrics.Counter("vary.samples")
	hist := st.Metrics.Histogram("vary.critpath.seconds", critPathBounds...)

	if st.Workers <= 1 {
		sc, err := e.timing.get()
		if err != nil {
			return err
		}
		defer e.timing.put(sc, 1)
		for slabLo := lo; slabLo < hi; slabLo += batchCorners {
			if err := st.Ctx.Err(); err != nil {
				return fmt.Errorf("vary: %w: %w", errs.ErrCanceled, err)
			}
			slabHi := slabLo + batchCorners
			if slabHi > hi {
				slabHi = hi
			}
			if err := e.runSlab(sc, slabLo, slabHi, dst[slabLo-lo:slabHi-lo], samples, hist); err != nil {
				return err
			}
		}
		return nil
	}

	type window struct{ lo, hi int }
	wins := make([]window, 0, (hi-lo+batchCorners-1)/batchCorners)
	for slabLo := lo; slabLo < hi; slabLo += batchCorners {
		slabHi := slabLo + batchCorners
		if slabHi > hi {
			slabHi = hi
		}
		wins = append(wins, window{slabLo, slabHi})
	}
	_, err := exec.MapWith(st, wins, func(_ context.Context, _ int, w window) (struct{}, error) {
		sc, err := e.timing.get()
		if err != nil {
			return struct{}{}, err
		}
		defer e.timing.put(sc, st.Workers)
		// Slabs are disjoint, so the dst sub-slices never overlap.
		return struct{}{}, e.runSlab(sc, w.lo, w.hi, dst[w.lo-lo:w.hi-lo], samples, hist)
	})
	return err
}

// Curve evaluates the timing-yield curve P(critical path ≤ T) for each
// period: the empirical fraction of corners meeting timing. Monotone
// non-decreasing in T by construction.
func Curve(critPathS []float64, periods []float64) []YieldPoint {
	out := make([]YieldPoint, len(periods))
	for i, T := range periods {
		met := 0
		for _, c := range critPathS {
			if c <= T {
				met++
			}
		}
		y := 0.0
		if len(critPathS) > 0 {
			y = float64(met) / float64(len(critPathS))
		}
		out[i] = YieldPoint{PeriodS: T, Yield: y}
	}
	return out
}

// CurveSorted is Curve over an ascending slice: each period's count of
// corners with c ≤ T is the index of the first corner that misses T,
// found by binary search, so a curve costs O(len(periods)·log n) instead
// of a scan per period.
func CurveSorted(sorted []float64, periods []float64) []YieldPoint {
	out := make([]YieldPoint, len(periods))
	for i, T := range periods {
		y := 0.0
		if len(sorted) > 0 {
			met := sort.Search(len(sorted), func(k int) bool { return !(sorted[k] <= T) })
			y = float64(met) / float64(len(sorted))
		}
		out[i] = YieldPoint{PeriodS: T, Yield: y}
	}
	return out
}

// DefaultPeriods spans the yield transition around a nominal critical
// path: 25 evenly spaced clock periods from 0.90× to 1.50× nominal,
// covering both the fast corners that still meet an aggressive clock and
// the slow tail that needs guard-band.
func DefaultPeriods(nominalS float64) []float64 {
	const n = 25
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = nominalS * (0.90 + 0.60*float64(i)/float64(n-1))
	}
	return out
}

// Analyze runs a full Monte-Carlo yield analysis: o.Samples corners
// through per-corner STA, the yield curve over o.Periods (DefaultPeriods
// around nominal when empty), and the critical-path quantile band. It is
// Refine in one window, so the result is deep-equal at any worker width
// for a fixed seed.
func (e *Engine) Analyze(o Options, opts ...exec.Option) (*Result, error) {
	var res *Result
	if err := e.Refine(o, o.Samples, func(r *Result) bool { res = r; return true }, opts...); err != nil {
		return nil, err
	}
	return res, nil
}

// Refine runs the analysis Analyze does in windows of batch samples
// (batch < 1 or > o.Samples: one window) and calls emit after each
// window with the analysis over every sample timed so far: CritPathS is
// that prefix in sample-index order, and Curve and CritQuantiles are
// computed over it. Corner values do not depend on the window split, so
// the last Result equals Analyze's at any batch and worker width. Refine
// stops, without error, as soon as emit returns false. An emitted Result
// stays valid after emit returns.
func (e *Engine) Refine(o Options, batch int, emit func(*Result) bool, opts ...exec.Option) error {
	if err := o.Validate(); err != nil {
		return err
	}
	st := exec.Resolve(opts...)
	if st.Label == "" {
		st.Label = "vary.sample"
	}
	periods := o.Periods
	if len(periods) == 0 {
		periods = DefaultPeriods(e.timing.nominal.CriticalPathS)
	}
	if batch < 1 || batch > o.Samples {
		batch = o.Samples
	}
	// sorted holds the same prefix as crit in ascending order: each
	// window is sorted and merged in, so a refinement costs a merge plus
	// binary searches, not a sort of the whole prefix.
	crit := make([]float64, o.Samples)
	sorted := make([]float64, 0, o.Samples)
	part := make([]float64, 0, batch)
	for lo := 0; lo < o.Samples; lo += batch {
		hi := min(lo+batch, o.Samples)
		if err := e.CriticalPathsInto(st, lo, hi, crit[lo:hi]); err != nil {
			return err
		}
		part = append(part[:0], crit[lo:hi]...)
		sort.Float64s(part)
		sorted = MergeSorted(sorted, part)
		if !emit(&Result{
			Nominal:       e.timing.nominal,
			CritPathS:     crit[:hi:hi],
			Curve:         CurveSorted(sorted, periods),
			CritQuantiles: QuantilesSorted(sorted),
		}) {
			return nil
		}
	}
	return nil
}
