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
	Samples int
	// Seed selects the corner stream; the same (Variation, Seed, Samples)
	// triple reproduces the run exactly at any worker width.
	Seed int64
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
// by ONE sta.BatchTimer pass over the engine's compiled graph. The slab
// cut is a fixed function of the sample indices — never of the worker
// width — and corner i's value is independent of which slab prices it,
// so results stay bit-identical at any width and across any caller-side
// window split.
const batchCorners = 32

// batchScratch is one worker's reusable slab state: a corner-batched
// timer (arrival and scale lanes over the engine's shared compiled
// graph), the slab's corner-scale staging slice, and the generator the
// slab reseeds, in O(1) on its cornerSource, to draw each uncached
// corner.
type batchScratch struct {
	bt     *sta.BatchTimer
	scales [][tech.NumTiers]float64
	rng    *rand.Rand
}

// Engine runs Monte-Carlo timing yield over one placed-and-routed
// netlist. Its timing graph is compiled once, at construction, and
// shared read-only by every slab. It owns a free list of batchScratch
// instances — a plain slice-indexed stack, not a sync.Pool, so scratch
// survives GC cycles, steady-state sampling allocates nothing, and heap
// profiles of the yield path show the design's timing state once
// instead of churn.
// Analyze results are pure in (netlist, corner), so scratch reuse —
// whatever the stack's warmth — never changes a sample's value.
type Engine struct {
	graph   *sta.BatchGraph
	sampler *Sampler
	nominal *sta.Report

	mu   sync.Mutex
	free []*batchScratch
}

// NewEngine builds a yield engine for one finished design: the netlist,
// placement and routes must not change while the engine is in use.
// routes may be nil (pre-route wire estimates). The variation parameters
// are validated (errs.ErrBadSpec on violation), the nominal STA runs
// once here so every later sample is anchored on the same baseline, and
// the batched timing graph is compiled from the wire model that
// analysis warmed.
func NewEngine(p *tech.PDK, nl *netlist.Netlist, routes *route.Result, v tech.Variation, seed int64) (*Engine, error) {
	s, err := NewSampler(v, seed)
	if err != nil {
		return nil, err
	}
	wm := sta.NewWireModel(p, routes)
	nom, err := sta.Analyze(p, nl, wm, analyzePeriodS)
	if err != nil {
		return nil, fmt.Errorf("vary: nominal analysis: %w", err)
	}
	g, err := sta.CompileBatch(p, nl, wm)
	if err != nil {
		return nil, fmt.Errorf("vary: batch timing graph: %w", err)
	}
	return &Engine{graph: g, sampler: s, nominal: nom}, nil
}

// Nominal returns the zero-variation STA report computed at construction.
func (e *Engine) Nominal() *sta.Report { return e.nominal }

// Sampler returns the engine's corner sampler.
func (e *Engine) Sampler() *Sampler { return e.sampler }

// get pops a scratch off the free list, building one over the shared
// graph on a cold stack.
func (e *Engine) get() (*batchScratch, error) {
	e.mu.Lock()
	if n := len(e.free); n > 0 {
		sc := e.free[n-1]
		e.free = e.free[:n-1]
		e.mu.Unlock()
		return sc, nil
	}
	e.mu.Unlock()
	bt, err := sta.NewBatchTimer(e.graph, batchCorners)
	if err != nil {
		return nil, fmt.Errorf("vary: batch timer: %w", err)
	}
	return &batchScratch{
		bt:     bt,
		scales: make([][tech.NumTiers]float64, 0, batchCorners),
		rng:    rand.New(newCornerSource(1)),
	}, nil
}

func (e *Engine) put(sc *batchScratch) {
	e.mu.Lock()
	e.free = append(e.free, sc)
	e.mu.Unlock()
}

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

// CriticalPaths times the sample window [lo, hi): each sample index i
// draws Corner(i) inside its slab and prices it through the corner-batched STA kernel,
// returning the per-sample critical paths in index order. Because
// corners are index-addressed, slab cuts are index-aligned, and results
// land at their input index, the returned slice is deep-equal at any
// worker width — callers may split [0, N) into any batch sequence (the
// serve streaming handler refines quantiles per batch) without changing
// a single value.
func (e *Engine) CriticalPaths(st *exec.Settings, lo, hi int) ([]float64, error) {
	if err := checkWindow(lo, hi); err != nil {
		return nil, err
	}
	out := make([]float64, hi-lo)
	if err := e.CriticalPathsInto(st, lo, hi, out); err != nil {
		return nil, err
	}
	return out, nil
}

// CriticalPathsInto is CriticalPaths writing into caller-owned storage:
// dst must have length hi-lo and receives dst[i-lo] = critical path of
// corner i. With st.Workers == 1 the steady-state path allocates
// nothing — no fan-out machinery, one reused scratch whose generator
// draws every uncached corner — which is what
// TestCriticalPathsZeroSteadyStateAllocs pins.
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
		sc, err := e.get()
		if err != nil {
			return err
		}
		defer e.put(sc)
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
		sc, err := e.get()
		if err != nil {
			return struct{}{}, err
		}
		defer e.put(sc)
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
// around nominal when empty), and the critical-path quantile band. The
// result is deep-equal at any worker width for a fixed seed.
func (e *Engine) Analyze(o Options, opts ...exec.Option) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	st := exec.Resolve(opts...)
	if st.Label == "" {
		st.Label = "vary.sample"
	}
	crit, err := e.CriticalPaths(st, 0, o.Samples)
	if err != nil {
		return nil, err
	}
	periods := o.Periods
	if len(periods) == 0 {
		periods = DefaultPeriods(e.nominal.CriticalPathS)
	}
	return &Result{
		Nominal:       e.nominal,
		CritPathS:     crit,
		Curve:         Curve(crit, periods),
		CritQuantiles: QuantilesOf(crit),
	}, nil
}
