// Package exec is the concurrency substrate for design-space sweeps: a
// context-aware, bounded worker pool (Map, MapWith, GridWith) whose
// results come back in deterministic input order regardless of goroutine
// scheduling, plus a concurrency-safe memoization Cache with
// single-flight semantics for deduplicating repeated evaluations
// (identical service requests, retained designs). The cache is unbounded
// by default and can opt into an entry-count LRU eviction policy
// (Cache.Bound) for long-lived servers; see cache.go.
//
// It also owns the library's only run-configuration surface: every
// public entry point that fans out (flow.Run/RunMany,
// analytic.SweepBandwidthCS, the core experiments) accepts the same
// Option type, so pool width (WithWorkers), cancellation (WithContext),
// tracing (WithTracer) and metrics (WithMetrics) thread uniformly through
// the whole stack. When a tracer or registry is attached, Map emits one
// span per task, maintains pool-width and queue-depth gauges, and counts
// tasks and errors; the memo cache counts hits and misses. With neither
// attached the instrumentation is skipped entirely (nil checks only).
//
// Determinism contract: for a fixed input slice and a pure evaluation
// function, Map returns bit-identical results at every pool width — each
// item's result is written to its own input index, so scheduling order
// never reorders output. Error contract: the error returned is the one
// from the lowest failing input index whose evaluation ran; once any item
// fails, in-flight items finish but no new items are dispatched.
// Cancellation surfaces as an error matching both errs.ErrCanceled
// (m3d.ErrCanceled) and the underlying context error.
package exec

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"m3d/internal/errs"
	"m3d/internal/obs"
)

// WorkersEnv is the environment variable that overrides the default pool
// width (DefaultWorkers).
const WorkersEnv = "M3D_WORKERS"

// DefaultWorkers returns the default pool width: GOMAXPROCS, overridden
// by the M3D_WORKERS environment variable when it holds a positive
// integer.
func DefaultWorkers() int {
	if s := os.Getenv(WorkersEnv); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Settings is the resolved configuration of one run: pool width, context
// and observability sinks. Build one with Resolve; packages layered on
// exec (flow, analytic, core) use it to share a single option surface.
type Settings struct {
	// Workers is the pool width (≥ 1 after Resolve).
	Workers int
	// Ctx is the cancellation context (never nil after Resolve).
	Ctx context.Context
	// Tracer receives spans; nil disables tracing.
	Tracer obs.Tracer
	// Metrics receives counters/gauges/histograms; nil disables them.
	Metrics *obs.Registry
	// Label names Map's per-task spans ("exec.task" when empty).
	Label string

	// The zero-size field keeps Settings non-comparable: an equality
	// function for it would be dead code that moves everything linked
	// after it, the yield kernel included (EXPERIMENTS.md, "Stage
	// constants").
	_ [0]func()
}

// Option configures one run (a Map call, a flow run, a sweep, an
// experiment). This is the shared option type re-exported as m3d.Option.
type Option func(*Settings)

// WithWorkers bounds the pool at n concurrent evaluations. n ≤ 0 selects
// DefaultWorkers(); n = 1 is the serial path (still cancellable).
func WithWorkers(n int) Option {
	return func(s *Settings) { s.Workers = n }
}

// WithContext attaches a cancellation context: when ctx is cancelled, no
// new items are dispatched, in-flight items observe the cancellation via
// the context passed to fn, and Map returns an error matching both
// errs.ErrCanceled and ctx.Err().
func WithContext(ctx context.Context) Option {
	return func(s *Settings) {
		if ctx != nil {
			s.Ctx = ctx
		}
	}
}

// WithTracer attaches a span sink (obs.Recorder, obs.JSONL, ...). nil
// leaves tracing disabled.
func WithTracer(t obs.Tracer) Option {
	return func(s *Settings) { s.Tracer = t }
}

// WithMetrics attaches a metrics registry. nil leaves metrics disabled.
func WithMetrics(r *obs.Registry) Option {
	return func(s *Settings) { s.Metrics = r }
}

// Resolve applies opts over defaults: background context, DefaultWorkers
// width, and no observability sinks.
func Resolve(opts ...Option) *Settings {
	s := &Settings{Ctx: context.Background()}
	for _, o := range opts {
		if o != nil {
			o(s)
		}
	}
	if s.Workers <= 0 {
		s.Workers = DefaultWorkers()
	}
	return s
}

// canceled wraps a context error so it matches both errs.ErrCanceled and
// the original context sentinel.
func canceled(err error) error {
	return fmt.Errorf("exec: %w: %w", errs.ErrCanceled, err)
}

// Map evaluates fn over every item with a bounded worker pool and returns
// the results in input order. fn receives the pool's cancellation
// context, the item's input index, and the item. The first error (lowest
// failing input index) aborts dispatch and is returned with a nil result
// slice.
func Map[T, R any](items []T, fn func(ctx context.Context, idx int, item T) (R, error), opts ...Option) ([]R, error) {
	return MapWith(Resolve(opts...), items, fn)
}

// MapWith is Map with pre-resolved settings; layered packages that need
// the settings themselves (memo counters, the flow's stage tracing)
// resolve once and share.
func MapWith[T, R any](st *Settings, items []T, fn func(ctx context.Context, idx int, item T) (R, error)) ([]R, error) {
	n := len(items)
	results := make([]R, n)
	if n == 0 {
		if err := st.Ctx.Err(); err != nil {
			return results, canceled(err)
		}
		return results, nil
	}
	workers := st.Workers
	if workers > n {
		workers = n
	}
	tasks := st.Metrics.Counter("exec.tasks")
	taskErrs := st.Metrics.Counter("exec.task.errors")
	st.Metrics.Gauge("exec.pool.width").Set(int64(workers))
	queueDepth := st.Metrics.Gauge("exec.queue.depth")
	queueDepth.Set(int64(n))
	label := st.Label
	if label == "" {
		label = "exec.task"
	}
	if workers == 1 {
		for i, item := range items {
			if err := st.Ctx.Err(); err != nil {
				return nil, canceled(err)
			}
			queueDepth.Set(int64(n - i - 1))
			var sp obs.Span
			if st.Tracer != nil {
				sp = st.Tracer.StartSpan(label, obs.Int("idx", i))
			}
			tasks.Add(1)
			r, err := fn(st.Ctx, i, item)
			if sp != nil {
				sp.End()
			}
			if err != nil {
				taskErrs.Add(1)
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(st.Ctx)
	defer cancel()
	errors := make([]error, n)
	var next atomic.Int64
	// Contiguous chunk dispatch amortizes the counter for cheap per-point
	// sweeps; result placement by index keeps ordering deterministic.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				queueDepth.Set(int64(n - hi))
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						return
					}
					var sp obs.Span
					if st.Tracer != nil {
						sp = st.Tracer.StartSpan(label, obs.Int("idx", i))
					}
					tasks.Add(1)
					r, err := fn(ctx, i, items[i])
					if sp != nil {
						sp.End()
					}
					if err != nil {
						taskErrs.Add(1)
						errors[i] = err
						cancel()
						return
					}
					results[i] = r
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errors {
		if err != nil {
			return nil, err
		}
	}
	if err := st.Ctx.Err(); err != nil {
		return nil, canceled(err)
	}
	return results, nil
}

// GridWith evaluates fn over the cross product as × bs under
// pre-resolved settings (see MapWith) and returns the results flattened
// row-major (index i*len(bs)+j), matching the nested serial loop
// `for a { for b { ... } }`.
func GridWith[A, B, R any](st *Settings, as []A, bs []B, fn func(ctx context.Context, a A, b B) (R, error)) ([]R, error) {
	nb := len(bs)
	idx := make([]int, len(as)*nb)
	for i := range idx {
		idx[i] = i
	}
	return MapWith(st, idx, func(ctx context.Context, _ int, k int) (R, error) {
		return fn(ctx, as[k/nb], bs[k%nb])
	})
}
