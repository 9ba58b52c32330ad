// Package serve is the HTTP evaluation service over the m3d library: a
// stdlib-only JSON API exposing the Sec. III analytical framework
// (POST /v1/sweep), the RTL-to-GDS flow (POST /v1/flow), heterogeneous
// batches of both with per-item isolation and streamed results
// (POST /v1/batch), the adaptive Pareto design-space explorer with
// streamed frontier updates (POST /v1/dse), Monte-Carlo timing yield
// over a built design (POST /v1/yield), async resumable jobs
// (/v1/jobs), a liveness probe (GET /healthz), and the metrics registry
// (GET /metrics, the sorted text dump of obs.Registry.WriteText).
// cmd/m3dserve is the binary.
//
// Request path (DESIGN.md §9-10): admission → coalesce → pool → response.
//
//   - Admission: every /v1 request passes an exec.Gate bounding in-flight
//     evaluations plus a waiting queue; beyond both it is shed with
//     429 Too Many Requests and a Retry-After header (errs.ErrOverloaded).
//     A batch occupies exactly one admission slot for all its items.
//   - Coalescing: identical in-flight requests (canonical JSON key) are
//     deduplicated through the single-flight exec.Cache by one helper,
//     coalesce — concurrent duplicates share one evaluation, counted by
//     the serve.memo.hits / serve.memo.misses registry counters. Failed
//     evaluations are forgotten so a canceled request never poisons its
//     key, and a caller that only inherited another caller's
//     cancellation evaluates again under its own context. With a
//     positive Config.CacheCap, the response caches are entry-bounded
//     LRUs: memory stays flat under sustained varied traffic at the
//     price of re-evaluating evicted keys (cache.entries gauge,
//     cache.evictions counter).
//   - One design evaluator: every flow run goes through Server.design,
//     which single-flights a retained flow.Result (serve.design.hits /
//     serve.design.misses, serve.flow.evals per real run). The flow
//     response memo, /v1/yield and the flow job's DEF artifact all derive
//     from that one Result; the design cache keeps maxDesigns of them.
//   - Pool: evaluations run on the exec worker pool at the server's
//     configured width, under a per-request context deadline
//     (Config.RequestTimeout) derived from the client's context — client
//     disconnect or deadline expiry cancels the evaluation (the pool
//     observes errs.ErrCanceled and releases its admission slot).
//
// Error contract → status codes: errs.ErrBadSpec → 400,
// errs.ErrThermalLimit → 422, errs.ErrCanceled → 408 (the nearest
// standard code to nginx's 499), errs.ErrOverloaded → 429, draining →
// 503; anything else is a 500. Error bodies are {"error": "..."}.
//
// Every request emits a "serve.<route>" span (when a tracer is attached)
// and maintains serve.requests / serve.request.errors /
// serve.request.seconds / serve.inflight / serve.queue.depth /
// serve.shed / serve.canceled in the registry.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"m3d/internal/errs"
	"m3d/internal/exec"
	"m3d/internal/flow"
	"m3d/internal/obs"
	"m3d/internal/tech"
)

// maxBodyBytes bounds request bodies; larger bodies fail with 400.
const maxBodyBytes = 1 << 20

// maxDesigns bounds the design cache, independent of Config.CacheCap. A
// retained design of the reduced 2×2 spec holds ~1.7 MB of heap and
// every /v1/flow miss builds one, so a stream of cold flows would
// otherwise keep every dead design alive. Each /v1/yield caller in this
// repository times one design, which a single slot keeps warm; the price
// is that a yield on a design evicted by a newer build re-runs its flow.
const maxDesigns = 1

// Config configures a Server. The zero value is usable: default PDK,
// default pool width, 64 in-flight requests with an equal waiting queue,
// a 30 s request deadline, no tracer, and a fresh metrics registry.
type Config struct {
	// PDK is the process model evaluations run against (nil =
	// tech.Default130()).
	PDK *tech.PDK
	// Workers is the exec pool width for each evaluation (≤ 0 =
	// exec.DefaultWorkers()).
	Workers int
	// MaxInFlight bounds concurrently admitted /v1 requests (≤ 0 = 64).
	MaxInFlight int
	// MaxQueue bounds requests waiting for admission beyond MaxInFlight:
	// 0 selects MaxInFlight, negative disables waiting entirely (shed as
	// soon as the in-flight limit is reached).
	MaxQueue int
	// RequestTimeout is the per-request evaluation deadline, derived from
	// the client's context: 0 selects 30 s, negative disables the
	// deadline.
	RequestTimeout time.Duration
	// CacheCap bounds each response cache (sweep and flow responses,
	// shared with /v1/batch items) at this many memoized responses,
	// evicting least-recently-used entries beyond it; the caches feed the
	// registry's cache.entries gauge and cache.evictions counter (≤ 0 =
	// unbounded). The design cache is not affected: it always keeps
	// maxDesigns retained designs.
	CacheCap int
	// Tracer receives one span per request and the evaluation's inner
	// spans; nil disables tracing.
	Tracer obs.Tracer
	// Metrics is the registry served by GET /metrics and fed by the
	// request counters (nil = a fresh registry).
	Metrics *obs.Registry
	// Now overrides the clock used for request-duration metrics (tests);
	// nil means time.Now.
	Now func() time.Time

	// JobStore persists async jobs (POST /v1/jobs) and their artifacts;
	// a restarted server built over the same store serves every finished
	// job and re-runs every unfinished one. nil keeps jobs in memory for
	// the process lifetime (no resume across restarts).
	JobStore JobStore
	// MaxJobs bounds concurrently running jobs (≤ 0 = 2). Jobs draw from
	// their own gate, not the request-admission gate.
	MaxJobs int
	// MaxJobQueue bounds jobs queued behind the running ones: 0 selects
	// 16, negative disables queueing (shed once MaxJobs are running).
	// Beyond both, POST /v1/jobs sheds with 429 + Retry-After.
	MaxJobQueue int
}

// Server is the HTTP evaluation service. Build with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	pdk     *tech.PDK
	workers int
	timeout time.Duration
	tracer  obs.Tracer
	reg     *obs.Registry
	now     func() time.Time
	gate    *exec.Gate
	mux     *http.ServeMux

	mu       sync.Mutex
	draining bool
	inflight int
	idle     chan struct{}
	idleOnce sync.Once

	sweeps exec.Cache[string, *SweepResponse]
	flows  exec.Cache[string, *FlowResponse]
	// designs retains full flow.Result databases (netlist + routes), the
	// output of Server.design; bounded at maxDesigns.
	designs exec.Cache[string, *flow.Result]

	jobs *jobTier

	// Test hooks (nil outside tests): evalStarted fires when an
	// evaluation body begins; evalBlock then blocks it, typically until
	// the request context ends.
	evalStarted func()
	evalBlock   func(ctx context.Context)
}

// New builds a Server from cfg (see Config for defaults).
func New(cfg Config) *Server {
	s := &Server{
		pdk:     cfg.PDK,
		workers: cfg.Workers,
		timeout: cfg.RequestTimeout,
		tracer:  cfg.Tracer,
		reg:     cfg.Metrics,
		now:     cfg.Now,
		idle:    make(chan struct{}),
	}
	if s.pdk == nil {
		s.pdk = tech.Default130()
	}
	if s.workers <= 0 {
		s.workers = exec.DefaultWorkers()
	}
	if s.timeout == 0 {
		s.timeout = 30 * time.Second
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	if s.now == nil {
		s.now = time.Now
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 64
	}
	maxQueue := cfg.MaxQueue
	if maxQueue == 0 {
		maxQueue = maxInFlight
	}
	s.gate = exec.NewGate(maxInFlight, maxQueue)

	if cfg.CacheCap > 0 {
		s.sweeps.Bound(cfg.CacheCap)
		s.flows.Bound(cfg.CacheCap)
	}
	s.designs.Bound(maxDesigns)
	s.sweeps.Instrument(s.reg)
	s.flows.Instrument(s.reg)
	s.designs.Instrument(s.reg)

	s.jobs = newJobTier(s, cfg.JobStore, cfg.MaxJobs, cfg.MaxJobQueue)

	s.mux = http.NewServeMux()
	s.mux.Handle("GET /healthz", s.handler("healthz", false, s.handleHealthz))
	s.mux.Handle("GET /metrics", s.handler("metrics", false, s.handleMetrics))
	s.mux.Handle("POST /v1/sweep", s.handler("sweep", true, s.handleSweep))
	s.mux.Handle("POST /v1/flow", s.handler("flow", true, s.handleFlow))
	s.mux.Handle("POST /v1/batch", s.handler("batch", true, s.handleBatch))
	s.mux.Handle("POST /v1/dse", s.handler("dse", true, s.handleDSE))
	s.mux.Handle("POST /v1/yield", s.handler("yield", true, s.handleYield))
	s.mux.Handle("POST /v1/jobs", s.handler("jobs", false, s.handleJobs))
	s.mux.Handle("GET /v1/jobs/{id}", s.handler("jobs.get", false, s.handleJobGet))
	s.mux.Handle("GET /v1/jobs/{id}/events", s.handler("jobs.events", false, s.handleJobEvents))
	s.mux.Handle("GET /v1/jobs/{id}/artifacts/{name}", s.handler("jobs.artifact", false, s.handleJobArtifact))
	s.mux.Handle("DELETE /v1/jobs/{id}", s.handler("jobs.cancel", false, s.handleJobCancel))

	// Resume every unfinished job the store holds: the queue re-runs them.
	s.jobs.resume()
	return s
}

// Metrics returns the server's registry (never nil after New).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// InFlight reports the number of admitted evaluation requests.
func (s *Server) InFlight() int { return s.gate.InFlight() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// enter registers one request against the drain barrier; it reports
// false when the server is draining (the request must be refused).
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

// leave is enter's inverse; the last request out signals Drain.
func (s *Server) leave() {
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		s.idleOnce.Do(func() { close(s.idle) })
	}
	s.mu.Unlock()
}

// Drain puts the server into drain mode — every new request is refused
// with 503 — interrupts the async job tier (running jobs stop at their
// next cancellation point and park back in "queued", the state a
// restarted server re-runs them from), and waits for in-flight requests and interrupted jobs to
// settle. It returns nil once the server is idle, or an error matching
// errs.ErrCanceled (and ctx.Err()) when ctx ends first. Drain is
// idempotent; the server stays refusing after it returns.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.inflight == 0 {
		s.idleOnce.Do(func() { close(s.idle) })
	}
	s.mu.Unlock()
	// Interrupt jobs first: event streams held open by watchers count as
	// in-flight requests, and they only finish once the tier cancels.
	s.jobs.interrupt()
	select {
	case <-s.idle:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with %d request(s) in flight: %w: %w",
			s.requestsInFlight(), errs.ErrCanceled, ctx.Err())
	}
	return s.jobs.wait(ctx)
}

func (s *Server) requestsInFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// handler wraps an endpoint body with the request pipeline: drain
// refusal, the admission gate (admit endpoints only), the request
// deadline, the request span, and the request metrics.
func (s *Server) handler(route string, admit bool, h func(ctx context.Context, w http.ResponseWriter, r *http.Request) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.enter() {
			w.Header().Set("Retry-After", "1")
			s.fail(w, errors.New("serve: draining"), http.StatusServiceUnavailable)
			return
		}
		defer s.leave()

		start := s.now()
		s.reg.Counter("serve.requests").Add(1)
		var sp obs.Span
		if s.tracer != nil {
			sp = s.tracer.StartSpan("serve."+route, obs.String("method", r.Method))
		}
		status := http.StatusOK
		defer func() {
			s.reg.Histogram("serve.request.seconds").Observe(s.now().Sub(start).Seconds())
			if sp != nil {
				sp.SetAttr(obs.Int("status", status))
				sp.End()
			}
		}()

		ctx := r.Context()
		if s.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
			defer cancel()
		}

		if admit {
			err := s.gate.Enter(ctx)
			s.reg.Gauge("serve.queue.depth").Set(int64(s.gate.Waiting()))
			if err != nil {
				status = statusOf(err)
				if errors.Is(err, errs.ErrOverloaded) {
					s.reg.Counter("serve.shed").Add(1)
					w.Header().Set("Retry-After", "1")
				}
				s.fail(w, err, status)
				return
			}
			s.reg.Gauge("serve.inflight").Set(int64(s.gate.InFlight()))
			defer func() {
				s.gate.Leave()
				s.reg.Gauge("serve.inflight").Set(int64(s.gate.InFlight()))
			}()
		}

		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		if err := h(ctx, w, r); err != nil {
			status = statusOf(err)
			s.fail(w, err, status)
		}
	})
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, err error, status int) {
	s.reg.Counter("serve.request.errors").Add(1)
	if status == http.StatusRequestTimeout {
		s.reg.Counter("serve.canceled").Add(1)
	}
	if status == http.StatusTooManyRequests {
		// Shed is shed wherever it surfaces (admission gate or job queue).
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	return enc.Encode(v)
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status string `json:"status"`
}

func (s *Server) handleHealthz(_ context.Context, w http.ResponseWriter, _ *http.Request) error {
	return writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

func (s *Server) handleMetrics(_ context.Context, w http.ResponseWriter, _ *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	return s.reg.WriteText(w)
}

// evalOptions are the exec options every evaluation runs under: ctx (the
// request deadline and client cancellation, or a job's own context), the
// server's pool width and registry, and the tracer jobTracer picks — the
// job's span tracker inside a job, the server tracer otherwise.
func (s *Server) evalOptions(ctx context.Context) []exec.Option {
	return []exec.Option{
		exec.WithContext(ctx),
		exec.WithWorkers(s.workers),
		exec.WithTracer(jobTracer(ctx, s)),
		exec.WithMetrics(s.reg),
	}
}

// coalesce evaluates key through the single-flight cache c: concurrent
// callers of one key share one run of eval (hits and misses count them),
// and a failed evaluation is forgotten so it never poisons the key. A
// caller that joined another caller's evaluation and inherited its
// cancellation (408) while its own ctx is still live evaluates again
// instead of failing with someone else's error.
func coalesce[V any](ctx context.Context, c *exec.Cache[string, V], key string, hits, misses *obs.Counter, eval func() (V, error)) (V, error) {
	for {
		ran := false
		v, err := c.DoMetered(key, hits, misses, func() (V, error) {
			ran = true
			return eval()
		})
		if err == nil {
			return v, nil
		}
		c.Forget(key)
		if ran || ctx.Err() != nil || statusOf(err) != http.StatusRequestTimeout {
			return v, err
		}
	}
}
