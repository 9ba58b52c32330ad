package serve

import (
	"context"
	"math"
	"net/http"

	"m3d/internal/tech"
	"m3d/internal/vary"
)

// maxYieldSamples bounds one /v1/yield Monte-Carlo run (interactive
// budget; larger studies belong on the async job tier).
const maxYieldSamples = 65536

// maxYieldPeriods bounds the yield-curve periods of one request: every
// streamed element carries one curve point per period. It is ten times
// the 25 points vary.DefaultPeriods emits.
const maxYieldPeriods = 256

// defaultYieldSamples / defaultYieldBatch are the stock run size and
// per-update refinement batch.
const (
	defaultYieldSamples = 1024
	defaultYieldBatch   = 256
)

// YieldRequest is the POST /v1/yield body: one physical design (the
// embedded flow request, built or recalled through the design cache)
// timed under sampled inter-tier process corners. The reply is a
// chunked JSON array of YieldUpdate elements — one per sample batch,
// each refining the yield curve and critical-path quantiles over every
// sample timed so far, the last carrying done=true. Identical requests
// stream byte-identical replies at any server width: corners are
// sample-indexed and batch boundaries are fixed by the request.
type YieldRequest struct {
	// Flow names the design to time (same shape as POST /v1/flow).
	Flow FlowRequest `json:"flow"`
	// Variation sets the per-tier corner model; nil selects the stock
	// tech.DefaultVariation parameters.
	Variation *tech.Variation `json:"variation,omitempty"`
	// Samples is the Monte-Carlo size (0 → 1024, max 65536).
	Samples int `json:"samples,omitempty"`
	// Batch is the per-update refinement step (0 → 256, capped at
	// Samples).
	Batch int `json:"batch,omitempty"`
	// Seed selects the corner stream.
	Seed int64 `json:"seed,omitempty"`
	// Periods overrides the yield-curve clock periods in seconds
	// (default: vary.DefaultPeriods around the nominal critical path;
	// at most 256).
	Periods []float64 `json:"periods,omitempty"`
}

// validate checks the request shape — the decodeRequest contract.
func (q *YieldRequest) validate() error {
	if err := q.Flow.validate(); err != nil {
		return err
	}
	if q.Samples < 0 || q.Samples > maxYieldSamples {
		return badSpec("samples %d outside [0, %d]", q.Samples, maxYieldSamples)
	}
	if q.Batch < 0 {
		return badSpec("batch %d must be ≥ 0", q.Batch)
	}
	if len(q.Periods) > maxYieldPeriods {
		return badSpec("%d periods exceed the maximum of %d", len(q.Periods), maxYieldPeriods)
	}
	for _, p := range q.Periods {
		if !(p > 0) || math.IsInf(p, 1) {
			return badSpec("period %g must be positive and finite", p)
		}
	}
	if q.Variation != nil {
		if err := q.Variation.Validate(); err != nil {
			return badSpec("%v", err)
		}
	}
	return nil
}

// samples/batch return the defaults-applied run shape.
func (q *YieldRequest) samples() int {
	if q.Samples == 0 {
		return defaultYieldSamples
	}
	return q.Samples
}

func (q *YieldRequest) batch() int {
	b := q.Batch
	if b == 0 {
		b = defaultYieldBatch
	}
	if n := q.samples(); b > n {
		b = n
	}
	return b
}

// YieldUpdate is one element of the POST /v1/yield reply array: the
// yield curve and critical-path quantile band over every corner timed so
// far. Samples counts timed corners and strictly increases across
// non-final elements; the final element repeats the converged state with
// done=true. Error carries an in-band failure once the stream is
// committed (the status line is gone by then).
type YieldUpdate struct {
	Samples          int               `json:"samples"`
	NominalCritPathS float64           `json:"nominal_crit_path_s"`
	NominalFmaxHz    float64           `json:"nominal_fmax_hz"`
	Curve            []vary.YieldPoint `json:"curve"`
	CritQuantiles    vary.Quantiles    `json:"crit_quantiles"`
	Done             bool              `json:"done,omitempty"`
	Error            string            `json:"error,omitempty"`
}

// handleYield is POST /v1/yield: Monte-Carlo timing yield over one
// design, streamed as a chunked JSON array of the refinements
// vary.(*Engine).Refine emits, one per batch (shared arrayStream framing
// with /v1/dse). The flow runs (or is recalled) first; anything failing
// before the first batch settles still owns the status line, and a
// broken stream stops the refinement.
func (s *Server) handleYield(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	req, err := decodeRequest[YieldRequest](r.Body)
	if err != nil {
		return err
	}
	s.reg.Counter("serve.yield.requests").Add(1)

	d, err := s.design(ctx, &req.Flow)
	if err != nil {
		return err
	}
	timing, err := d.timing()
	if err != nil {
		return err
	}
	v := tech.DefaultVariation()
	if req.Variation != nil {
		v = *req.Variation
	}
	eng, err := timing.Engine(v, req.Seed)
	if err != nil {
		return err
	}

	var st *arrayStream
	var last *vary.Result
	err = eng.Refine(vary.Options{Samples: req.samples(), Periods: req.Periods}, req.batch(),
		func(res *vary.Result) bool {
			if st == nil {
				st = newArrayStream(w)
			}
			last = res
			return st.emit(yieldUpdate(res, false))
		}, s.evalOptions(ctx)...)
	switch {
	case st == nil:
		return err
	case err != nil:
		st.emit(YieldUpdate{Error: err.Error()})
	default:
		st.emit(yieldUpdate(last, true))
	}
	st.close()
	return nil
}

// yieldUpdate is one stream element over a refinement.
func yieldUpdate(res *vary.Result, done bool) YieldUpdate {
	return YieldUpdate{
		Samples:          len(res.CritPathS),
		NominalCritPathS: res.Nominal.CriticalPathS,
		NominalFmaxHz:    res.Nominal.FmaxHz,
		Curve:            res.Curve,
		CritQuantiles:    res.CritQuantiles,
		Done:             done,
	}
}
