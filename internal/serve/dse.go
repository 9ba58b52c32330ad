package serve

import (
	"context"
	"net/http"

	"m3d/internal/dse"
)

// maxPromote bounds the number of frontier points one request may
// promote to full physical-flow runs (each run is orders of magnitude
// more expensive than the whole analytic exploration).
const maxPromote = 4

// DSERequest is the POST /v1/dse body: the boxed design space plus the
// exploration knobs. Omitted axes take the dse.DefaultSpace box; the
// reply is a chunked JSON array of DSEUpdate elements — one per
// refinement round, flushed as the round settles, the last carrying
// done=true, the run totals and any promoted flow runs.
type DSERequest struct {
	// Deltas / TierPairs / BWScales box the Case 1 × Case 3 × bandwidth
	// space (see dse.Space); nil axes use the defaults.
	Deltas    *dse.Axis    `json:"deltas,omitempty"`
	TierPairs *dse.IntAxis `json:"tier_pairs,omitempty"`
	BWScales  *dse.Axis    `json:"bw_scales,omitempty"`
	// PerTierPowerW feeds the Eq. 17 thermal-headroom objective (≤ 0 →
	// default 2 W per pair).
	PerTierPowerW float64 `json:"per_tier_power_w,omitempty"`
	// MaxEvals bounds the point evaluations (0 → a quarter of the grid).
	MaxEvals int `json:"max_evals,omitempty"`
	// Seed pins the randomized exploration samples; the stream is
	// byte-identical across identical requests at any server width.
	Seed int64 `json:"seed,omitempty"`
	// Explore is the seeded random sample count mixed into the first
	// round (0 → 8, negative → none).
	Explore int `json:"explore,omitempty"`
	// RequireThermal keeps Eq. 17 violators out of the frontier.
	RequireThermal bool `json:"require_thermal,omitempty"`
	// Promote runs the top-EDP frontier points (at most maxPromote)
	// through the physical flow and attaches the results to the final
	// update. Promotion failures are reported in-band per point.
	Promote int `json:"promote,omitempty"`
}

// space assembles the dse.Space with defaults applied.
func (q *DSERequest) space() dse.Space {
	var sp dse.Space
	if q.Deltas != nil {
		sp.Deltas = *q.Deltas
	}
	if q.TierPairs != nil {
		sp.TierPairs = *q.TierPairs
	}
	if q.BWScales != nil {
		sp.BWScales = *q.BWScales
	}
	sp.PerTierPowerW = q.PerTierPowerW
	return sp.WithDefaults()
}

// options is the dse.Options the request's knobs select, shared by
// POST /v1/dse and DSE jobs.
func (q *DSERequest) options() dse.Options {
	return dse.Options{
		MaxEvals:       q.MaxEvals,
		Seed:           q.Seed,
		Explore:        q.Explore,
		RequireThermal: q.RequireThermal,
	}
}

// validate checks the space and the serve-level knobs (the decodeRequest
// contract).
func (q *DSERequest) validate() error {
	if err := q.space().Validate(); err != nil {
		return err
	}
	if q.MaxEvals < 0 {
		return badSpec("max_evals %d must be ≥ 0", q.MaxEvals)
	}
	if q.Promote < 0 || q.Promote > maxPromote {
		return badSpec("promote %d outside [0, %d]", q.Promote, maxPromote)
	}
	return nil
}

// DSEUpdate is one element of the POST /v1/dse reply array: a dse.Update
// frontier snapshot, plus — on the final element — the promoted flow
// runs. Error carries an in-band evaluation failure when the stream was
// already committed (the status line is gone by then); requests that
// fail before any round settles get an ordinary error status instead.
type DSEUpdate struct {
	dse.Update
	Promoted []DSEPromotion `json:"promoted,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// DSEPromotion is one frontier point run through the physical flow.
// Status carries the HTTP status the flow would have received as a
// standalone request; failures are isolated per point.
type DSEPromotion struct {
	Point  dse.Point     `json:"point"`
	Status int           `json:"status"`
	Error  string        `json:"error,omitempty"`
	Flow   *FlowResponse `json:"flow,omitempty"`
}

// handleDSE is POST /v1/dse: one adaptive Pareto exploration streamed as
// a chunked JSON array of frontier snapshots (shared arrayStream
// framing with /v1/batch). Points are not memoized across requests: one
// costs about 2 µs, and building the case-study machine is nearly all of
// a request's cost.
func (s *Server) handleDSE(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	req, err := decodeRequest[DSERequest](r.Body)
	if err != nil {
		return err
	}
	s.reg.Counter("serve.dse.requests").Add(1)

	// The stream opens lazily at the first settled round: anything that
	// fails before then (bad machine, immediate cancellation) still owns
	// the status line.
	var st *arrayStream
	out, err := s.explore(ctx, req, func(u dse.Update) {
		if st == nil {
			st = newArrayStream(w)
		}
		st.emit(DSEUpdate{Update: u})
	})
	if st == nil {
		if err != nil {
			return err
		}
		if st = newArrayStream(w); !st.ok() {
			return nil
		}
	}
	if err != nil {
		out = DSEUpdate{Error: err.Error()}
	}
	st.emit(out)
	st.close()
	return nil
}

// explore runs one DSE request, the evaluation POST /v1/dse and DSE jobs
// share: dse.Explore hands every round but the last to round, and the
// settled exploration becomes the final DSEUpdate with its req.Promote
// top-EDP frontier points, each run through the physical flow via the
// coalescing flow cache — a small M3D SoC whose CS parallelism follows
// the point's N, clamped to the interactive range. Promotion is a
// physical-design sanity probe of the frontier shape, not a full-scale
// build, and must land within the request deadline; each point's failure
// is reported in-band.
func (s *Server) explore(ctx context.Context, req *DSERequest, round func(dse.Update)) (DSEUpdate, error) {
	var final dse.Update
	_, err := dse.Explore(s.pdk, req.space(), req.options(), func(u dse.Update) {
		if u.Done {
			final = u // held back: promotions ride on the final element
			return
		}
		round(u)
	}, s.evalOptions(ctx)...)
	if err != nil {
		return DSEUpdate{}, err
	}
	out := DSEUpdate{Update: final}
	for _, p := range dse.TopK(final.Frontier, req.Promote) {
		numCS := min(max(p.N, 1), 4)
		fr := &FlowRequest{
			Style:          "M3D",
			NumCS:          numCS,
			ArrayRows:      2,
			ArrayCols:      2,
			RRAMCapMB:      1,
			Banks:          numCS,
			GlobalSRAMBits: 64 << 10,
			Seed:           req.Seed,
		}
		pr := DSEPromotion{Point: p, Status: http.StatusOK}
		if resp, err := s.flowCached(ctx, fr); err != nil {
			pr.Status, pr.Error = statusOf(err), err.Error()
		} else {
			pr.Flow = resp
		}
		out.Promoted = append(out.Promoted, pr)
	}
	return out, nil
}
