package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"m3d/internal/analytic"
	"m3d/internal/core"
	"m3d/internal/errs"
)

// Sweep kinds: which design-space axis POST /v1/sweep walks.
const (
	// KindBandwidthCS is the Fig. 8 (CS count × bandwidth scale) grid.
	KindBandwidthCS = "bandwidth_cs"
	// KindRRAMCapacity is the Fig. 9 iso-capacity sweep.
	KindRRAMCapacity = "rram_capacity"
	// KindDelta is the Fig. 10b-c BEOL FET width relaxation sweep (Case 1).
	KindDelta = "delta"
	// KindBeta is the Obs. 8 M3D via pitch sweep (Case 2).
	KindBeta = "beta"
	// KindTierPairs is the Fig. 10d interleaved tier-pair sweep (Case 3)
	// with the Eq. 17 thermal state of each stack.
	KindTierPairs = "tier_pairs"
)

// maxSweepPoints bounds one request's grid so a single malformed or
// hostile request cannot monopolize the service.
const maxSweepPoints = 65536

// maxTierPairs bounds the Case 3 stack depth (each pair allocates
// per-tier power state; far above the thermally feasible range).
const maxTierPairs = 4096

// SweepParams mirrors analytic.Params on the wire (Sec. III machine
// quantities). Omitted → the paper's case-study parameters.
type SweepParams struct {
	PPeak    float64 `json:"p_peak"`
	B2D      float64 `json:"b_2d"`
	B3D      float64 `json:"b_3d"`
	N        int     `json:"n"`
	Alpha2D  float64 `json:"alpha_2d"`
	Alpha3D  float64 `json:"alpha_3d"`
	EC       float64 `json:"e_c"`
	ECIdle   float64 `json:"e_c_idle"`
	EMIdle2D float64 `json:"e_m_idle_2d"`
	EMIdle3D float64 `json:"e_m_idle_3d"`
}

// SweepLoad mirrors analytic.Load on the wire. Omitted → the Fig. 8
// compute-bound reference load.
type SweepLoad struct {
	F0    float64 `json:"f0"`
	D0    float64 `json:"d0"`
	NPart int     `json:"n_part"`
}

// SweepRequest is the POST /v1/sweep body. Kind selects the axis; the
// axis fields not belonging to the kind must be left empty. Every axis
// has a paper default when omitted.
type SweepRequest struct {
	Kind string `json:"kind"`

	// bandwidth_cs
	Params   *SweepParams `json:"params,omitempty"`
	Load     *SweepLoad   `json:"load,omitempty"`
	CSCounts []int        `json:"cs_counts,omitempty"`
	BWScales []float64    `json:"bw_scales,omitempty"`

	// rram_capacity
	CapacitiesMB []int `json:"capacities_mb,omitempty"`

	// delta / beta
	Deltas []float64 `json:"deltas,omitempty"`
	Betas  []float64 `json:"betas,omitempty"`

	// tier_pairs
	TierPairs     []int   `json:"tier_pairs,omitempty"`
	PerTierPowerW float64 `json:"per_tier_power_w,omitempty"`
	// RequireThermal fails the request with 422 (errs.ErrThermalLimit)
	// when any swept stack exceeds the PDK's temperature-rise budget.
	RequireThermal bool `json:"require_thermal,omitempty"`
}

// SweepRow is one sweep point. Fields outside the request's kind are
// omitted; EDPBenefit is always present.
type SweepRow struct {
	NumCS      int     `json:"num_cs,omitempty"`
	BWScale    float64 `json:"bw_scale,omitempty"`
	CapacityMB int     `json:"capacity_mb,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	Beta       float64 `json:"beta,omitempty"`
	N3D        int     `json:"n_3d,omitempty"`
	N2DNew     int     `json:"n_2d_new,omitempty"`
	Y          int     `json:"y,omitempty"`
	N          int     `json:"n,omitempty"`
	TempRiseK  float64 `json:"temp_rise_k,omitempty"`
	ThermalOK  *bool   `json:"thermal_ok,omitempty"`
	EDPBenefit float64 `json:"edp_benefit"`
}

// SweepResponse is the POST /v1/sweep reply.
type SweepResponse struct {
	Kind string     `json:"kind"`
	Rows []SweepRow `json:"rows"`
}

// validate checks the request shape: a known kind, axes belonging to
// that kind only, and bounded grid sizes. Value-level validation
// (positive scales, δ ≥ 1, ...) is the library's and comes back as
// errs.ErrBadSpec too.
func (q *SweepRequest) validate() error {
	switch q.Kind {
	case KindBandwidthCS, KindRRAMCapacity, KindDelta, KindBeta, KindTierPairs:
	default:
		return badSpec("unknown sweep kind %q (want %s, %s, %s, %s or %s)", q.Kind,
			KindBandwidthCS, KindRRAMCapacity, KindDelta, KindBeta, KindTierPairs)
	}
	if q.Kind != KindBandwidthCS &&
		(len(q.CSCounts) > 0 || len(q.BWScales) > 0 || q.Params != nil || q.Load != nil) {
		return badSpec("kind %q does not take cs_counts/bw_scales/params/load", q.Kind)
	}
	if q.Kind != KindRRAMCapacity && len(q.CapacitiesMB) > 0 {
		return badSpec("kind %q does not take capacities_mb", q.Kind)
	}
	if q.Kind != KindDelta && len(q.Deltas) > 0 {
		return badSpec("kind %q does not take deltas", q.Kind)
	}
	if q.Kind != KindBeta && len(q.Betas) > 0 {
		return badSpec("kind %q does not take betas", q.Kind)
	}
	if q.Kind != KindTierPairs &&
		(len(q.TierPairs) > 0 || q.PerTierPowerW != 0 || q.RequireThermal) {
		return badSpec("kind %q does not take tier_pairs/per_tier_power_w/require_thermal", q.Kind)
	}
	points := len(q.CapacitiesMB) + len(q.Deltas) + len(q.Betas) + len(q.TierPairs)
	if q.Kind == KindBandwidthCS {
		points = max(len(q.CSCounts), 1) * max(len(q.BWScales), 1)
	}
	if points > maxSweepPoints {
		return badSpec("%d sweep points exceed the per-request limit %d", points, maxSweepPoints)
	}
	for _, y := range q.TierPairs {
		if y < 1 || y > maxTierPairs {
			return badSpec("tier pairs %d outside [1, %d]", y, maxTierPairs)
		}
	}
	for _, mb := range q.CapacitiesMB {
		// The upper bound keeps mb<<23 far from int64 overflow.
		if mb < 1 || mb > 1<<20 {
			return badSpec("capacity %d MB outside [1, %d]", mb, 1<<20)
		}
	}
	return nil
}

// key is the coalescing identity: the canonical JSON of the decoded
// request, so field order and whitespace differences still coalesce.
func (q *SweepRequest) key() string {
	b, err := json.Marshal(q)
	if err != nil {
		// Marshal of a decoded request cannot fail; keep the key unique
		// rather than coalescing unrelated requests.
		return fmt.Sprintf("unkeyable:%p", q)
	}
	return "sweep:" + string(b)
}

func (s *Server) handleSweep(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	req, err := decodeRequest[SweepRequest](r.Body)
	if err != nil {
		return err
	}
	resp, err := s.sweepCached(ctx, req)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, resp)
}

// sweepCached validates one decoded request and evaluates it through the
// coalescing cache; /v1/sweep bodies and /v1/batch sweep items share this
// path, so identical requests coalesce across both endpoints.
func (s *Server) sweepCached(ctx context.Context, req *SweepRequest) (*SweepResponse, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	return coalesce(ctx, &s.sweeps, req.key(), s.reg.Counter("serve.memo.hits"), s.reg.Counter("serve.memo.misses"),
		func() (*SweepResponse, error) {
			if s.evalStarted != nil {
				s.evalStarted()
			}
			if s.evalBlock != nil {
				s.evalBlock(ctx)
			}
			s.reg.Counter("serve.sweep.evals").Add(1)
			return s.evalSweep(ctx, req)
		})
}

// evalSweep dispatches one validated request onto the analytic/core
// evaluators under the server's exec options.
func (s *Server) evalSweep(ctx context.Context, q *SweepRequest) (*SweepResponse, error) {
	opts := s.evalOptions(ctx)
	resp := &SweepResponse{Kind: q.Kind}
	switch q.Kind {
	case KindBandwidthCS:
		params := core.Fig8Machine()
		if q.Params != nil {
			params = analytic.Params{
				PPeak: q.Params.PPeak, B2D: q.Params.B2D, B3D: q.Params.B3D, N: q.Params.N,
				Alpha2D: q.Params.Alpha2D, Alpha3D: q.Params.Alpha3D,
				EC: q.Params.EC, ECIdle: q.Params.ECIdle,
				EMIdle2D: q.Params.EMIdle2D, EMIdle3D: q.Params.EMIdle3D,
			}
		}
		load := core.Fig8ComputeBound
		if q.Load != nil {
			load = analytic.Load{F0: q.Load.F0, D0: q.Load.D0, NPart: q.Load.NPart}
		}
		cs, bw := q.CSCounts, q.BWScales
		if len(cs) == 0 {
			cs = core.Fig8CSCounts
		}
		if len(bw) == 0 {
			bw = core.Fig8BWScales
		}
		points, err := analytic.SweepBandwidthCS(params, load, cs, bw, opts...)
		if err != nil {
			return nil, err
		}
		for _, pt := range points {
			resp.Rows = append(resp.Rows, SweepRow{
				NumCS: pt.NumCS, BWScale: pt.BWScale, EDPBenefit: pt.EDPBenefit,
			})
		}
	case KindRRAMCapacity:
		rows, err := core.Fig9(s.pdk, q.CapacitiesMB, opts...)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			resp.Rows = append(resp.Rows, SweepRow{
				CapacityMB: row.CapacityMB, N: row.N, EDPBenefit: row.EDPBenefit,
			})
		}
	case KindDelta:
		rows, err := core.Fig10bc(s.pdk, q.Deltas, opts...)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			resp.Rows = append(resp.Rows, SweepRow{
				Delta: row.Delta, N3D: row.N3D, N2DNew: row.N2DNew, EDPBenefit: row.EDPBenefit,
			})
		}
	case KindBeta:
		rows, err := core.Obs8(s.pdk, q.Betas, opts...)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			resp.Rows = append(resp.Rows, SweepRow{
				Delta: row.Delta, Beta: row.Beta, N3D: row.N3D, N2DNew: row.N2DNew,
				EDPBenefit: row.EDPBenefit,
			})
		}
	case KindTierPairs:
		rows, err := core.Fig10d(s.pdk, q.TierPairs, q.PerTierPowerW, opts...)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			ok := row.Thermal
			resp.Rows = append(resp.Rows, SweepRow{
				Y: row.Y, N: row.N, TempRiseK: row.TempRiseK, ThermalOK: &ok,
				EDPBenefit: row.EDPBenefit,
			})
			if q.RequireThermal && !ok {
				return nil, fmt.Errorf(
					"serve: tier pairs Y=%d rise %.2f K over the PDK budget: %w",
					row.Y, row.TempRiseK, errs.ErrThermalLimit)
			}
		}
	}
	return resp, nil
}
