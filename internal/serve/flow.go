package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"m3d/internal/flow"
	"m3d/internal/macro"
)

// FlowRequest is the POST /v1/flow body: one RTL-to-GDS run, evaluated
// through flow.Run (m3d.RunFlow) under the request deadline. Zero fields
// take the SoCSpec defaults (paper scale — pass small arrays for
// interactive latency).
type FlowRequest struct {
	// Style is "2D" (Si access FETs) or "M3D" (CNFET access FETs over
	// logic); empty selects "2D".
	Style          string  `json:"style,omitempty"`
	NumCS          int     `json:"num_cs,omitempty"`
	ArrayRows      int     `json:"array_rows,omitempty"`
	ArrayCols      int     `json:"array_cols,omitempty"`
	RRAMCapMB      int     `json:"rram_cap_mb,omitempty"`
	Banks          int     `json:"banks,omitempty"`
	GlobalSRAMBits int64   `json:"global_sram_bits,omitempty"`
	TargetClockHz  float64 `json:"target_clock_hz,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	FoldLogic      bool    `json:"fold_logic,omitempty"`
	RunCTS         bool    `json:"run_cts,omitempty"`
	// ThermalCheck enables the Eq. 17 sign-off stage; violations fail
	// with 422 (errs.ErrThermalLimit). MaxTempRiseK ≤ 0 uses the PDK
	// budget.
	ThermalCheck bool    `json:"thermal_check,omitempty"`
	MaxTempRiseK float64 `json:"max_temp_rise_k,omitempty"`
}

// FlowResponse is the POST /v1/flow reply: the post-route report's
// headline numbers.
type FlowResponse struct {
	Style         string  `json:"style"`
	NumCS         int     `json:"num_cs"`
	Cells         int     `json:"cells"`
	Macros        int     `json:"macros"`
	HPWLNM        int64   `json:"hpwl_nm"`
	RoutedWLNM    int64   `json:"routed_wl_nm"`
	Vias          int     `json:"vias"`
	ILVs          int     `json:"ilvs"`
	FmaxHz        float64 `json:"fmax_hz"`
	TimingMet     bool    `json:"timing_met"`
	FootprintMM2  float64 `json:"footprint_mm2"`
	TotalPowerW   float64 `json:"total_power_w"`
	LeakagePowerW float64 `json:"leakage_power_w"`
}

func (q *FlowRequest) spec() (flow.SoCSpec, error) {
	spec := flow.SoCSpec{
		NumCS:          q.NumCS,
		ArrayRows:      q.ArrayRows,
		ArrayCols:      q.ArrayCols,
		RRAMCapBits:    int64(q.RRAMCapMB) << 23,
		Banks:          q.Banks,
		GlobalSRAMBits: q.GlobalSRAMBits,
		TargetClockHz:  q.TargetClockHz,
		Seed:           q.Seed,
		FoldLogic:      q.FoldLogic,
		RunCTS:         q.RunCTS,
	}
	switch q.Style {
	case "", macro.Style2D.String():
		spec.Style = macro.Style2D
	case macro.Style3D.String():
		spec.Style = macro.Style3D
	default:
		return spec, badSpec("unknown style %q (want %q or %q)",
			q.Style, macro.Style2D, macro.Style3D)
	}
	if q.RRAMCapMB < 0 {
		return spec, badSpec("rram_cap_mb %d must be ≥ 0", q.RRAMCapMB)
	}
	if !q.ThermalCheck && q.MaxTempRiseK != 0 {
		return spec, badSpec("max_temp_rise_k needs thermal_check")
	}
	return spec, nil
}

// validate checks the request shape through the spec derivation — the
// decodeRequest contract shared with the other endpoints.
func (q *FlowRequest) validate() error {
	spec, err := q.spec()
	if err != nil {
		return err
	}
	return spec.Validate()
}

// key is the coalescing identity of a flow request (canonical JSON).
func (q *FlowRequest) key() string {
	b, err := json.Marshal(q)
	if err != nil {
		return fmt.Sprintf("unkeyable:%p", q)
	}
	return "flow:" + string(b)
}

func (s *Server) handleFlow(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	req, err := decodeRequest[FlowRequest](r.Body)
	if err != nil {
		return err
	}
	resp, err := s.flowCached(ctx, req)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, resp)
}

// flowCached validates one decoded request and answers it from the
// response memo; /v1/flow bodies, /v1/batch flow items and DSE
// promotions share this path. On a miss the design evaluator builds (or
// recalls) the design.
func (s *Server) flowCached(ctx context.Context, req *FlowRequest) (*FlowResponse, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	return coalesce(ctx, &s.flows, req.key(), s.reg.Counter("serve.memo.hits"), s.reg.Counter("serve.memo.misses"),
		func() (*FlowResponse, error) {
			res, err := s.design(ctx, req)
			if err != nil {
				return nil, err
			}
			return flowResponseOf(res), nil
		})
}

// design builds (or recalls) the retained design database of one
// validated flow request. It is the server's only flow run: the flow
// response memo, /v1/yield and flow jobs all derive from the Result it
// returns. The cache keeps at most maxDesigns of them.
func (s *Server) design(ctx context.Context, req *FlowRequest) (*flow.Result, error) {
	spec, err := req.spec()
	if err != nil {
		return nil, err
	}
	return coalesce(ctx, &s.designs, req.key(), s.reg.Counter("serve.design.hits"), s.reg.Counter("serve.design.misses"),
		func() (*flow.Result, error) {
			if s.evalStarted != nil {
				s.evalStarted()
			}
			if s.evalBlock != nil {
				s.evalBlock(ctx)
			}
			s.reg.Counter("serve.flow.evals").Add(1)
			opts := s.evalOptions(ctx)
			if req.ThermalCheck {
				opts = append(opts, flow.WithThermalCheck(req.MaxTempRiseK))
			}
			return flow.Run(s.pdk, spec, opts...)
		})
}
