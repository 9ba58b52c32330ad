package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"m3d/internal/errs"
	"m3d/internal/tech"
	"m3d/internal/vary"
)

// FuzzSweepRequest hammers the POST /v1/sweep request decoder and
// validator with arbitrary bodies. The contract under fuzzing: decode +
// validate never panic, and every rejection is an errs.ErrBadSpec (the
// 400 family) — a malformed body must never surface as a 5xx. Bodies
// that decode and validate cleanly must round-trip through key()
// without falling into the unkeyable branch.
//
// Seeds live in testdata/fuzz/FuzzSweepRequest (checked in), covering
// each sweep kind, the empty default, and known-hostile shapes:
// truncated JSON, trailing garbage, unknown fields, foreign axes and
// overflow-baiting capacities.
func FuzzSweepRequest(f *testing.F) {
	for _, tc := range sweepRequests {
		f.Add(tc.body)
	}
	f.Add(``)
	f.Add(`{}`)
	f.Add(`{"kind":`)
	f.Add(`{"kind":"bandwidth_cs"}{"kind":"beta"}`)
	f.Add(`{"kind":"warp"}`)
	f.Add(`{"kind":"delta","betas":[1.5]}`)
	f.Add(`{"kind":"rram_capacity","capacities_mb":[9007199254740993]}`)
	f.Add(`{"kind":"beta","unknown_field":1}`)
	f.Add(`{"kind":"delta","deltas":[0.5]}`)
	f.Add("\x00\xff")

	f.Fuzz(func(t *testing.T, body string) {
		var req SweepRequest
		err := decode(strings.NewReader(body), &req)
		if err == nil {
			err = req.validate()
		}
		if err != nil {
			if !errors.Is(err, errs.ErrBadSpec) {
				t.Fatalf("rejection is not ErrBadSpec: %v", err)
			}
			if got := statusOf(err); got != http.StatusBadRequest {
				t.Fatalf("statusOf(%v) = %d, want 400", err, got)
			}
			return
		}
		if strings.HasPrefix(req.key(), "unkeyable:") {
			t.Fatalf("accepted request is unkeyable: %q", body)
		}
	})
}

// FuzzDSERequest hammers the POST /v1/dse request decoder and validator
// with arbitrary bodies through the same decodeRequest entry the handler
// uses. Contract: no panics, every rejection is errs.ErrBadSpec (the 400
// family), and an accepted request's defaults-applied space re-validates
// cleanly and stays within the evaluation-grid bound.
//
// Seeds live in testdata/fuzz/FuzzDSERequest (checked in): the golden
// stream request, the empty default, each axis alone, and the hostile
// shapes — truncated JSON, trailing garbage, unknown fields, inverted
// and out-of-range axes, oversized grids and promote counts.
func FuzzDSERequest(f *testing.F) {
	f.Add(dseStreamBody)
	f.Add(``)
	f.Add(`{}`)
	f.Add(`{"seed":1}`)
	f.Add(`{"deltas":{"min":1,"max":2.5,"steps":16}}`)
	f.Add(`{"tier_pairs":{"min":1,"max":6}}`)
	f.Add(`{"bw_scales":{"min":1,"max":8,"steps":8},"promote":2}`)
	f.Add(`{"deltas":`)
	f.Add(`{} {}`)
	f.Add(`{"bogus":1}`)
	f.Add(`{"deltas":{"min":0.5,"max":2,"steps":4}}`)
	f.Add(`{"tier_pairs":{"min":3,"max":1}}`)
	f.Add(`{"bw_scales":{"min":-1,"max":2,"steps":2}}`)
	f.Add(`{"deltas":{"min":1,"max":2,"steps":512},"tier_pairs":{"min":1,"max":64},"bw_scales":{"min":1,"max":2,"steps":512}}`)
	f.Add(`{"max_evals":-5}`)
	f.Add(`{"promote":99}`)
	f.Add("\x00\xff")

	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeRequest[DSERequest](strings.NewReader(body))
		if err != nil {
			if !errors.Is(err, errs.ErrBadSpec) {
				t.Fatalf("rejection is not ErrBadSpec: %v", err)
			}
			if got := statusOf(err); got != http.StatusBadRequest {
				t.Fatalf("statusOf(%v) = %d, want 400", err, got)
			}
			return
		}
		space := req.space()
		if err := space.Validate(); err != nil {
			t.Fatalf("accepted request's space re-validation failed: %v", err)
		}
		if space.GridSize() < 1 || space.GridSize() > maxSweepPoints {
			t.Fatalf("accepted grid size %d out of bounds", space.GridSize())
		}
	})
}

// FuzzJobsRequest hammers the POST /v1/jobs request decoder and
// validator with arbitrary bodies through the same decodeRequest entry
// the handler uses. Contract: no panics; every rejection is
// errs.ErrBadSpec (the 400 family); an accepted request names exactly
// one kind, canonicalizes through json.Marshal, and — for chunked
// sweeps — splits into chunks whose concatenation reproduces the
// primary axis exactly (the invariant the part/final stages rely on
// for byte-identical resumed results).
//
// Seeds live in testdata/fuzz/FuzzJobsRequest (checked in): each job
// kind, explicit ids and chunk counts, and the hostile shapes —
// truncated JSON, trailing garbage, multiple kinds, path-escaping ids,
// out-of-range chunk counts and chunks on non-sweep jobs.
func FuzzJobsRequest(f *testing.F) {
	f.Add(`{"sweep":{"kind":"delta","deltas":[1.0,1.5,2.0]}}`)
	f.Add(`{"id":"swjob","sweep":{"kind":"delta","deltas":[1.0,1.5,2.0,2.5]},"chunks":2}`)
	f.Add(`{"flow":{"style":"M3D","num_cs":2,"seed":1}}`)
	f.Add(`{"id":"fl.job-1","flow":{"style":"2D"}}`)
	f.Add(`{"dse":{"deltas":{"min":1,"max":2,"steps":3}}}`)
	f.Add(`{"sweep":{"kind":"tier_pairs","tier_pairs":[1,2,3]},"chunks":32}`)
	f.Add(``)
	f.Add(`{}`)
	f.Add(`{"sweep":`)
	f.Add(`{"sweep":{"kind":"delta","deltas":[1]}} extra`)
	f.Add(`{"sweep":{"kind":"delta","deltas":[1]},"flow":{"style":"2D"}}`)
	f.Add(`{"id":"../escape","sweep":{"kind":"delta","deltas":[1]}}`)
	f.Add(`{"id":"bad id","flow":{"style":"2D"}}`)
	f.Add(`{"flow":{"style":"2D"},"chunks":2}`)
	f.Add(`{"sweep":{"kind":"delta","deltas":[1]},"chunks":-1}`)
	f.Add(`{"sweep":{"kind":"delta","deltas":[1]},"chunks":33}`)
	f.Add("\x00\xff")

	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeRequest[JobRequest](strings.NewReader(body))
		if err != nil {
			if !errors.Is(err, errs.ErrBadSpec) {
				t.Fatalf("rejection is not ErrBadSpec: %v", err)
			}
			if got := statusOf(err); got != http.StatusBadRequest {
				t.Fatalf("statusOf(%v) = %d, want 400", err, got)
			}
			return
		}
		kind := req.kind()
		if kind != "sweep" && kind != "flow" && kind != "dse" {
			t.Fatalf("accepted request has kind %q", kind)
		}
		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not canonicalize: %v", err)
		}
		var round JobRequest
		if err := json.Unmarshal(canon, &round); err != nil {
			t.Fatalf("canonical form does not round-trip: %v", err)
		}
		if req.Sweep == nil {
			return
		}
		chunks := sweepChunks(req.Sweep, req.Chunks)
		if len(chunks) == 0 {
			t.Fatalf("accepted sweep split into zero chunks: %q", body)
		}
		var axis, whole int
		for _, c := range chunks {
			axis += sweepAxisLen(c)
		}
		whole = sweepAxisLen(req.Sweep)
		if axis != whole {
			t.Fatalf("chunked axis length %d != whole axis %d: %q", axis, whole, body)
		}
	})
}

// FuzzBatchRequest hammers the POST /v1/batch decode path: the lenient
// top-level array decode, the strict per-item decode, the sweep/flow
// one-of, and each item's spec validation. Contract: no panics; every
// whole-request rejection and every item-level pre-evaluation rejection
// is errs.ErrBadSpec (the 400 family); accepted items must be keyable
// (coalescing identity never degrades to the unkeyable branch).
//
// Seeds live in testdata/fuzz/FuzzBatchRequest (checked in): the mixed
// acceptance batch, single-item sweep and flow batches, and the hostile
// shapes — non-array bodies, truncated arrays, both/neither one-ofs,
// unknown item fields, and nested trailing garbage.
func FuzzBatchRequest(f *testing.F) {
	f.Add(batchMixedBody)
	f.Add(`[{"sweep":{"kind":"delta","deltas":[1.0,1.5]}}]`)
	f.Add(`[{"flow":{"style":"M3D","num_cs":2,"seed":1}}]`)
	f.Add(`[]`)
	f.Add(`[{}]`)
	f.Add(`[{"sweep":{"kind":"delta"},"flow":{}}]`)
	f.Add(`{"sweep":{"kind":"delta"}}`)
	f.Add(`[{"sweep":`)
	f.Add(`[{"sweep":{"kind":"delta"}}] extra`)
	f.Add(`[{"sweep":{"kind":"delta"},"bogus":1}]`)
	f.Add(`[{"flow":{"style":"4D"}},{"flow":{"rram_cap_mb":-1}}]`)
	f.Add(`[null,0,"x"]`)
	f.Add("\x00\xff")

	f.Fuzz(func(t *testing.T, body string) {
		requireBadSpec := func(err error) {
			t.Helper()
			if !errors.Is(err, errs.ErrBadSpec) {
				t.Fatalf("rejection is not ErrBadSpec: %v", err)
			}
			if got := statusOf(err); got != http.StatusBadRequest {
				t.Fatalf("statusOf(%v) = %d, want 400", err, got)
			}
		}
		var raws []json.RawMessage
		if err := decode(strings.NewReader(body), &raws); err != nil {
			requireBadSpec(err)
			return
		}
		if len(raws) == 0 || len(raws) > maxBatchItems {
			return // whole-request badSpec paths, trivially 400
		}
		for _, raw := range raws {
			item, err := decodeBatchItem(raw)
			if err != nil {
				requireBadSpec(err)
				continue
			}
			if item.Sweep != nil {
				if err := item.Sweep.validate(); err != nil {
					requireBadSpec(err)
					continue
				}
				if strings.HasPrefix(item.Sweep.key(), "unkeyable:") {
					t.Fatalf("accepted sweep item is unkeyable: %q", raw)
				}
				continue
			}
			spec, err := item.Flow.spec()
			if err == nil {
				err = spec.Validate()
			}
			if err != nil {
				requireBadSpec(err)
				continue
			}
			if strings.HasPrefix(item.Flow.key(), "unkeyable:") {
				t.Fatalf("accepted flow item is unkeyable: %q", raw)
			}
		}
	})
}

// FuzzYieldRequest hammers the POST /v1/yield request decoder and
// validator with arbitrary bodies through the same decodeRequest entry
// the handler uses. Contract: no panics, every rejection is
// errs.ErrBadSpec (the 400 family), and an accepted request's
// defaults-applied run shape stays within the sampling and period
// bounds and builds a valid corner sampler.
//
// Seeds live in testdata/fuzz/FuzzYieldRequest (checked in): the pinned
// stream request, the empty default, each knob alone, and the hostile
// shapes — truncated JSON, trailing garbage, unknown fields, hostile
// variation parameters, oversized sample counts and bad periods.
func FuzzYieldRequest(f *testing.F) {
	f.Add(yieldStreamBody)
	f.Add(``)
	f.Add(`{}`)
	f.Add(`{"samples":128}`)
	f.Add(`{"flow":{"style":"M3D","num_cs":2,"seed":1}}`)
	f.Add(`{"variation":{"si_drive_sigma":0.03,"cnfet_drive_sigma":0.08,"cnfet_vt_shift":0.05,"ilv_r_spread":0.1,"tier_corr":0.5}}`)
	f.Add(`{"periods":[1e-9,2e-9],"batch":16}`)
	f.Add(`{"flow":`)
	f.Add(`{} {}`)
	f.Add(`{"bogus":1}`)
	f.Add(`{"flow":{"style":"4D"}}`)
	f.Add(`{"samples":-1}`)
	f.Add(`{"samples":1000000}`)
	f.Add(`{"batch":-8}`)
	f.Add(`{"periods":[0]}`)
	f.Add(`{"variation":{"si_drive_sigma":-0.1}}`)
	f.Add(`{"variation":{"tier_corr":2}}`)
	f.Add("\x00\xff")

	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeRequest[YieldRequest](strings.NewReader(body))
		if err != nil {
			if !errors.Is(err, errs.ErrBadSpec) {
				t.Fatalf("rejection is not ErrBadSpec: %v", err)
			}
			if got := statusOf(err); got != http.StatusBadRequest {
				t.Fatalf("statusOf(%v) = %d, want 400", err, got)
			}
			return
		}
		n, b := req.samples(), req.batch()
		if n < 1 || n > maxYieldSamples {
			t.Fatalf("accepted request's sample count %d out of bounds", n)
		}
		if b < 1 || b > n {
			t.Fatalf("accepted request's batch %d out of bounds for %d samples", b, n)
		}
		if len(req.Periods) > maxYieldPeriods {
			t.Fatalf("accepted request has %d periods, max %d", len(req.Periods), maxYieldPeriods)
		}
		v := tech.DefaultVariation()
		if req.Variation != nil {
			v = req.Variation.variation()
		}
		if _, err := vary.NewSampler(v, req.Seed); err != nil {
			t.Fatalf("accepted request's variation rejected by sampler: %v", err)
		}
	})
}
