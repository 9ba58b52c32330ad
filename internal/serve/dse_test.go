package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"m3d/internal/dse"
)

// dseStreamBody is the request the golden stream test (and the
// scripts/smoke gate) replays: a small pinned space explored to
// convergence with a pinned seed.
const dseStreamBody = `{"deltas":{"min":1,"max":2.5,"steps":8},"tier_pairs":{"min":1,"max":3},"bw_scales":{"min":1,"max":4,"steps":4},"seed":7,"max_evals":96}`

// TestDSEGolden locks the full /v1/dse stream — every round's frontier
// snapshot and the final totals — and proves it is byte-identical at
// pool widths 1, 2 and 8.
func TestDSEGolden(t *testing.T) {
	var first []byte
	for _, w := range widths {
		_, ts := newTestServer(t, Config{Workers: w})
		status, hdr, body := post(t, ts.URL+"/v1/dse", dseStreamBody)
		if status != http.StatusOK {
			t.Fatalf("width %d: status = %d, body %s", w, status, body)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("width %d: Content-Type = %q", w, ct)
		}
		if first == nil {
			first = body
			checkGolden(t, "dse_stream.golden.json", body)
			continue
		}
		if !bytes.Equal(first, body) {
			t.Fatalf("width %d stream differs from width %d", w, widths[0])
		}
	}
}

// TestDSEFinalFrontierDeterministic decodes the stream and checks the
// final Pareto set is deep-equal across widths, the stream holds at
// least one round snapshot before the final element, no element carries
// an in-band error, the evaluation counter is monotone across rounds,
// every snapshot is mutually non-dominated and drops a point only for
// one that dominates it, and the final element covers the whole 8×3×4
// grid with a non-empty frontier.
func TestDSEFinalFrontierDeterministic(t *testing.T) {
	var firstFinal *DSEUpdate
	for _, w := range widths {
		_, ts := newTestServer(t, Config{Workers: w})
		status, _, body := post(t, ts.URL+"/v1/dse", dseStreamBody)
		if status != http.StatusOK {
			t.Fatalf("width %d: status = %d", w, status)
		}
		var updates []DSEUpdate
		if err := json.Unmarshal(body, &updates); err != nil {
			t.Fatalf("width %d: stream is not a JSON array: %v", w, err)
		}
		if len(updates) < 2 {
			t.Fatalf("width %d: %d elements, want at least one round plus the final", w, len(updates))
		}
		prevEvals := 0
		var prev []dse.Point
		for i, u := range updates {
			if u.Error != "" {
				t.Fatalf("width %d: element %d carries an in-band error: %s", w, i, u.Error)
			}
			if u.Evaluations < prevEvals {
				t.Fatalf("width %d: evaluations fell at element %d: %d < %d",
					w, i, u.Evaluations, prevEvals)
			}
			prevEvals = u.Evaluations
			for _, p := range u.Frontier {
				for _, q := range u.Frontier {
					if p != q && p.Dominates(q) {
						t.Fatalf("width %d: element %d frontier not mutually non-dominated", w, i)
					}
				}
			}
			ar := &dse.Archive{}
			for _, q := range u.Frontier {
				ar.Add(q)
			}
			if missing, ok := ar.Uncovered(prev); !ok {
				t.Fatalf("width %d: element %d dropped frontier point %+v without dominating it", w, i, missing)
			}
			prev = u.Frontier
			if u.Done != (i == len(updates)-1) {
				t.Fatalf("width %d: done flag misplaced at element %d", w, i)
			}
		}
		final := updates[len(updates)-1]
		if final.GridSize != 8*3*4 || len(final.Frontier) == 0 {
			t.Fatalf("width %d: final element wants the 8×3×4 grid and a non-empty frontier: %+v", w, final)
		}
		if firstFinal == nil {
			firstFinal = &final
			continue
		}
		if !reflect.DeepEqual(*firstFinal, final) {
			t.Fatalf("width %d: final frontier differs from width %d", w, widths[0])
		}
	}
}

// TestDSEPromote runs a tiny exploration with promote=1 and checks the
// final element carries exactly one successful flow result. The deadline
// is raised because the promoted flow runs far slower under -race.
func TestDSEPromote(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 10 * time.Minute})
	body := `{"deltas":{"min":1,"max":1.5,"steps":2},"tier_pairs":{"min":1,"max":2},"bw_scales":{"min":1,"max":2,"steps":2},"seed":3,"max_evals":8,"promote":1}`
	status, _, raw := post(t, ts.URL+"/v1/dse", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, raw)
	}
	var updates []DSEUpdate
	if err := json.Unmarshal(raw, &updates); err != nil {
		t.Fatal(err)
	}
	final := updates[len(updates)-1]
	if len(final.Promoted) != 1 {
		t.Fatalf("promoted %d points, want 1", len(final.Promoted))
	}
	pr := final.Promoted[0]
	if pr.Status != http.StatusOK || pr.Flow == nil || pr.Error != "" {
		t.Fatalf("promotion failed: %+v", pr)
	}
	if pr.Flow.Style != "M3D" || pr.Flow.Cells == 0 {
		t.Fatalf("promoted flow looks empty: %+v", pr.Flow)
	}
}

// TestDSEBadRequests: every malformed body is a 400 with the JSON error
// envelope, before any stream bytes are written.
func TestDSEBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"unknown field":  `{"bogus":1}`,
		"truncated":      `{"deltas":`,
		"trailing":       `{} {}`,
		"delta below 1":  `{"deltas":{"min":0.5,"max":2,"steps":4}}`,
		"bw non-pos":     `{"bw_scales":{"min":0,"max":2,"steps":2}}`,
		"tiers inverted": `{"tier_pairs":{"min":3,"max":1}}`,
		"neg max_evals":  `{"max_evals":-1}`,
		"promote high":   `{"promote":99}`,
		"grid blown":     `{"deltas":{"min":1,"max":2,"steps":512},"tier_pairs":{"min":1,"max":64},"bw_scales":{"min":1,"max":2,"steps":512}}`,
	} {
		status, _, body := post(t, ts.URL+"/v1/dse", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, status, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: malformed error envelope %s", name, body)
		}
	}
}

// TestDSEDefaultSpace: an empty body explores the stock box.
func TestDSEDefaultSpace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, raw := post(t, ts.URL+"/v1/dse", `{"seed":1}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, raw)
	}
	var updates []DSEUpdate
	if err := json.Unmarshal(raw, &updates); err != nil {
		t.Fatal(err)
	}
	final := updates[len(updates)-1]
	if final.GridSize != 16*6*8 {
		t.Fatalf("default grid = %d, want %d", final.GridSize, 16*6*8)
	}
	if len(final.Frontier) == 0 {
		t.Fatal("default exploration returned an empty frontier")
	}
}

// TestPromotionRequestIsFlowSpec: the flow request a promoted point
// coalesces on derives the point's dse.Point.FlowSpec with the
// exploration's seed, so /v1/dse and m3ddse pareto -promote run one
// design per point, across the CS clamp's range.
func TestPromotionRequestIsFlowSpec(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 9} {
		pt := dse.Point{N: n}
		req := promotionRequest(pt, 7)
		got, err := req.spec()
		if err != nil {
			t.Fatalf("N %d: %v", n, err)
		}
		if want := pt.FlowSpec(7); got != want {
			t.Errorf("N %d: request spec %+v, FlowSpec %+v", n, got, want)
		}
	}
}
