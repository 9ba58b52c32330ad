package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// yieldStreamBody is the pinned request the stream tests (and the
// scripts/yieldsmoke gate) replay: a small M3D design, a modest corner
// budget and a batch that forces several refinement elements.
const yieldStreamBody = `{"flow":{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":1},"samples":96,"batch":32,"seed":7}`

// TestYieldBadRequests is the 400-family table for /v1/yield.
func TestYieldBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		name string
		body string
	}{
		{"empty body", ``},
		{"trailing garbage", `{} {}`},
		{"unknown field", `{"bogus":1}`},
		{"bad flow style", `{"flow":{"style":"4D"}}`},
		{"negative samples", `{"samples":-1}`},
		{"oversized samples", `{"samples":1000000}`},
		{"negative batch", `{"batch":-4}`},
		{"non-positive period", `{"periods":[1e-9,0]}`},
		{"sigma out of range", `{"variation":{"si_drive_sigma":0.9}}`},
		{"correlation out of range", `{"variation":{"tier_corr":1.5}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := post(t, ts.URL+"/v1/yield", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", status, body)
			}
		})
	}
}

// TestYieldStream checks the /v1/yield reply shape: a JSON array of
// refinements whose sample counts strictly increase, whose quantile
// bands stay ordered, whose curves are monotone in period, and whose
// single done element comes last.
func TestYieldStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	status, hdr, body := post(t, ts.URL+"/v1/yield", yieldStreamBody)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var updates []YieldUpdate
	if err := json.Unmarshal(body, &updates); err != nil {
		t.Fatalf("stream is not a JSON array: %v", err)
	}
	// 96 samples at batch 32 → 3 refinements + the done element.
	if len(updates) != 4 {
		t.Fatalf("got %d elements, want 4", len(updates))
	}
	prev := 0
	for i, u := range updates {
		if u.Error != "" {
			t.Fatalf("element %d carries error %q", i, u.Error)
		}
		if got, final := u.Done, i == len(updates)-1; got != final {
			t.Fatalf("element %d: done = %v", i, got)
		}
		if !u.Done {
			if u.Samples <= prev {
				t.Fatalf("element %d: samples %d not increasing past %d", i, u.Samples, prev)
			}
			prev = u.Samples
		} else if u.Samples != prev {
			t.Fatalf("done element samples %d != final refinement %d", u.Samples, prev)
		}
		if u.NominalCritPathS <= 0 {
			t.Fatalf("element %d: nominal critical path missing", i)
		}
		q := u.CritQuantiles
		if !(q.P5 <= q.P50 && q.P50 <= q.P95) {
			t.Fatalf("element %d: quantile order violated: %+v", i, q)
		}
		for j := 1; j < len(u.Curve); j++ {
			if u.Curve[j].Yield < u.Curve[j-1].Yield {
				t.Fatalf("element %d: yield curve decreased at %d", i, j)
			}
		}
	}
}

// TestYieldByteIdentical proves identical requests stream byte-identical
// replies at every pool width and across cache warmth: corners are
// sample-indexed, batch boundaries are request-fixed, and the design
// cache cannot alter re-timed values. The first stream is also pinned
// absolutely by yield_stream.golden.json (replayed over real HTTP by
// scripts/yieldsmoke), so a changed corner draw sequence fails here even
// though every width would still agree with every other.
func TestYieldByteIdentical(t *testing.T) {
	var first []byte
	for _, w := range widths {
		_, ts := newTestServer(t, Config{Workers: w})
		status, _, cold := post(t, ts.URL+"/v1/yield", yieldStreamBody)
		if status != http.StatusOK {
			t.Fatalf("width %d: status = %d, body %s", w, status, cold)
		}
		// Second hit reuses the cached design database and warm Timers.
		status, _, warm := post(t, ts.URL+"/v1/yield", yieldStreamBody)
		if status != http.StatusOK {
			t.Fatalf("width %d warm: status = %d", w, status)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("width %d: warm reply differs from cold", w)
		}
		if first == nil {
			first = cold
			checkGolden(t, "yield_stream.golden.json", first)
			continue
		}
		if !bytes.Equal(first, cold) {
			t.Fatalf("width %d stream differs from width %d", w, widths[0])
		}
	}
}

// TestYieldZeroVariationCollapses pins the σ=0 wire behaviour: an
// all-zero variation spec yields 1.0 at every period at or above
// nominal and a quantile band collapsed onto the nominal critical path.
func TestYieldZeroVariationCollapses(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"flow":{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":1},"samples":16,"variation":{}}`
	status, _, raw := post(t, ts.URL+"/v1/yield", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, raw)
	}
	var updates []YieldUpdate
	if err := json.Unmarshal(raw, &updates); err != nil {
		t.Fatal(err)
	}
	final := updates[len(updates)-1]
	nom := final.NominalCritPathS
	q := final.CritQuantiles
	if q.P5 != nom || q.P50 != nom || q.P95 != nom {
		t.Fatalf("σ=0 band %+v not collapsed onto nominal %v", q, nom)
	}
	for _, pt := range final.Curve {
		want := 0.0
		if pt.PeriodS >= nom {
			want = 1.0
		}
		if pt.Yield != want {
			t.Fatalf("σ=0 yield at T=%g is %g, want %g (nominal %g)",
				pt.PeriodS, pt.Yield, want, nom)
		}
	}
}
