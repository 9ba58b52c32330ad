package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"m3d/internal/errs"
)

// yieldStreamBody is the pinned request the stream tests (and the
// scripts/smoke gate) replay: a small M3D design, a modest corner
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
		{"too many periods", `{"periods":[` + strings.Repeat(`1e-9,`, maxYieldPeriods) + `2e-9]}`},
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

// TestYieldRequestNonFinitePeriods: JSON cannot spell NaN or Inf, but a
// request built in Go can, so validate refuses non-finite periods too.
func TestYieldRequestNonFinitePeriods(t *testing.T) {
	for _, p := range []float64{math.NaN(), math.Inf(1)} {
		q := YieldRequest{Periods: []float64{p}}
		if err := q.validate(); !errors.Is(err, errs.ErrBadSpec) {
			t.Errorf("period %g: got %v, want ErrBadSpec", p, err)
		}
	}
	q := YieldRequest{Periods: make([]float64, maxYieldPeriods)}
	for i := range q.Periods {
		q.Periods[i] = 1e-9
	}
	if err := q.validate(); err != nil {
		t.Errorf("%d periods: got %v", maxYieldPeriods, err)
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

// yieldBody is yieldStreamBody with its corner seed replaced: the same
// design, run shape and variation, another corner stream.
func yieldBody(seed int64) string {
	return strings.Replace(yieldStreamBody, `"seed":7}`, fmt.Sprintf(`"seed":%d}`, seed), 1)
}

// TestYieldByteIdentical proves that one retained design serves every
// yield stream byte-identically and compiles its timing once. Each
// corner seed's reference stream comes from a fresh width-1 server;
// seed 7's is also pinned absolutely by yield_stream.golden.json
// (replayed over real HTTP by scripts/smoke), so a changed corner
// draw sequence fails here even though every server would still agree
// with every other. At every pool width one server then takes each seed
// twice, first all at once (so the compile itself is contended) and
// then in sequence: every stream must equal its reference, and
// serve.yield.compiles must read 1. A /v1/flow on another seed then
// evicts the design (maxDesigns = 1), and the next yield must rebuild
// it, compile again and still stream the same bytes.
func TestYieldByteIdentical(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 7}
	fresh := make(map[int64][]byte, len(seeds))
	for _, seed := range seeds {
		_, ts := newTestServer(t, Config{Workers: 1})
		status, _, body := post(t, ts.URL+"/v1/yield", yieldBody(seed))
		if status != http.StatusOK {
			t.Fatalf("seed %d: status = %d, body %s", seed, status, body)
		}
		fresh[seed] = body
	}
	checkGolden(t, "yield_stream.golden.json", fresh[7])

	for _, w := range widths {
		s, ts := newTestServer(t, Config{Workers: w})
		var wg sync.WaitGroup
		for _, seed := range seeds {
			for rep := 0; rep < 2; rep++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/yield", "application/json", strings.NewReader(yieldBody(seed)))
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					body, err := io.ReadAll(resp.Body)
					if err != nil {
						t.Error(err)
						return
					}
					if resp.StatusCode != http.StatusOK || !bytes.Equal(body, fresh[seed]) {
						t.Errorf("width %d seed %d concurrent: status %d, stream differs from a fresh server's", w, seed, resp.StatusCode)
					}
				}(seed)
			}
		}
		wg.Wait()
		for _, seed := range seeds {
			for rep := 0; rep < 2; rep++ {
				status, _, body := post(t, ts.URL+"/v1/yield", yieldBody(seed))
				if status != http.StatusOK || !bytes.Equal(body, fresh[seed]) {
					t.Fatalf("width %d seed %d: status %d, stream differs from a fresh server's", w, seed, status)
				}
			}
		}
		compiles := s.Metrics().Counter("serve.yield.compiles")
		if got := compiles.Value(); got != 1 {
			t.Fatalf("width %d: serve.yield.compiles = %d after %d yields on one design, want 1", w, got, 4*len(seeds))
		}

		other := strings.Replace(designBody, `"seed":1}`, `"seed":2}`, 1)
		if status, _, body := post(t, ts.URL+"/v1/flow", other); status != http.StatusOK {
			t.Fatalf("width %d: /v1/flow status = %d: %s", w, status, body)
		}
		status, _, body := post(t, ts.URL+"/v1/yield", yieldBody(1))
		if status != http.StatusOK || !bytes.Equal(body, fresh[1]) {
			t.Fatalf("width %d: yield after eviction: status %d, stream differs from a fresh server's", w, status)
		}
		if got := compiles.Value(); got != 2 {
			t.Fatalf("width %d: serve.yield.compiles = %d after the design was evicted and rebuilt, want 2", w, got)
		}
		if got := s.Metrics().Counter("serve.flow.evals").Value(); got != 3 {
			t.Fatalf("width %d: serve.flow.evals = %d, want 3 (design, other design, rebuild)", w, got)
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
