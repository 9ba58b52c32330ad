package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// widths are the pool widths every concurrency-sensitive test runs at
// (the PR 1/PR 2 determinism matrix).
var widths = []int{1, 2, 8}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestHealthzGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	checkGolden(t, "healthz.golden.json", body)
}

// sweepRequests pairs each sweep kind with a small request body; the
// golden files lock the full response JSON per kind. sweep_default is
// the empty bandwidth_cs request (the Fig. 8 grid) and is also the
// request/golden pair the scripts/smoke gate replays over HTTP.
var sweepRequests = []struct{ name, body string }{
	{"sweep_default", `{"kind":"bandwidth_cs"}`},
	{"sweep_bandwidth_cs", `{"kind":"bandwidth_cs","cs_counts":[1,2,4,8],"bw_scales":[1,2,4],"load":{"f0":16e6,"d0":1e6,"n_part":64}}`},
	{"sweep_rram_capacity", `{"kind":"rram_capacity","capacities_mb":[12,16]}`},
	{"sweep_delta", `{"kind":"delta","deltas":[1.0,1.5,2.0]}`},
	{"sweep_beta", `{"kind":"beta","betas":[1.0,1.2]}`},
	{"sweep_tier_pairs", `{"kind":"tier_pairs","tier_pairs":[1,2,3],"per_tier_power_w":2.0}`},
}

// TestSweepGolden locks every sweep kind's response JSON and proves it
// is bit-identical at pool widths 1, 2 and 8.
func TestSweepGolden(t *testing.T) {
	for _, tc := range sweepRequests {
		t.Run(tc.name, func(t *testing.T) {
			var first []byte
			for _, width := range widths {
				_, ts := newTestServer(t, Config{Workers: width})
				status, _, body := post(t, ts.URL+"/v1/sweep", tc.body)
				if status != http.StatusOK {
					t.Fatalf("width %d: status = %d, body %s", width, status, body)
				}
				if first == nil {
					first = body
					checkGolden(t, tc.name+".golden.json", body)
				} else if !bytes.Equal(body, first) {
					t.Fatalf("width %d: response diverged\ngot:\n%s\nwant:\n%s", width, body, first)
				}
			}
		})
	}
}

// TestFlowGolden locks the /v1/flow response for a small M3D spec across
// pool widths; the flow itself is deterministic (PR 1 contract).
func TestFlowGolden(t *testing.T) {
	body := `{"style":"M3D","num_cs":2,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":2,"global_sram_bits":65536,"seed":1}`
	var first []byte
	for _, width := range widths {
		_, ts := newTestServer(t, Config{Workers: width})
		status, _, got := post(t, ts.URL+"/v1/flow", body)
		if status != http.StatusOK {
			t.Fatalf("width %d: status = %d, body %s", width, status, got)
		}
		if first == nil {
			first = got
			checkGolden(t, "flow_m3d.golden.json", got)
		} else if !bytes.Equal(got, first) {
			t.Fatalf("width %d: flow response diverged", width)
		}
	}
}

// TestStatusMapping pins the sentinel→status-code contract at the wire.
func TestStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"malformed json", "POST", "/v1/sweep", `{"kind":`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/sweep", `{"kind":"delta","bogus":1}`, http.StatusBadRequest},
		{"trailing garbage", "POST", "/v1/sweep", `{"kind":"delta"} extra`, http.StatusBadRequest},
		{"unknown kind", "POST", "/v1/sweep", `{"kind":"nope"}`, http.StatusBadRequest},
		{"foreign axis", "POST", "/v1/sweep", `{"kind":"delta","betas":[1.5]}`, http.StatusBadRequest},
		{"negative bandwidth", "POST", "/v1/sweep", `{"kind":"bandwidth_cs","cs_counts":[1],"bw_scales":[-1]}`, http.StatusBadRequest},
		{"delta below one", "POST", "/v1/sweep", `{"kind":"delta","deltas":[0.5]}`, http.StatusBadRequest},
		{"zero tier pairs", "POST", "/v1/sweep", `{"kind":"tier_pairs","tier_pairs":[0]}`, http.StatusBadRequest},
		{"oversized capacity", "POST", "/v1/sweep", `{"kind":"rram_capacity","capacities_mb":[9999999999]}`, http.StatusBadRequest},
		{"thermal violation", "POST", "/v1/sweep", `{"kind":"tier_pairs","tier_pairs":[8],"per_tier_power_w":50,"require_thermal":true}`, http.StatusUnprocessableEntity},
		{"flow bad style", "POST", "/v1/flow", `{"style":"4D"}`, http.StatusBadRequest},
		{"flow bad spec", "POST", "/v1/flow", `{"num_cs":-1}`, http.StatusBadRequest},
		{"flow budget without check", "POST", "/v1/flow", `{"max_temp_rise_k":5}`, http.StatusBadRequest},
		{"flow thermal violation", "POST", "/v1/flow", hotDesignBody, http.StatusUnprocessableEntity},
		{"yield thermal violation", "POST", "/v1/yield", `{"flow":` + hotDesignBody + `,"samples":16}`, http.StatusUnprocessableEntity},
		{"method not allowed", "GET", "/v1/sweep", ``, http.StatusMethodNotAllowed},
		{"unknown path", "GET", "/v1/nope", ``, http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
			// Error envelopes are JSON with an "error" key (404/405 come
			// from net/http and are exempt).
			if tc.want != http.StatusNotFound && tc.want != http.StatusMethodNotAllowed {
				var eb errorBody
				if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
					t.Fatalf("error body %q not a JSON error envelope (%v)", body, err)
				}
			}
		})
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancellationMidRequest cancels the client mid-evaluation and
// asserts the pool observes errs.ErrCanceled (serve.canceled counter),
// the admission slot is released, and the memo key is forgotten so the
// cancellation does not poison later identical requests.
func TestCancellationMidRequest(t *testing.T) {
	for _, width := range widths {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			started := make(chan struct{}, 8)
			s := New(Config{Workers: width})
			s.evalStarted = func() { started <- struct{}{} }
			var blocking atomic.Bool
			blocking.Store(true)
			s.evalBlock = func(ctx context.Context) {
				if blocking.Load() {
					<-ctx.Done()
				}
			}
			ts := httptest.NewServer(s)
			defer ts.Close()

			ctx, cancel := context.WithCancel(context.Background())
			req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep",
				strings.NewReader(`{"kind":"bandwidth_cs","cs_counts":[1,2],"bw_scales":[1]}`))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close()
				}
				done <- err
			}()
			<-started
			cancel()
			if err := <-done; err == nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("client error = %v, want context.Canceled", err)
			}

			reg := s.Metrics()
			waitFor(t, "canceled counter", func() bool {
				return reg.Counter("serve.canceled").Value() == 1
			})
			waitFor(t, "admission slot release", func() bool {
				return s.InFlight() == 0 && reg.Gauge("serve.inflight").Value() == 0
			})
			waitFor(t, "memo key forgotten", func() bool {
				return s.sweeps.Len() == 0
			})

			// The identical request must now succeed: the canceled
			// evaluation did not poison the coalescing key.
			blocking.Store(false)
			status, _, body := post(t, ts.URL+"/v1/sweep",
				`{"kind":"bandwidth_cs","cs_counts":[1,2],"bw_scales":[1]}`)
			if status != http.StatusOK {
				t.Fatalf("retry status = %d, body %s", status, body)
			}
			if got := reg.Counter("serve.sweep.evals").Value(); got != 2 {
				t.Fatalf("evals = %d, want 2 (canceled + retry)", got)
			}
		})
	}
}

// coalesceBodies are distinct sweep bodies, one of every kind plus a
// second delta: six cache keys.
var coalesceBodies = []string{
	`{"kind":"delta","deltas":[1.0,1.5]}`,
	`{"kind":"delta","deltas":[2.0]}`,
	`{"kind":"beta","betas":[1.0,1.2]}`,
	`{"kind":"rram_capacity","capacities_mb":[12]}`,
	`{"kind":"tier_pairs","tier_pairs":[1,2],"per_tier_power_w":2.0}`,
	`{"kind":"bandwidth_cs","cs_counts":[1,2],"bw_scales":[1,2]}`,
}

// TestCoalescing fires every coalesceBodies key three times at one
// server, the duplicates while the first evaluations are blocked, and
// proves single-flight: one evaluation per key (the Cache.DoMetered hit
// and miss counters agree) and byte-identical duplicate replies.
func TestCoalescing(t *testing.T) {
	const fires = 3
	keys := int64(len(coalesceBodies))
	for _, width := range widths {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			release := make(chan struct{})
			var releaseOnce sync.Once
			releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
			s := New(Config{Workers: width})
			s.evalBlock = func(ctx context.Context) {
				select {
				case <-release:
				case <-ctx.Done():
				}
			}
			ts := httptest.NewServer(s)
			defer ts.Close()
			// A failed wait below must not leave the handlers blocked
			// while Close waits for them.
			defer releaseAll()

			type reply struct {
				body string
				b    []byte
			}
			results := make(chan reply, len(coalesceBodies)*fires)
			fire := func(body string) {
				status, _, b := post(t, ts.URL+"/v1/sweep", body)
				if status != http.StatusOK {
					t.Errorf("%s: status = %d, body %s", body, status, b)
				}
				results <- reply{body, b}
			}
			reg := s.Metrics()
			for _, body := range coalesceBodies {
				go fire(body)
			}
			// A request interns its key, counting the miss, before its
			// evaluation starts, so every later duplicate finds the key.
			waitFor(t, "one miss per key", func() bool {
				return reg.Counter("serve.memo.misses").Value() == keys
			})
			for _, body := range coalesceBodies {
				for n := 1; n < fires; n++ {
					go fire(body)
				}
			}
			// The evaluations stay blocked until every duplicate has
			// counted its hit, so each one joins an evaluation in flight.
			waitFor(t, "duplicates to join", func() bool {
				return reg.Counter("serve.memo.hits").Value() == keys*(fires-1)
			})
			releaseAll()
			first := make(map[string][]byte, len(coalesceBodies))
			for range len(coalesceBodies) * fires {
				r := <-results
				if prev, ok := first[r.body]; !ok {
					first[r.body] = r.b
				} else if !bytes.Equal(prev, r.b) {
					t.Errorf("%s: coalesced responses differ:\n%s\n%s", r.body, prev, r.b)
				}
			}
			if t.Failed() {
				t.FailNow()
			}

			if got := reg.Counter("serve.sweep.evals").Value(); got != keys {
				t.Fatalf("evals = %d, want %d (one per key)", got, keys)
			}
			if misses := reg.Counter("serve.memo.misses").Value(); misses != keys {
				t.Fatalf("memo misses = %d, want %d", misses, keys)
			}
			if hits := reg.Counter("serve.memo.hits").Value(); hits != keys*(fires-1) {
				t.Fatalf("memo hits = %d, want %d", hits, keys*(fires-1))
			}
		})
	}
}

// TestLoadShed fills the single admission slot with a blocked request
// and asserts the next request is shed with 429 + Retry-After.
func TestLoadShed(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s := New(Config{Workers: 1, MaxInFlight: 1, MaxQueue: -1})
	s.evalStarted = func() { started <- struct{}{} }
	s.evalBlock = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		status, _, _ := post(t, ts.URL+"/v1/sweep", `{"kind":"bandwidth_cs","cs_counts":[1],"bw_scales":[1]}`)
		first <- status
	}()
	<-started

	status, header, body := post(t, ts.URL+"/v1/sweep", `{"kind":"bandwidth_cs","cs_counts":[2],"bw_scales":[1]}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429 (body %s)", status, body)
	}
	if header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "overloaded") {
		t.Errorf("shed body = %s", body)
	}
	reg := s.Metrics()
	if got := reg.Counter("serve.shed").Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	close(release)
	if got := <-first; got != http.StatusOK {
		t.Fatalf("blocked request status = %d, want 200", got)
	}
	waitFor(t, "slot release", func() bool { return s.InFlight() == 0 })

	// Capacity restored: the same (previously shed) request now succeeds.
	status, _, _ = post(t, ts.URL+"/v1/sweep", `{"kind":"bandwidth_cs","cs_counts":[2],"bw_scales":[1]}`)
	if status != http.StatusOK {
		t.Fatalf("post-shed status = %d, want 200", status)
	}
}

// TestRequestTimeout proves the per-request deadline propagates into the
// evaluation: a blocked evaluation times out server-side with 408.
func TestRequestTimeout(t *testing.T) {
	s := New(Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	s.evalBlock = func(ctx context.Context) { <-ctx.Done() }
	ts := httptest.NewServer(s)
	defer ts.Close()

	status, _, body := post(t, ts.URL+"/v1/sweep", `{"kind":"bandwidth_cs","cs_counts":[1],"bw_scales":[1]}`)
	if status != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408 (body %s)", status, body)
	}
	if got := s.Metrics().Counter("serve.canceled").Value(); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
}

// fakeClock steps 1 ms per call (the obs golden-test pattern).
func fakeClock() func() time.Time {
	base := time.Unix(1700000000, 0).UTC()
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n-1) * time.Millisecond)
	}
}

// TestMetricsEndpointGolden locks the GET /metrics wire format: with an
// injected clock and a fixed request sequence, the sorted text dump is
// byte-stable.
func TestMetricsEndpointGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Now: fakeClock()})
	for i := 0; i < 2; i++ {
		if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
			t.Fatalf("healthz status = %d", status)
		}
	}
	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status = %d", status)
	}
	checkGolden(t, "metrics_endpoint.golden.txt", body)
}

// TestMetricsAfterSweep locks the counters a real evaluation leaves
// behind: with one worker and an injected clock, the full dump after one
// sweep is byte-stable on every fresh server.
func TestMetricsAfterSweep(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Now: fakeClock()})
	if status, _, body := post(t, ts.URL+"/v1/sweep", `{"kind":"bandwidth_cs","cs_counts":[1,2],"bw_scales":[1,2]}`); status != http.StatusOK {
		t.Fatalf("sweep status = %d, body %s", status, body)
	}
	_, body := get(t, ts.URL+"/metrics")
	checkGolden(t, "metrics_after_sweep.golden.txt", body)
	if s.InFlight() != 0 {
		t.Errorf("InFlight = %d after completion", s.InFlight())
	}
}
