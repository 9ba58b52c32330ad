package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"m3d/internal/obs"
)

// batchMixedBody is the acceptance batch: a good sweep, a bad spec, a
// thermal violation, a malformed one-of, and a bad flow style — success
// and every failure family in one request, each isolated to its item.
const batchMixedBody = `[
  {"sweep":{"kind":"delta","deltas":[1.0,1.5]}},
  {"sweep":{"kind":"warp"}},
  {"sweep":{"kind":"tier_pairs","tier_pairs":[8],"per_tier_power_w":50,"require_thermal":true}},
  {"sweep":{"kind":"delta"},"flow":{"style":"2D"}},
  {"flow":{"style":"4D"}}
]`

// TestBatchMixedGolden locks the full streamed reply for the mixed
// success/bad-spec/thermal-limit batch, bit-identical at pool widths
// 1, 2 and 8 (items stream in input order regardless of evaluation
// interleaving).
func TestBatchMixedGolden(t *testing.T) {
	var first []byte
	for _, width := range widths {
		_, ts := newTestServer(t, Config{Workers: width})
		status, _, body := post(t, ts.URL+"/v1/batch", batchMixedBody)
		if status != http.StatusOK {
			t.Fatalf("width %d: status = %d, body %s", width, status, body)
		}
		if first == nil {
			first = body
			checkGolden(t, "batch_mixed.golden.json", body)
		} else if !bytes.Equal(body, first) {
			t.Fatalf("width %d: batch response diverged\ngot:\n%s\nwant:\n%s", width, body, first)
		}
	}
}

// TestBatchReplyShape decodes the mixed batch reply as plain JSON and
// pins the per-item status contract (the golden pins bytes; this pins
// semantics).
func TestBatchReplyShape(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	status, _, body := post(t, ts.URL+"/v1/batch", batchMixedBody)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var items []BatchItemResult
	if err := json.Unmarshal(body, &items); err != nil {
		t.Fatalf("reply is not a JSON array: %v\n%s", err, body)
	}
	wantStatus := []int{200, 400, 422, 400, 400}
	if len(items) != len(wantStatus) {
		t.Fatalf("got %d items, want %d", len(items), len(wantStatus))
	}
	for i, it := range items {
		if it.Index != i {
			t.Errorf("item %d: index = %d", i, it.Index)
		}
		if it.Status != wantStatus[i] {
			t.Errorf("item %d: status = %d, want %d (error %q)", i, it.Status, wantStatus[i], it.Error)
		}
		if (it.Status == http.StatusOK) != (it.Error == "") {
			t.Errorf("item %d: status %d with error %q", i, it.Status, it.Error)
		}
	}
	if items[0].Sweep == nil || len(items[0].Sweep.Rows) != 2 {
		t.Errorf("item 0 payload missing: %+v", items[0].Sweep)
	}
	reg := s.Metrics()
	if got := reg.Counter("serve.batch.requests").Value(); got != 1 {
		t.Errorf("serve.batch.requests = %d, want 1", got)
	}
	if got := reg.Counter("serve.batch.items").Value(); got != 5 {
		t.Errorf("serve.batch.items = %d, want 5", got)
	}
	if got := reg.Counter("serve.batch.item.errors").Value(); got != 4 {
		t.Errorf("serve.batch.item.errors = %d, want 4", got)
	}
}

// TestBatchWholeRequestErrors pins the only cases that fail the batch as
// a whole: a body that is not a JSON array, an empty array, and an
// oversized one.
func TestBatchWholeRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	huge := "[" + strings.Repeat(`{"sweep":{"kind":"delta"}},`, maxBatchItems) + `{"sweep":{"kind":"delta"}}]`
	for _, tc := range []struct{ name, body string }{
		{"not an array", `{"sweep":{"kind":"delta"}}`},
		{"malformed json", `[{"sweep":`},
		{"trailing garbage", `[] extra`},
		{"empty array", `[]`},
		{"too many items", huge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := post(t, ts.URL+"/v1/batch", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %.120s)", status, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Fatalf("error body %.120q not a JSON error envelope", body)
			}
		})
	}
}

// TestBatchFlowItem runs a real flow inside a batch and checks it lands
// in the same coalescing cache as /v1/flow.
func TestBatchFlowItem(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	flowReq := `{"style":"M3D","num_cs":2,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":2,"global_sram_bits":65536,"seed":1}`
	status, _, body := post(t, ts.URL+"/v1/batch", `[{"flow":`+flowReq+`}]`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var items []BatchItemResult
	if err := json.Unmarshal(body, &items); err != nil || len(items) != 1 || items[0].Flow == nil {
		t.Fatalf("bad batch flow reply (%v): %s", err, body)
	}
	// The standalone endpoint must now hit the shared cache: still one
	// evaluation.
	if status, _, _ := post(t, ts.URL+"/v1/flow", flowReq); status != http.StatusOK {
		t.Fatalf("follow-up /v1/flow status = %d", status)
	}
	if got := s.Metrics().Counter("serve.flow.evals").Value(); got != 1 {
		t.Fatalf("flow evals = %d, want 1 (batch + endpoint coalesced)", got)
	}
}

// TestBatchCoalescesDuplicateItems proves two identical items inside one
// batch evaluate once via single-flight, at every pool width.
func TestBatchCoalescesDuplicateItems(t *testing.T) {
	for _, width := range widths {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: width})
			body := `[{"sweep":{"kind":"delta","deltas":[1.0,2.0]}},{"sweep":{"kind":"delta","deltas":[1.0,2.0]}}]`
			status, _, reply := post(t, ts.URL+"/v1/batch", body)
			if status != http.StatusOK {
				t.Fatalf("status = %d, body %s", status, reply)
			}
			var items []BatchItemResult
			if err := json.Unmarshal(reply, &items); err != nil || len(items) != 2 {
				t.Fatalf("bad reply (%v): %s", err, reply)
			}
			a, _ := json.Marshal(items[0].Sweep)
			b, _ := json.Marshal(items[1].Sweep)
			if !bytes.Equal(a, b) {
				t.Fatalf("duplicate items disagree: %s vs %s", a, b)
			}
			if got := s.Metrics().Counter("serve.sweep.evals").Value(); got != 1 {
				t.Fatalf("sweep evals = %d, want 1", got)
			}
		})
	}
}

// TestBatchStreamsPartialResults proves chunked partial-result delivery:
// a batch of [cached item, blocked item] yields the first element on the
// wire while the second is still evaluating.
func TestBatchStreamsPartialResults(t *testing.T) {
	var blocking atomic.Bool
	blocked := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 2})
	s.evalStarted = func() {
		if blocking.Load() {
			blocked <- struct{}{}
		}
	}
	s.evalBlock = func(ctx context.Context) {
		if blocking.Load() {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Warm item 0 through the standalone endpoint, then turn blocking on:
	// in the batch, item 0 is a cache hit (no eval, no block), item 1
	// evaluates and parks on the release channel.
	warm := `{"kind":"delta","deltas":[1.0,1.25]}`
	if status, _, b := post(t, ts.URL+"/v1/sweep", warm); status != http.StatusOK {
		t.Fatalf("warm status = %d, body %s", status, b)
	}
	blocking.Store(true)

	body := `[{"sweep":` + warm + `},{"sweep":{"kind":"delta","deltas":[1.0,1.75]}}]`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("TransferEncoding = %v, want [chunked]", resp.TransferEncoding)
	}

	<-blocked // item 1 is now provably mid-evaluation
	br := bufio.NewReader(resp.Body)
	readLine := func() string {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading stream: %v (got %q)", err, line)
		}
		return strings.TrimSpace(line)
	}
	if got := readLine(); got != "[" {
		t.Fatalf("stream opener = %q, want [", got)
	}
	var item0 BatchItemResult
	if err := json.Unmarshal([]byte(readLine()), &item0); err != nil {
		t.Fatalf("first streamed element: %v", err)
	}
	if item0.Index != 0 || item0.Status != http.StatusOK || item0.Sweep == nil {
		t.Fatalf("first streamed element = %+v", item0)
	}
	// Item 0 arrived while item 1 was still blocked; release and drain.
	close(release)
	rest, _ := readAll(br)
	if !strings.Contains(rest, `"index":1`) {
		t.Fatalf("tail missing item 1: %q", rest)
	}
	if !strings.HasSuffix(strings.TrimSpace(rest), "]") {
		t.Fatalf("stream not closed: %q", rest)
	}
}

// goneWriter is the ResponseWriter of a client that has gone away:
// every write fails.
type goneWriter struct{ h http.Header }

func (w *goneWriter) Header() http.Header       { return w.h }
func (w *goneWriter) WriteHeader(int)           {}
func (w *goneWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestBatchSpanEndsWhenClientGone pins that a batch whose reply stream
// breaks at open still ends its serve.batch.run span.
func TestBatchSpanEndsWhenClientGone(t *testing.T) {
	rec := obs.NewRecorder()
	s := New(Config{Workers: 1, Tracer: rec})
	r := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(`[{"sweep":{"kind":"warp"}}]`))
	s.ServeHTTP(&goneWriter{h: http.Header{}}, r)
	if got := len(rec.Find("serve.batch.run")); got != 1 {
		t.Fatalf("serve.batch.run spans = %d, want 1 (recorded %v)", got, rec.Names())
	}
}

func readAll(br *bufio.Reader) (string, error) {
	var sb strings.Builder
	buf := make([]byte, 1024)
	for {
		n, err := br.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String(), err
		}
	}
}

// TestServeCacheBounded is the acceptance load test: under sustained
// randomized-key traffic against a CacheCap-bounded server, the sweep
// cache entry count never exceeds the configured capacity at any
// observation point, entries are really evicted, and every response is
// still correct. Client concurrency stays at or below the capacity — the
// documented regime in which the bound is exact (in-flight single-flight
// entries cannot be evicted).
func TestServeCacheBounded(t *testing.T) {
	const (
		capacity  = 8
		clients   = 4
		perClient = 50
	)
	s, ts := newTestServer(t, Config{Workers: 2, CacheCap: capacity})
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Distinct key per (client, i), with a 20% revisit of the
				// client's previous key to exercise LRU touching. The
				// bandwidth_cs kind keeps each evaluation to a few
				// microseconds of pure analytic math, so the test hammers
				// the cache, not the evaluator.
				bw := 1.0 + float64(c*perClient+i)/1000
				if i%5 == 4 {
					bw = 1.0 + float64(c*perClient+i-1)/1000
				}
				body := fmt.Sprintf(`{"kind":"bandwidth_cs","cs_counts":[1,2],"bw_scales":[1,%g]}`, bw)
				resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("status %d for %s", resp.StatusCode, body)
					return
				}
				if n := s.sweeps.Len(); n > capacity {
					errCh <- fmt.Errorf("cache entries %d > cap %d", n, capacity)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if n := s.sweeps.Len(); n > capacity {
		t.Fatalf("final cache entries %d > cap %d", n, capacity)
	}
	reg := s.Metrics()
	if ev := reg.Counter("cache.evictions").Value(); ev == 0 {
		t.Fatal("no evictions under randomized load; the bound was never exercised")
	}
	if got, want := reg.Gauge("cache.entries").Value(), int64(s.sweeps.Len()+s.flows.Len()); got != want {
		t.Fatalf("cache.entries gauge %d != live entries %d", got, want)
	}
}
