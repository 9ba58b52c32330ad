package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m3d/internal/exec"
	"m3d/internal/flow"
	"m3d/internal/obs"
	"m3d/internal/tech"
)

// designBody is the small M3D design the evaluator tests serve (the
// same design yieldStreamBody and jobFlowBody name).
const designBody = `{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":1}`

// hotDesignBody is designBody with a thermal budget no design can meet.
const hotDesignBody = `{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":1,"thermal_check":true,"max_temp_rise_k":1e-6}`

// designSpec is designBody's flow spec.
func designSpec(t *testing.T) flow.SoCSpec {
	t.Helper()
	var req FlowRequest
	if err := json.Unmarshal([]byte(designBody), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := req.spec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestOneDesignOneRun serves one design as a flow response, then a
// yield run, then a flow job: the flow runs once, the yield timing is
// compiled once and only by the yield (serve.yield.compiles does not
// exist until then), and the job's DEF artifact, written from the
// Result the yield engine re-timed, matches the DEF of an independent
// run of the same spec byte for byte.
func TestOneDesignOneRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	reg := s.Metrics()
	if status, _, body := post(t, ts.URL+"/v1/flow", designBody); status != http.StatusOK {
		t.Fatalf("/v1/flow status = %d: %s", status, body)
	}
	if n, ok := reg.Snapshot().Counters["serve.yield.compiles"]; ok {
		t.Errorf("a /v1/flow miss compiled yield timing: serve.yield.compiles = %d", n)
	}
	if status, _, body := post(t, ts.URL+"/v1/yield", `{"flow":`+designBody+`,"samples":32}`); status != http.StatusOK {
		t.Fatalf("/v1/yield status = %d: %s", status, body)
	}
	submitJob(t, ts.URL, `{"id":"one","flow":`+designBody+`}`)
	waitJob(t, ts.URL, "one", JobStateDone)

	if n := reg.Counter("serve.yield.compiles").Value(); n != 1 {
		t.Errorf("serve.yield.compiles = %d, want 1", n)
	}
	if n := reg.Histogram("flow.stage.seconds.route").Count(); n != 1 {
		t.Errorf("flow ran %d times, want 1", n)
	}
	if n := reg.Counter("serve.flow.evals").Value(); n != 1 {
		t.Errorf("serve.flow.evals = %d, want 1", n)
	}

	fresh, err := flow.Run(s.pdk, designSpec(t), exec.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := fresh.WriteDEF(&want); err != nil {
		t.Fatal(err)
	}
	status, got := get(t, ts.URL+"/v1/jobs/one/artifacts/def")
	if status != http.StatusOK {
		t.Fatalf("def artifact status = %d", status)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("def artifact (%d bytes) differs from a fresh run's DEF (%d bytes)", len(got), want.Len())
	}
}

// holdPlaceTracer holds the first flow that reaches placement until that
// flow's request context ends, so the flow is still running when its
// deadline expires, and counts the flow.route spans that start. The
// server's evalBlock hook hands it each evaluation's context.
type holdPlaceTracer struct {
	evalCtx chan context.Context
	once    sync.Once
	routes  atomic.Int64
}

func newHoldPlaceTracer() *holdPlaceTracer {
	return &holdPlaceTracer{evalCtx: make(chan context.Context, 1)}
}

// offer passes an evaluation's context to the hold; only the first is
// ever waited on.
func (h *holdPlaceTracer) offer(ctx context.Context) {
	select {
	case h.evalCtx <- ctx:
	default:
	}
}

func (h *holdPlaceTracer) StartSpan(name string, attrs ...obs.Attr) obs.Span {
	switch name {
	case "flow.place":
		h.once.Do(func() { <-(<-h.evalCtx).Done() })
	case "flow.route":
		h.routes.Add(1)
	}
	return obs.Nop().StartSpan(name, attrs...)
}

// TestFlowDeadlineStopsRunningFlow: a /v1/flow request's deadline
// reaches a flow in progress through the evaluation options. The flow is
// held in placement past the deadline, stops at the next stage boundary
// without routing, and the request answers 408. The canceled build is
// not cached: the next request builds the design again and answers 200.
func TestFlowDeadlineStopsRunningFlow(t *testing.T) {
	// The deadline is 100 ms, or five direct builds of the design when
	// that is longer (the race detector slows the flow several-fold), so
	// the unheld rebuild always fits inside it.
	timeout := 100 * time.Millisecond
	start := time.Now()
	if _, err := flow.Run(tech.Default130(), designSpec(t), exec.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if d := 5 * time.Since(start); d > timeout {
		timeout = d
	}

	tr := newHoldPlaceTracer()
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: timeout, Tracer: tr})
	s.evalBlock = tr.offer
	if status, _, body := post(t, ts.URL+"/v1/flow", designBody); status != http.StatusRequestTimeout {
		t.Fatalf("held flow status = %d (%s), want 408", status, body)
	}
	if n := tr.routes.Load(); n != 0 {
		t.Fatalf("%d flow.route spans started after the deadline, want 0", n)
	}
	reg := s.Metrics()
	if n := reg.Counter("serve.flow.evals").Value(); n != 1 {
		t.Fatalf("serve.flow.evals = %d after the canceled build, want 1", n)
	}

	if status, _, body := post(t, ts.URL+"/v1/flow", designBody); status != http.StatusOK {
		t.Fatalf("unheld flow status = %d (%s), want 200", status, body)
	}
	if n := reg.Counter("serve.flow.evals").Value(); n != 2 {
		t.Fatalf("serve.flow.evals = %d, want 2: the canceled build was cached", n)
	}
	if n := tr.routes.Load(); n != 1 {
		t.Fatalf("%d flow.route spans, want 1 from the rebuild", n)
	}
}

// TestJobSurvivesJoinedRequestCancel: a job evaluation that joined an
// evaluation a synchronous request started must not inherit that
// request's cancellation when its client leaves. It evaluates again
// under its own context and finishes done instead of parking queued.
func TestJobSurvivesJoinedRequestCancel(t *testing.T) {
	for _, tc := range []struct {
		name, path, body, job string
		// joined is the hit counter the job bumps when it joins
		// the request's in-flight evaluation.
		joined string
	}{
		{"sweep", "/v1/sweep", `{"kind":"delta","deltas":[1.0,1.5]}`,
			`{"id":"j","sweep":{"kind":"delta","deltas":[1.0,1.5]}}`, "serve.memo.hits"},
		{"flow", "/v1/flow", designBody, `{"id":"j","flow":` + designBody + `}`, "serve.design.hits"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 2})
			started := make(chan struct{}, 1)
			var first atomic.Bool
			first.Store(true)
			// Only the request's evaluation blocks (until its client
			// leaves); any later evaluation runs straight through.
			s.evalBlock = func(ctx context.Context) {
				if first.CompareAndSwap(true, false) {
					started <- struct{}{}
					<-ctx.Done()
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}()
			<-started
			submitJob(t, ts.URL, tc.job)
			reg := s.Metrics()
			waitFor(t, "the job joining the request's evaluation", func() bool {
				return reg.Counter(tc.joined).Value() == 1
			})
			cancel()
			<-done

			deadline := time.Now().Add(30 * time.Second)
			for {
				st := getJob(t, ts.URL, "j")
				if st.State == JobStateDone {
					break
				}
				if n := reg.Counter("serve.jobs.interrupted").Value(); n != 0 {
					t.Fatalf("job inherited the request's cancellation: state %q, serve.jobs.interrupted = %d", st.State, n)
				}
				if jobTerminal(st.State) || time.Now().After(deadline) {
					t.Fatalf("job state %q (error %q), want done", st.State, st.Error)
				}
				time.Sleep(2 * time.Millisecond)
			}
		})
	}
}
