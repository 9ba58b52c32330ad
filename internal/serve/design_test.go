package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"m3d/internal/exec"
	"m3d/internal/flow"
)

// designBody is the small M3D design the evaluator tests serve (the
// same design yieldStreamBody and jobFlowBody name).
const designBody = `{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":1}`

// hotDesignBody is designBody with a thermal budget no design can meet.
const hotDesignBody = `{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":1,"thermal_check":true,"max_temp_rise_k":1e-6}`

// TestOneDesignOneRun serves one design as a flow response, then a
// yield run, then a flow job: the flow runs once, and the job's DEF
// artifact, written from the Result the yield engine re-timed, matches
// the DEF of an independent run of the same spec byte for byte.
func TestOneDesignOneRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	if status, _, body := post(t, ts.URL+"/v1/flow", designBody); status != http.StatusOK {
		t.Fatalf("/v1/flow status = %d: %s", status, body)
	}
	if status, _, body := post(t, ts.URL+"/v1/yield", `{"flow":`+designBody+`,"samples":32}`); status != http.StatusOK {
		t.Fatalf("/v1/yield status = %d: %s", status, body)
	}
	submitJob(t, ts.URL, `{"id":"one","flow":`+designBody+`}`)
	waitJob(t, ts.URL, "one", JobStateDone)

	reg := s.Metrics()
	if n := reg.Histogram("flow.stage.seconds.route").Count(); n != 1 {
		t.Errorf("flow ran %d times, want 1", n)
	}
	if n := reg.Counter("serve.flow.evals").Value(); n != 1 {
		t.Errorf("serve.flow.evals = %d, want 1", n)
	}

	var req FlowRequest
	if err := json.Unmarshal([]byte(designBody), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := req.spec()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := flow.Run(s.pdk, spec, exec.WithWorkers(1))
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
