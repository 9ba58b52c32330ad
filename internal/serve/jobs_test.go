package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// submitJob POSTs one job body and decodes the 202 status reply.
func submitJob(t *testing.T, baseURL, body string) JobStatus {
	t.Helper()
	status, _, b := post(t, baseURL+"/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs status = %d, body %s", status, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("decoding job status: %v\n%s", err, b)
	}
	if st.ID == "" {
		t.Fatalf("job status without an id: %s", b)
	}
	return st
}

// getJob GETs one job status.
func getJob(t *testing.T, baseURL, id string) JobStatus {
	t.Helper()
	status, b := get(t, baseURL+"/v1/jobs/"+id)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s status = %d, body %s", id, status, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("decoding job status: %v\n%s", err, b)
	}
	return st
}

// waitJob polls until the job reaches want, failing fast when it lands
// on a different terminal state.
func waitJob(t *testing.T, baseURL, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getJob(t, baseURL, id)
		if st.State == want {
			return st
		}
		if jobTerminal(st.State) {
			t.Fatalf("job %s settled as %q (error %q), want %q", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q\n%s", id, st.State, want, jobDiagnostics(t, baseURL, st))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// jobDiagnostics renders what a stuck wait needs to tell a job that
// never started from one a stage failure parked (settleError re-queues
// an interrupted job and clears its error): the job record and the
// server's serve.jobs.* series from /metrics.
func jobDiagnostics(t *testing.T, baseURL string, st JobStatus) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "job %s: state %q, error %q, stage %q, span %q, stages done %v of %v\n",
		st.ID, st.State, st.Error, st.Stage, st.Span, st.StagesDone, st.Stages)
	_, metrics := get(t, baseURL+"/metrics")
	for _, line := range strings.Split(string(metrics), "\n") {
		if f := strings.Fields(line); len(f) > 1 && strings.HasPrefix(f[1], "serve.jobs.") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}

// TestJobDiagnostics pins the report waitJob prints on a timeout: the
// job record's state and stages, and the serve.jobs.* counters.
func TestJobDiagnostics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	submitJob(t, ts.URL, jobSweepBody)
	st := waitJob(t, ts.URL, "swjob", JobStateDone)
	got := jobDiagnostics(t, ts.URL, st)
	for _, want := range []string{
		`job swjob: state "done"`,
		"stages done [part.00 part.01 final]",
		"counter serve.jobs.submitted 1\n",
		"counter serve.jobs.done 1\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostics lack %q:\n%s", want, got)
		}
	}
}

// deleteJob issues DELETE /v1/jobs/{id}.
func deleteJob(t *testing.T, baseURL, id string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, baseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

const jobSweepBody = `{"id":"swjob","sweep":{"kind":"delta","deltas":[1.0,1.5,2.0,2.5]},"chunks":2}`

// TestJobSweepLifecycle submits a chunked sweep job and proves the
// lifecycle (202 → queued/running → done), the planned stage sequence,
// and that the final result is byte-identical to the synchronous
// /v1/sweep response for the same request.
func TestJobSweepLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := submitJob(t, ts.URL, jobSweepBody)
	if st.Kind != "sweep" {
		t.Fatalf("kind = %q, want sweep", st.Kind)
	}
	wantStages := []string{"part.00", "part.01", "final"}
	if fmt.Sprint(st.Stages) != fmt.Sprint(wantStages) {
		t.Fatalf("stages = %v, want %v", st.Stages, wantStages)
	}
	switch st.State {
	case JobStateAccepted, JobStateQueued, JobStateRunning, JobStateDone:
	default:
		t.Fatalf("submit state = %q", st.State)
	}

	done := waitJob(t, ts.URL, "swjob", JobStateDone)
	if done.Progress != 1 {
		t.Fatalf("done progress = %v, want 1", done.Progress)
	}
	if fmt.Sprint(done.StagesDone) != fmt.Sprint(wantStages) {
		t.Fatalf("stages_done = %v, want %v", done.StagesDone, wantStages)
	}

	status, _, syncBody := post(t, ts.URL+"/v1/sweep", `{"kind":"delta","deltas":[1.0,1.5,2.0,2.5]}`)
	if status != http.StatusOK {
		t.Fatalf("/v1/sweep status = %d", status)
	}
	if !bytes.Equal(done.Result, bytes.TrimSpace(syncBody)) {
		t.Fatalf("chunked job result drifted from the synchronous sweep\njob:  %s\nsync: %s",
			done.Result, syncBody)
	}
}

const jobFlowBody = `{"id":"fljob","flow":{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":1}}`

// TestJobFlowArtifacts runs a flow job to completion and proves the
// result matches the synchronous /v1/flow response and the persisted DEF
// and report artifacts are served back.
func TestJobFlowArtifacts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := submitJob(t, ts.URL, jobFlowBody)
	wantStages := []string{"spec", "eval", "final"}
	if fmt.Sprint(st.Stages) != fmt.Sprint(wantStages) {
		t.Fatalf("stages = %v, want %v", st.Stages, wantStages)
	}
	done := waitJob(t, ts.URL, "fljob", JobStateDone)
	if fmt.Sprint(done.Artifacts) != fmt.Sprint([]string{"def", "report"}) {
		t.Fatalf("artifacts = %v, want [def report]", done.Artifacts)
	}

	status, _, syncBody := post(t, ts.URL+"/v1/flow",
		`{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":1}`)
	if status != http.StatusOK {
		t.Fatalf("/v1/flow status = %d: %s", status, syncBody)
	}
	if !bytes.Equal(done.Result, bytes.TrimSpace(syncBody)) {
		t.Fatalf("flow job result drifted from /v1/flow\njob:  %s\nsync: %s", done.Result, syncBody)
	}

	status, def := get(t, ts.URL+"/v1/jobs/fljob/artifacts/def")
	if status != http.StatusOK {
		t.Fatalf("artifact def status = %d", status)
	}
	if !bytes.HasPrefix(def, []byte("VERSION 5.8")) {
		t.Fatalf("def artifact does not look like DEF:\n%.120s", def)
	}
	status, rep := get(t, ts.URL+"/v1/jobs/fljob/artifacts/report")
	if status != http.StatusOK {
		t.Fatalf("artifact report status = %d", status)
	}
	if !bytes.Contains(rep, []byte("Flow result")) {
		t.Fatalf("report artifact missing header:\n%s", rep)
	}

	if status, _ := get(t, ts.URL+"/v1/jobs/fljob/artifacts/gds"); status != http.StatusNotFound {
		t.Fatalf("unknown artifact status = %d, want 404", status)
	}
}

// TestJobEventsStream reads GET /v1/jobs/{id}/events as the job runs:
// the stream must be a well-formed JSON array of status snapshots with
// monotone non-decreasing progress, ending on the terminal element.
func TestJobEventsStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	release := make(chan struct{})
	var once atomic.Bool
	s.evalBlock = func(ctx context.Context) {
		if once.CompareAndSwap(false, true) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
	}
	submitJob(t, ts.URL, jobSweepBody)

	resp, err := http.Get(ts.URL + "/v1/jobs/swjob/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		t.Fatalf("stream does not open an array: %v %v", tok, err)
	}
	var (
		events   []JobStatus
		released bool
	)
	for dec.More() {
		var ev JobStatus
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("decoding event %d: %v", len(events), err)
		}
		events = append(events, ev)
		if !released {
			released = true
			close(release)
		}
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim(']') {
		t.Fatalf("stream does not close the array: %v %v", tok, err)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	last := events[len(events)-1]
	if last.State != JobStateDone {
		t.Fatalf("final event state = %q (error %q), want done", last.State, last.Error)
	}
	prev := -1.0
	for i, ev := range events {
		if ev.Progress < prev {
			t.Fatalf("event %d progress %v regressed below %v", i, ev.Progress, prev)
		}
		prev = ev.Progress
		if ev.ID != "swjob" {
			t.Fatalf("event %d id = %q", i, ev.ID)
		}
	}
}

// TestJobIdempotentResubmit proves resubmitting an existing id with the
// identical request returns the existing job without a second accept,
// while the same id with a different request is refused with 400.
func TestJobIdempotentResubmit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	submitJob(t, ts.URL, jobSweepBody)
	waitJob(t, ts.URL, "swjob", JobStateDone)

	st := submitJob(t, ts.URL, jobSweepBody)
	if st.State != JobStateDone {
		t.Fatalf("resubmit state = %q, want done", st.State)
	}
	if got := s.Metrics().Counter("serve.jobs.submitted").Value(); got != 1 {
		t.Fatalf("serve.jobs.submitted = %d after resubmit, want 1", got)
	}

	status, _, body := post(t, ts.URL+"/v1/jobs",
		`{"id":"swjob","sweep":{"kind":"delta","deltas":[9.0]}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("conflicting resubmit status = %d, body %s", status, body)
	}
}

// TestJobNotFound maps unknown job ids to 404 on every jobs route.
func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, url := range []string{
		"/v1/jobs/nope",
		"/v1/jobs/nope/events",
		"/v1/jobs/nope/artifacts/def",
	} {
		if status, body := get(t, ts.URL+url); status != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404 (%s)", url, status, body)
		}
	}
	if status, body := deleteJob(t, ts.URL, "nope"); status != http.StatusNotFound {
		t.Errorf("DELETE status = %d, want 404 (%s)", status, body)
	}
}

// TestJobBadRequests exercises the request validator: every rejection is
// a 400 before any job state is created.
func TestJobBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ name, body string }{
		{"empty", `{}`},
		{"two_kinds", `{"sweep":{"kind":"delta"},"flow":{"num_cs":1}}`},
		{"chunks_on_flow", `{"flow":{"num_cs":1},"chunks":2}`},
		{"chunks_negative", `{"sweep":{"kind":"delta"},"chunks":-1}`},
		{"chunks_huge", `{"sweep":{"kind":"delta"},"chunks":99}`},
		{"id_slash", `{"id":"a/b","sweep":{"kind":"delta"}}`},
		{"id_dotdot", `{"id":"..","sweep":{"kind":"delta"}}`},
		{"id_long", `{"id":"` + strings.Repeat("x", 65) + `","sweep":{"kind":"delta"}}`},
		{"bad_nested", `{"sweep":{"kind":"warp"}}`},
		{"unknown_field", `{"sweep":{"kind":"delta"},"bogus":1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := post(t, ts.URL+"/v1/jobs", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", status, body)
			}
		})
	}
	if got := s.Metrics().Counter("serve.jobs.submitted").Value(); got != 0 {
		t.Fatalf("serve.jobs.submitted = %d after rejections, want 0", got)
	}
}

// TestJobQueueShedAndCancel pins the Gate/queue interaction: with one
// running slot and one queue position, the third concurrent job sheds
// with 429 + Retry-After and leaves no state behind; canceling the
// queued job settles it canceled without ever running and frees its
// position.
func TestJobQueueShedAndCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxJobs: 1, MaxJobQueue: 1})
	release := make(chan struct{})
	var evals atomic.Int32
	s.evalStarted = func() { evals.Add(1) }
	s.evalBlock = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	submitJob(t, ts.URL, `{"id":"run1","sweep":{"kind":"delta","deltas":[1.0]}}`)
	waitJob(t, ts.URL, "run1", JobStateRunning)
	submitJob(t, ts.URL, `{"id":"wait1","sweep":{"kind":"delta","deltas":[1.5]}}`)

	status, hdr, body := post(t, ts.URL+"/v1/jobs",
		`{"id":"shed1","sweep":{"kind":"delta","deltas":[2.0]}}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("third job status = %d, want 429 (%s)", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if got, _ := get(t, ts.URL+"/v1/jobs/shed1"); got != http.StatusNotFound {
		t.Fatalf("shed job left state behind: GET status = %d, want 404", got)
	}
	if got := s.Metrics().Counter("serve.jobs.shed").Value(); got != 1 {
		t.Fatalf("serve.jobs.shed = %d, want 1", got)
	}

	// Cancel the queued job: it must settle canceled without running.
	if status, body := deleteJob(t, ts.URL, "wait1"); status != http.StatusOK {
		t.Fatalf("DELETE wait1 status = %d (%s)", status, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts.URL, "wait1").State != JobStateCanceled {
		if time.Now().After(deadline) {
			t.Fatalf("wait1 state = %q, want canceled", getJob(t, ts.URL, "wait1").State)
		}
		time.Sleep(time.Millisecond)
	}

	// Its queue position must be free again: a fresh job queues (not 429)
	// and completes once the runner is released.
	submitJob(t, ts.URL, `{"id":"next1","sweep":{"kind":"delta","deltas":[2.5]}}`)
	close(release)
	waitJob(t, ts.URL, "run1", JobStateDone)
	waitJob(t, ts.URL, "next1", JobStateDone)
	if got := evals.Load(); got != 2 {
		t.Fatalf("evaluations = %d, want 2 (run1 + next1; the canceled job must never run)", got)
	}
}

// TestJobCancelRunning cancels a job mid-stage: the evaluation context
// ends, the job settles canceled, and the slot frees for later jobs.
func TestJobCancelRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxJobs: 1})
	s.evalBlock = func(ctx context.Context) { <-ctx.Done() }
	submitJob(t, ts.URL, `{"id":"c1","sweep":{"kind":"delta","deltas":[1.0]}}`)
	waitJob(t, ts.URL, "c1", JobStateRunning)
	if status, body := deleteJob(t, ts.URL, "c1"); status != http.StatusOK {
		t.Fatalf("DELETE status = %d (%s)", status, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts.URL, "c1").State != JobStateCanceled {
		if time.Now().After(deadline) {
			t.Fatalf("state = %q, want canceled", getJob(t, ts.URL, "c1").State)
		}
		time.Sleep(time.Millisecond)
	}
	// DELETE on a terminal job is idempotent.
	if status, _ := deleteJob(t, ts.URL, "c1"); status != http.StatusOK {
		t.Fatalf("second DELETE status = %d, want 200", status)
	}

	s.evalBlock = nil
	submitJob(t, ts.URL, `{"id":"c2","sweep":{"kind":"delta","deltas":[1.5]}}`)
	waitJob(t, ts.URL, "c2", JobStateDone)
}

// TestJobDrainParksAndResumes extends the drain choreography to
// in-flight jobs: Drain interrupts the running stage and parks both the
// running and the queued job back in "queued" with their checkpoints
// intact; a new server over the same store resumes both to completion.
func TestJobDrainParksAndResumes(t *testing.T) {
	store := NewMemJobStore()
	s, ts := newTestServer(t, Config{MaxJobs: 1, JobStore: store})
	s.evalBlock = func(ctx context.Context) { <-ctx.Done() }

	submitJob(t, ts.URL, `{"id":"d1","sweep":{"kind":"delta","deltas":[1.0,1.5]},"chunks":2}`)
	waitJob(t, ts.URL, "d1", JobStateRunning)
	submitJob(t, ts.URL, `{"id":"d2","sweep":{"kind":"delta","deltas":[2.0]}}`)

	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range []string{"d1", "d2"} {
		b, err := store.GetJob(id)
		if err != nil {
			t.Fatalf("store job %s: %v", id, err)
		}
		var rec jobRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State != JobStateQueued {
			t.Fatalf("parked job %s state = %q, want queued", id, rec.State)
		}
	}
	if got := s.Metrics().Counter("serve.jobs.interrupted").Value(); got != 2 {
		t.Fatalf("serve.jobs.interrupted = %d, want 2", got)
	}
	if status, _, _ := post(t, ts.URL+"/v1/jobs", jobSweepBody); status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status = %d, want 503", status)
	}

	// Restart over the same store: both parked jobs resume and finish.
	s2, ts2 := newTestServer(t, Config{MaxJobs: 1, JobStore: store})
	waitJob(t, ts2.URL, "d1", JobStateDone)
	waitJob(t, ts2.URL, "d2", JobStateDone)
	if got := s2.Metrics().Counter("serve.jobs.resumed").Value(); got != 2 {
		t.Fatalf("serve.jobs.resumed = %d, want 2", got)
	}
}
