package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"m3d/internal/dse"
	"m3d/internal/errs"
	"m3d/internal/exec"
	"m3d/internal/flow"
	"m3d/internal/obs"
	"m3d/internal/report"
)

// The async job tier: POST /v1/jobs accepts sweep/flow/dse work and
// returns a job ID immediately; the work runs behind an exec.Queue over
// its own admission gate and evaluates exactly once, through the same
// evaluator as its synchronous endpoint. The job record in the pluggable
// JobStore is the only checkpoint: it carries the request, the state and,
// once done, the result, so a restarted server serves finished jobs from
// the store and re-runs unfinished ones. GET /v1/jobs/{id} reports the
// status (and the innermost live evaluation span while running);
// GET /v1/jobs/{id}/events streams status snapshots over the shared
// arrayStream encoder; GET /v1/jobs/{id}/artifacts/{name} serves the
// persisted flow artifacts (DEF, report); DELETE /v1/jobs/{id} cancels.
//
// Lifecycle: accepted → queued → running → done | failed | canceled. A
// drain (SIGTERM) interrupts the running evaluation and parks the job
// back in "queued" — the state a restarted server picks it up from.
// Results are deterministic functions of the request (the flow, sweep
// and DSE byte-identical guarantees), so a re-run job produces
// byte-identical results and artifacts to an uninterrupted run.

// Job states.
const (
	JobStateAccepted = "accepted"
	JobStateQueued   = "queued"
	JobStateRunning  = "running"
	JobStateDone     = "done"
	JobStateFailed   = "failed"
	JobStateCanceled = "canceled"
)

// jobTerminal reports whether a state is final.
func jobTerminal(state string) bool {
	return state == JobStateDone || state == JobStateFailed || state == JobStateCanceled
}

// JobRequest is the POST /v1/jobs body: exactly one of Sweep, Flow or
// DSE, evaluated asynchronously.
type JobRequest struct {
	// ID names the job (optional; one is generated when empty).
	// Resubmitting an existing ID with the identical request is
	// idempotent and returns the job's current status.
	ID string `json:"id,omitempty"`

	Sweep *SweepRequest `json:"sweep,omitempty"`
	Flow  *FlowRequest  `json:"flow,omitempty"`
	DSE   *DSERequest   `json:"dse,omitempty"`
}

// kind returns the job's work kind.
func (q *JobRequest) kind() string {
	switch {
	case q.Sweep != nil:
		return "sweep"
	case q.Flow != nil:
		return "flow"
	case q.DSE != nil:
		return "dse"
	}
	return ""
}

// validate implements the decodeRequest contract.
func (q *JobRequest) validate() error {
	n := 0
	for _, set := range []bool{q.Sweep != nil, q.Flow != nil, q.DSE != nil} {
		if set {
			n++
		}
	}
	if n != 1 {
		return badSpec("job needs exactly one of sweep, flow or dse")
	}
	if len(q.ID) > 64 {
		return badSpec("job id longer than 64 bytes")
	}
	for _, r := range q.ID {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return badSpec("job id %q: want [A-Za-z0-9._-]", q.ID)
		}
	}
	if q.ID == "." || q.ID == ".." {
		return badSpec("job id %q: want [A-Za-z0-9._-]", q.ID)
	}
	switch {
	case q.Sweep != nil:
		return q.Sweep.validate()
	case q.Flow != nil:
		return q.Flow.validate()
	default:
		return q.DSE.validate()
	}
}

// JobStatus is the job's wire status: the GET /v1/jobs/{id} body, the
// POST /v1/jobs reply, and the /events stream element.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Span is the innermost live evaluation span while running (e.g.
	// "flow.route"), derived from the instrumentation the evaluators
	// already emit.
	Span  string `json:"span,omitempty"`
	Error string `json:"error,omitempty"`
	// Result is the kind's response body (SweepResponse, FlowResponse or
	// the final DSEUpdate), present once done.
	Result json.RawMessage `json:"result,omitempty"`
	// Artifacts lists the persisted artifact names served under
	// /v1/jobs/{id}/artifacts/{name} ("def", "report" on flow jobs).
	Artifacts []string `json:"artifacts,omitempty"`
}

// jobRecord is the persisted form of a job (JobStore's job.json blob),
// and the job's only checkpoint. Records are decoded leniently, so one
// written with per-stage "stages"/"done" fields still loads.
type jobRecord struct {
	ID        string          `json:"id"`
	Kind      string          `json:"kind"`
	Request   json.RawMessage `json:"request"`
	State     string          `json:"state"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Artifacts []string        `json:"artifacts,omitempty"`
}

// job is the in-memory state of one job.
type job struct {
	mu       sync.Mutex
	rec      jobRecord
	tracker  *obs.ActiveTracker // live while running
	cancel   context.CancelFunc
	byClient bool // canceled via DELETE
	// changed is closed at the job's next transition; watch creates it.
	changed chan struct{}
}

// jobTier owns the queue, the store, and the job table: every job the
// store holds at boot (resume loads them) and every one submitted since.
type jobTier struct {
	s     *Server
	store JobStore
	gate  *exec.Gate
	queue *exec.Queue

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*job
}

func newJobTier(s *Server, store JobStore, maxJobs, maxQueue int) *jobTier {
	if store == nil {
		store = NewMemJobStore()
	}
	if maxJobs <= 0 {
		maxJobs = 2
	}
	if maxQueue == 0 {
		maxQueue = 16
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	gate := exec.NewGate(maxJobs, maxQueue)
	ctx, cancel := context.WithCancel(context.Background())
	return &jobTier{
		s:          s,
		store:      store,
		gate:       gate,
		queue:      exec.NewQueue(gate),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
	}
}

// persistLocked writes j's record to the store (j.mu held). Persistence
// failures leave the in-memory state authoritative.
func (t *jobTier) persistLocked(j *job) error {
	b, err := json.Marshal(j.rec)
	if err != nil {
		return err
	}
	return t.store.PutJob(j.rec.ID, b)
}

// status snapshots the job's wire status.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// watch snapshots the job's wire status together with a channel closed
// at the job's next transition.
func (j *job) watch() (JobStatus, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	return j.statusLocked(), j.changed
}

// statusLocked is status with j.mu held.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.rec.ID,
		Kind:      j.rec.Kind,
		State:     j.rec.State,
		Error:     j.rec.Error,
		Result:    j.rec.Result,
		Artifacts: append([]string(nil), j.rec.Artifacts...),
	}
	if j.rec.State == JobStateRunning && j.tracker != nil {
		st.Span = j.tracker.Active()
	}
	return st
}

// setState transitions the job, persists, and wakes its watchers.
func (t *jobTier) setState(j *job, state string, mutate func(*jobRecord)) {
	j.mu.Lock()
	j.rec.State = state
	if mutate != nil {
		mutate(&j.rec)
	}
	t.persistLocked(j)
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
	j.mu.Unlock()
}

// newJobID generates a fresh job id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The math here never runs in practice; keep ids unique enough.
		return fmt.Sprintf("j%p", &b)
	}
	return "j" + hex.EncodeToString(b[:])
}

// lookup finds a job in the table.
func (t *jobTier) lookup(id string) (*job, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j, ok := t.jobs[id]; ok {
		return j, nil
	}
	return nil, storeNotFound("job", id)
}

// submit accepts one validated request: persist the accepted record,
// queue the work, and return the (at least queued) status. Resubmitting
// an id with the same request returns the existing job; a different
// request is refused. ErrOverloaded means the job tier's queue is full
// (429 upstream).
func (t *jobTier) submit(req *JobRequest) (*job, error) {
	canon, err := json.Marshal(req)
	if err != nil {
		return nil, badSpec("unmarshalable job request")
	}
	id := req.ID
	if id == "" {
		id = newJobID()
	}

	t.mu.Lock()
	if j, ok := t.jobs[id]; ok {
		t.mu.Unlock()
		// A job's request never changes once it is in the table.
		if !bytes.Equal(j.rec.Request, canon) {
			return nil, badSpec("job %s already exists with a different request", id)
		}
		return j, nil
	}
	j := &job{
		rec: jobRecord{
			ID:      id,
			Kind:    req.kind(),
			Request: canon,
			State:   JobStateAccepted,
		},
	}
	t.jobs[id] = j
	t.mu.Unlock()

	j.mu.Lock()
	if err := t.persistLocked(j); err != nil {
		j.mu.Unlock()
		t.drop(id)
		return nil, fmt.Errorf("serve: persisting job %s: %w", id, err)
	}
	j.mu.Unlock()

	if err := t.enqueue(j); err != nil {
		t.drop(id)
		t.store.DeleteJob(id)
		t.s.reg.Counter("serve.jobs.shed").Add(1)
		return nil, err
	}
	t.s.reg.Counter("serve.jobs.submitted").Add(1)
	return j, nil
}

// drop removes a job from the table (shed before it ever queued).
func (t *jobTier) drop(id string) {
	t.mu.Lock()
	delete(t.jobs, id)
	t.mu.Unlock()
}

// enqueue transitions j to queued and submits it to the queue. The
// queued state and the active gauge come first: Submit may start the job
// at once, and a job that finishes before Submit returns must not be
// reset to queued. A shed job gives its gauge back; its caller deletes
// or fails the record.
func (t *jobTier) enqueue(j *job) error {
	ctx, cancel := context.WithCancel(t.baseCtx)
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	t.setState(j, JobStateQueued, nil)
	active := t.s.reg.Gauge("serve.jobs.active")
	active.Add(1)
	err := t.queue.Submit(ctx,
		func(ctx context.Context) { t.run(ctx, j); active.Add(-1) },
		func(err error) { t.settle(j, err); active.Add(-1) })
	if err != nil {
		active.Add(-1)
		cancel()
	}
	return err
}

// run decodes j's stored request, evaluates it once and records the
// outcome. A fresh job and one resumed from the store take this path.
func (t *jobTier) run(ctx context.Context, j *job) {
	tracker := obs.NewActiveTracker(t.s.tracer)
	j.mu.Lock()
	j.tracker = tracker
	raw := j.rec.Request
	j.mu.Unlock()

	// The lenient decode drops fields a stored request may carry that
	// the strict POST decode refuses, such as an older "chunks" count.
	req := new(JobRequest)
	if err := json.Unmarshal(raw, req); err != nil {
		t.settle(j, badSpec("persisted job request corrupt: %v", err))
		return
	}
	if err := req.validate(); err != nil {
		t.settle(j, err)
		return
	}

	t.s.reg.Gauge("serve.jobs.running").Add(1)
	defer t.s.reg.Gauge("serve.jobs.running").Add(-1)
	t.setState(j, JobStateRunning, nil)

	result, artifacts, err := t.evaluate(withJobTracker(ctx, tracker), j.rec.ID, req)
	if err != nil {
		t.settle(j, err)
		return
	}
	t.s.reg.Counter("serve.jobs.done").Add(1)
	t.setState(j, JobStateDone, func(r *jobRecord) {
		r.Result = result
		r.Artifacts = artifacts
	})
}

// evaluate runs the job's endpoint evaluator once and returns the
// endpoint's response body and the names of the artifacts it stored.
// Flow artifacts are written before the terminal record, so a job
// interrupted between the two re-runs and rewrites identical bytes.
func (t *jobTier) evaluate(ctx context.Context, id string, req *JobRequest) (json.RawMessage, []string, error) {
	s := t.s
	switch {
	case req.Flow != nil:
		d, err := s.design(ctx, req.Flow)
		if err != nil {
			return nil, nil, err
		}
		res := d.res
		resp := flowResponseOf(res)
		var def bytes.Buffer
		if err := res.WriteDEF(&def); err != nil {
			return nil, nil, err
		}
		if err := t.storeArtifact(id, "def", def.Bytes()); err != nil {
			return nil, nil, err
		}
		if err := t.storeArtifact(id, "report", flowReportText(resp)); err != nil {
			return nil, nil, err
		}
		b, err := json.Marshal(resp)
		return b, []string{"def", "report"}, err
	case req.Sweep != nil:
		resp, err := s.sweepCached(ctx, req.Sweep)
		if err != nil {
			return nil, nil, err
		}
		b, err := json.Marshal(resp)
		return b, nil, err
	default:
		out, err := s.explore(ctx, req.DSE, func(dse.Update) {})
		if err != nil {
			return nil, nil, err
		}
		b, err := json.Marshal(out)
		return b, nil, err
	}
}

// settle records a job that ended without a result, whether it was
// queued or running: a client DELETE finishes it canceled, a drain parks
// it queued for the next incarnation to resume, and any other error
// fails it.
func (t *jobTier) settle(j *job, err error) {
	j.mu.Lock()
	byClient := j.byClient
	j.mu.Unlock()
	canceled := errors.Is(err, errs.ErrCanceled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
	switch {
	case canceled && byClient:
		t.s.reg.Counter("serve.jobs.canceled").Add(1)
		t.setState(j, JobStateCanceled, func(r *jobRecord) { r.Error = err.Error() })
	case canceled:
		t.s.reg.Counter("serve.jobs.interrupted").Add(1)
		t.setState(j, JobStateQueued, func(r *jobRecord) { r.Error = "" })
	default:
		t.s.reg.Counter("serve.jobs.failed").Add(1)
		t.setState(j, JobStateFailed, func(r *jobRecord) { r.Error = err.Error() })
	}
}

// resume loads every stored job into the table: terminal records become
// queryable, unfinished ones are re-queued to run again from the start.
// A record that does not decode is skipped.
func (t *jobTier) resume() {
	ids, err := t.store.ListJobs()
	if err != nil {
		return
	}
	for _, id := range ids {
		b, err := t.store.GetJob(id)
		if err != nil {
			continue
		}
		j := new(job)
		if err := json.Unmarshal(b, &j.rec); err != nil {
			continue
		}
		t.mu.Lock()
		t.jobs[id] = j
		t.mu.Unlock()
		if jobTerminal(j.rec.State) {
			continue
		}
		if err := t.enqueue(j); err != nil {
			t.settle(j, fmt.Errorf("serve: resume: %w", err))
			continue
		}
		t.s.reg.Counter("serve.jobs.resumed").Add(1)
	}
}

// interrupt starts the drain: every queued and running job's context is
// canceled; running evaluations stop at their next cancellation point.
func (t *jobTier) interrupt() {
	t.baseCancel()
}

// wait blocks until every accepted job has settled, or ctx ends.
func (t *jobTier) wait(ctx context.Context) error {
	settled := make(chan struct{})
	go func() {
		t.queue.Wait()
		close(settled)
	}()
	select {
	case <-settled:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: job drain interrupted: %w: %w", errs.ErrCanceled, ctx.Err())
	}
}

// cancelJob cancels a queued or running job on behalf of the client.
func (t *jobTier) cancelJob(j *job) {
	j.mu.Lock()
	j.byClient = true
	cancel := j.cancel
	terminal := jobTerminal(j.rec.State)
	j.mu.Unlock()
	if !terminal && cancel != nil {
		cancel()
	}
}

// artifactStage maps an artifact name to its store blob name.
func artifactStage(name string) string { return "artifact." + name }

// storeArtifact persists one artifact blob.
func (t *jobTier) storeArtifact(id, name string, blob []byte) error {
	return t.store.PutStage(id, artifactStage(name), blob)
}

// flowReportText renders the deterministic flow report artifact.
func flowReportText(resp *FlowResponse) []byte {
	tb := report.New("== Flow result ==", "Metric", "Value")
	tb.Add("Style", resp.Style)
	tb.Add("CS count", resp.NumCS)
	tb.Add("Cells", resp.Cells)
	tb.Add("Macros", resp.Macros)
	tb.Add("HPWL (nm)", resp.HPWLNM)
	tb.Add("Routed WL (nm)", resp.RoutedWLNM)
	tb.Add("Vias", resp.Vias)
	tb.Add("ILVs", resp.ILVs)
	tb.Add("Fmax", report.MHz(resp.FmaxHz))
	tb.Add("Timing met", resp.TimingMet)
	tb.Add("Footprint (mm2)", resp.FootprintMM2)
	tb.Add("Total power", report.MW(resp.TotalPowerW))
	tb.Add("Leakage power", report.MW(resp.LeakagePowerW))
	return []byte(tb.String())
}

// jobTrackerKey carries a running job's span tracker to its evaluators
// (evalOptions reads it through jobTracer); each attempt gets a fresh
// tracker.
type jobTrackerKey struct{}

func withJobTracker(ctx context.Context, tr *obs.ActiveTracker) context.Context {
	return context.WithValue(ctx, jobTrackerKey{}, tr)
}

// jobTracer resolves the evaluation tracer for a context: the job's
// span tracker inside a job, the server tracer otherwise.
func jobTracer(ctx context.Context, s *Server) obs.Tracer {
	if tr, ok := ctx.Value(jobTrackerKey{}).(*obs.ActiveTracker); ok {
		return tr
	}
	return s.tracer
}

// flowResponseOf summarizes a flow result (shared with /v1/flow).
func flowResponseOf(res *flow.Result) *FlowResponse {
	out := &FlowResponse{
		Style:        res.Spec.Style.String(),
		NumCS:        res.Spec.NumCS,
		Cells:        res.Cells,
		Macros:       res.Macros,
		HPWLNM:       res.HPWL,
		RoutedWLNM:   res.RoutedWL,
		Vias:         res.Vias,
		ILVs:         res.ILVs,
		FmaxHz:       res.FmaxHz,
		TimingMet:    res.TimingMet,
		FootprintMM2: res.FootprintMM2(),
	}
	if res.Power != nil {
		out.TotalPowerW = res.Power.TotalW
		out.LeakagePowerW = res.Power.LeakageW
	}
	return out
}

// ---- HTTP handlers ----

// handleJobs is POST /v1/jobs: accept (or idempotently find) a job and
// answer 202 with its status. The job tier has its own admission gate:
// a full queue sheds with 429 + Retry-After, exactly like the
// synchronous endpoints — but the slot is the job's, not the request's.
func (s *Server) handleJobs(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	req, err := decodeRequest[JobRequest](r.Body)
	if err != nil {
		return err
	}
	j, err := s.jobs.submit(req)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusAccepted, j.status())
}

// handleJobGet is GET /v1/jobs/{id}.
func (s *Server) handleJobGet(_ context.Context, w http.ResponseWriter, r *http.Request) error {
	j, err := s.jobs.lookup(r.PathValue("id"))
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, j.status())
}

// handleJobCancel is DELETE /v1/jobs/{id}: cancel a queued or running
// job (idempotent; terminal jobs are unaffected) and return its status.
func (s *Server) handleJobCancel(_ context.Context, w http.ResponseWriter, r *http.Request) error {
	j, err := s.jobs.lookup(r.PathValue("id"))
	if err != nil {
		return err
	}
	s.jobs.cancelJob(j)
	return writeJSON(w, http.StatusOK, j.status())
}

// handleJobEvents is GET /v1/jobs/{id}/events: a chunked JSON array of
// status snapshots over the shared arrayStream framing — one element at
// open, one per transition (transitions between two reads coalesce),
// the last carrying the terminal state. The stream also ends when the client
// goes away, the request deadline passes, or the server drains.
func (s *Server) handleJobEvents(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	j, err := s.jobs.lookup(r.PathValue("id"))
	if err != nil {
		return err
	}
	st := newArrayStream(w)
	for {
		status, changed := j.watch()
		if !st.emit(status) {
			return nil
		}
		if jobTerminal(status.State) {
			break
		}
		select {
		case <-changed:
		case <-ctx.Done():
			st.close()
			return nil
		case <-s.jobs.baseCtx.Done():
			// Draining: emit the parked state and finish the array.
			st.emit(j.status())
			st.close()
			return nil
		}
	}
	st.close()
	return nil
}

// handleJobArtifact is GET /v1/jobs/{id}/artifacts/{name}: the raw bytes
// of one persisted artifact (flow jobs: "def", "report").
func (s *Server) handleJobArtifact(_ context.Context, w http.ResponseWriter, r *http.Request) error {
	j, err := s.jobs.lookup(r.PathValue("id"))
	if err != nil {
		return err
	}
	name := r.PathValue("name")
	ok := false
	for _, a := range j.status().Artifacts {
		if a == name {
			ok = true
			break
		}
	}
	if !ok {
		return storeNotFound("artifact", j.rec.ID+"/"+name)
	}
	blob, err := s.jobs.store.GetStage(j.rec.ID, artifactStage(name))
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, err = w.Write(blob)
	return err
}
