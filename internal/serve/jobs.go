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
// its own admission gate, checkpointing each completed stage through the
// pluggable JobStore so a restarted server resumes from the last
// completed stage instead of starting over. GET /v1/jobs/{id} reports
// status plus progress (completed stages over planned stages, and the
// innermost live evaluation span while running); GET /v1/jobs/{id}/events
// streams status snapshots over the shared arrayStream encoder;
// GET /v1/jobs/{id}/artifacts/{name} serves the persisted flow artifacts
// (DEF, report); DELETE /v1/jobs/{id} cancels.
//
// Lifecycle: accepted → queued → running → done | failed | canceled. A
// drain (SIGTERM) interrupts the running stage, keeps every completed
// checkpoint, and parks the job back in "queued" — the state a restarted
// server picks it up from. Stage outputs are deterministic functions of
// the request (the PR 5/6 byte-identical guarantees), so a resumed job
// produces byte-identical results and artifacts to an uninterrupted run.

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

// maxJobChunks bounds the sweep checkpoint granularity.
const maxJobChunks = 32

// defaultJobChunks is the sweep stage count when the request does not
// pick one (and the primary axis is long enough).
const defaultJobChunks = 4

// JobRequest is the POST /v1/jobs body: exactly one of Sweep, Flow or
// DSE, evaluated asynchronously with per-stage checkpoints.
type JobRequest struct {
	// ID names the job (optional; one is generated when empty).
	// Resubmitting an existing ID with the identical request is
	// idempotent and returns the job's current status.
	ID string `json:"id,omitempty"`

	Sweep *SweepRequest `json:"sweep,omitempty"`
	Flow  *FlowRequest  `json:"flow,omitempty"`
	DSE   *DSERequest   `json:"dse,omitempty"`

	// Chunks splits a sweep job's primary axis into this many
	// checkpointed stages (0 = 4, 1 = a single stage; capped at the axis
	// length and maxJobChunks). Only valid on sweep jobs.
	Chunks int `json:"chunks,omitempty"`
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
	if q.Chunks != 0 && q.Sweep == nil {
		return badSpec("chunks is only valid on sweep jobs")
	}
	if q.Chunks < 0 || q.Chunks > maxJobChunks {
		return badSpec("chunks %d outside [0, %d]", q.Chunks, maxJobChunks)
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
	// Stages is the planned checkpoint sequence; StagesDone the completed
	// prefix-so-far (checkpoints a restart resumes past).
	Stages     []string `json:"stages"`
	StagesDone []string `json:"stages_done,omitempty"`
	// Stage is the currently-running stage; Span the innermost live
	// evaluation span inside it (e.g. "flow.route"), derived from the
	// stage instrumentation the flow already emits.
	Stage string `json:"stage,omitempty"`
	Span  string `json:"span,omitempty"`
	// Progress is completed stages over planned stages in [0, 1].
	Progress float64 `json:"progress"`
	Error    string  `json:"error,omitempty"`
	// Result is the kind's response body (SweepResponse, FlowResponse or
	// the final DSEUpdate), present once done.
	Result json.RawMessage `json:"result,omitempty"`
	// Artifacts lists the persisted artifact names served under
	// /v1/jobs/{id}/artifacts/{name} ("def", "report" on flow jobs).
	Artifacts []string `json:"artifacts,omitempty"`
}

// jobRecord is the persisted form of a job (JobStore's job.json blob).
type jobRecord struct {
	ID        string          `json:"id"`
	Kind      string          `json:"kind"`
	Request   json.RawMessage `json:"request"`
	State     string          `json:"state"`
	Stages    []string        `json:"stages"`
	Done      []string        `json:"done,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Artifacts []string        `json:"artifacts,omitempty"`
}

// jobStage is one checkpointed unit of work: run computes the stage
// payload from the job context and the payloads of prior stages.
type jobStage struct {
	name string
	run  func(ctx context.Context, prior map[string][]byte) ([]byte, error)
}

// job is the in-memory state of one job.
type job struct {
	mu       sync.Mutex
	rec      jobRecord
	req      *JobRequest
	current  string             // running stage name
	tracker  *obs.ActiveTracker // live while running
	cancel   context.CancelFunc
	byClient bool // canceled via DELETE
	watchers map[chan struct{}]struct{}
}

// jobTier owns the queue, the store, and the job table.
type jobTier struct {
	s     *Server
	store JobStore
	gate  *exec.Gate
	queue *exec.Queue

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*job

	// noPersist simulates a hard kill in tests: once set, nothing is
	// written to the store anymore, as if the process had died.
	noPersist bool
	// stageDone (tests) fires after each checkpoint commits.
	stageDone func(id, stage string)
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
	t.mu.Lock()
	suppressed := t.noPersist
	t.mu.Unlock()
	if suppressed {
		return nil
	}
	b, err := json.Marshal(j.rec)
	if err != nil {
		return err
	}
	return t.store.PutJob(j.rec.ID, b)
}

// notifyLocked wakes every events watcher (j.mu held).
func (j *job) notifyLocked() {
	for ch := range j.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// subscribe returns a dirty-notification channel for the events stream.
func (j *job) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	if j.watchers == nil {
		j.watchers = make(map[chan struct{}]struct{})
	}
	j.watchers[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *job) unsubscribe(ch chan struct{}) {
	j.mu.Lock()
	delete(j.watchers, ch)
	j.mu.Unlock()
}

// status snapshots the job's wire status.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.rec.ID,
		Kind:       j.rec.Kind,
		State:      j.rec.State,
		Stages:     append([]string(nil), j.rec.Stages...),
		StagesDone: append([]string(nil), j.rec.Done...),
		Error:      j.rec.Error,
		Result:     j.rec.Result,
		Artifacts:  append([]string(nil), j.rec.Artifacts...),
	}
	if len(j.rec.Stages) > 0 {
		st.Progress = float64(len(j.rec.Done)) / float64(len(j.rec.Stages))
	}
	if j.rec.State == JobStateRunning {
		st.Stage = j.current
		if j.tracker != nil {
			st.Span = j.tracker.Active()
		}
	}
	return st
}

// setState transitions the job, persists, and notifies watchers.
func (t *jobTier) setState(j *job, state string, mutate func(*jobRecord)) {
	j.mu.Lock()
	j.rec.State = state
	if mutate != nil {
		mutate(&j.rec)
	}
	t.persistLocked(j)
	j.notifyLocked()
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

// lookup finds a job by id (memory first, then the store — jobs written
// by an earlier incarnation are loaded on demand).
func (t *jobTier) lookup(id string) (*job, error) {
	t.mu.Lock()
	j, ok := t.jobs[id]
	t.mu.Unlock()
	if ok {
		return j, nil
	}
	b, err := t.store.GetJob(id)
	if err != nil {
		return nil, err
	}
	var rec jobRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("serve: job %s record corrupt: %v: %w", id, err, errs.ErrNotFound)
	}
	j = &job{rec: rec}
	t.mu.Lock()
	if exist, ok := t.jobs[id]; ok {
		j = exist
	} else {
		t.jobs[id] = j
	}
	t.mu.Unlock()
	return j, nil
}

// submit accepts one validated request: persist the accepted record,
// queue the work, and return the (at least queued) status. ErrOverloaded
// means the job tier's queue is full (429 upstream).
func (t *jobTier) submit(req *JobRequest) (*job, error) {
	canon, err := json.Marshal(req)
	if err != nil {
		return nil, badSpec("unmarshalable job request")
	}
	id := req.ID
	if id == "" {
		id = newJobID()
	}

	// Idempotent resubmission: the same id with the same request returns
	// the existing job; a different request is refused.
	if j, err := t.lookup(id); err == nil {
		j.mu.Lock()
		same := bytes.Equal(j.rec.Request, canon)
		j.mu.Unlock()
		if !same {
			return nil, badSpec("job %s already exists with a different request", id)
		}
		return j, nil
	}

	stages, err := planStages(t.s, req)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.name
	}
	j := &job{
		req: req,
		rec: jobRecord{
			ID:      id,
			Kind:    req.kind(),
			Request: canon,
			State:   JobStateAccepted,
			Stages:  names,
		},
	}
	t.mu.Lock()
	if _, ok := t.jobs[id]; ok {
		// Lost a submission race on the same id; treat as idempotent.
		exist := t.jobs[id]
		t.mu.Unlock()
		return exist, nil
	}
	t.jobs[id] = j
	t.mu.Unlock()

	j.mu.Lock()
	if err := t.persistLocked(j); err != nil {
		j.mu.Unlock()
		t.drop(id)
		return nil, fmt.Errorf("serve: persisting job %s: %v: %w", id, err, errs.ErrBadSpec)
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

// enqueue submits j to the queue and transitions it to queued.
func (t *jobTier) enqueue(j *job) error {
	ctx, cancel := context.WithCancel(t.baseCtx)
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	err := t.queue.Submit(ctx,
		func(ctx context.Context) { t.run(ctx, j) },
		func(err error) { t.queuedCanceled(j, err) })
	if err != nil {
		cancel()
		return err
	}
	t.setState(j, JobStateQueued, nil)
	t.s.reg.Gauge("serve.jobs.active").Add(1)
	return nil
}

// queuedCanceled settles a job whose context ended while it waited for
// a slot: a drain parks it queued (resumable after restart), a client
// cancellation finishes it canceled — in both cases without running.
func (t *jobTier) queuedCanceled(j *job, err error) {
	defer t.s.reg.Gauge("serve.jobs.active").Add(-1)
	j.mu.Lock()
	byClient := j.byClient
	j.mu.Unlock()
	if byClient {
		t.s.reg.Counter("serve.jobs.canceled").Add(1)
		t.setState(j, JobStateCanceled, func(r *jobRecord) { r.Error = err.Error() })
		return
	}
	// Interrupted by drain: stays queued in the store for the next
	// incarnation to resume.
	t.s.reg.Counter("serve.jobs.interrupted").Add(1)
	t.setState(j, JobStateQueued, nil)
}

// run executes j's stages, loading checkpointed ones from the store and
// persisting each newly completed one.
func (t *jobTier) run(ctx context.Context, j *job) {
	defer t.s.reg.Gauge("serve.jobs.active").Add(-1)
	tracker := obs.NewActiveTracker(t.s.tracer)
	j.mu.Lock()
	j.tracker = tracker
	done := make(map[string]bool, len(j.rec.Done))
	for _, name := range j.rec.Done {
		done[name] = true
	}
	req := j.req
	j.mu.Unlock()

	if req == nil {
		// Resumed from a persisted record: re-decode the request.
		req = new(JobRequest)
		j.mu.Lock()
		raw := j.rec.Request
		j.mu.Unlock()
		if err := json.Unmarshal(raw, req); err == nil {
			err = req.validate()
			if err == nil {
				j.mu.Lock()
				j.req = req
				j.mu.Unlock()
			} else {
				t.fail(j, err)
				return
			}
		} else {
			t.fail(j, badSpec("persisted job request corrupt: %v", err))
			return
		}
	}

	stages, err := planStages(t.s, req)
	if err != nil {
		t.fail(j, err)
		return
	}

	t.s.reg.Gauge("serve.jobs.running").Add(1)
	defer t.s.reg.Gauge("serve.jobs.running").Add(-1)
	t.setState(j, JobStateRunning, nil)

	ctx = withJobMeta(ctx, j.rec.ID, tracker)
	prior := make(map[string][]byte, len(stages))
	for _, st := range stages {
		if done[st.name] {
			// Resume past a checkpointed stage: its payload comes from the
			// store, not from recomputation.
			payload, err := t.store.GetStage(j.rec.ID, st.name)
			if err == nil {
				prior[st.name] = payload
				continue
			}
			// Checkpoint lost (or corrupt store): recompute the stage.
			done[st.name] = false
		}
		j.mu.Lock()
		j.current = st.name
		j.notifyLocked()
		j.mu.Unlock()

		payload, err := st.run(ctx, prior)
		if err != nil {
			t.settleError(j, st.name, err)
			return
		}
		prior[st.name] = payload
		if err := t.putStage(j, st.name, payload); err != nil {
			t.fail(j, fmt.Errorf("serve: checkpointing %s/%s: %v", j.rec.ID, st.name, err))
			return
		}
		if t.stageDone != nil {
			t.stageDone(j.rec.ID, st.name)
		}
	}

	final := prior[stages[len(stages)-1].name]
	t.s.reg.Counter("serve.jobs.done").Add(1)
	t.setState(j, JobStateDone, func(r *jobRecord) {
		r.Result = final
		if req.Flow != nil {
			r.Artifacts = []string{"def", "report"}
		}
	})
}

// putStage persists one completed stage and appends it to the record.
func (t *jobTier) putStage(j *job, name string, payload []byte) error {
	t.mu.Lock()
	suppressed := t.noPersist
	t.mu.Unlock()
	if !suppressed {
		if err := t.store.PutStage(j.rec.ID, name, payload); err != nil {
			return err
		}
	}
	t.s.reg.Counter("serve.jobs.checkpoints").Add(1)
	j.mu.Lock()
	j.rec.Done = append(j.rec.Done, name)
	j.current = ""
	t.persistLocked(j)
	j.notifyLocked()
	j.mu.Unlock()
	return nil
}

// settleError routes a stage failure: cancellation by drain parks the
// job queued (resumable), cancellation by the client finishes it
// canceled, anything else fails it.
func (t *jobTier) settleError(j *job, stage string, err error) {
	if errors.Is(err, errs.ErrCanceled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		j.mu.Lock()
		byClient := j.byClient
		j.mu.Unlock()
		if byClient {
			t.s.reg.Counter("serve.jobs.canceled").Add(1)
			t.setState(j, JobStateCanceled, func(r *jobRecord) {
				r.Error = fmt.Sprintf("canceled in stage %s: %v", stage, err)
			})
			return
		}
		t.s.reg.Counter("serve.jobs.interrupted").Add(1)
		t.setState(j, JobStateQueued, func(r *jobRecord) { r.Error = "" })
		return
	}
	t.s.reg.Counter("serve.jobs.failed").Add(1)
	t.setState(j, JobStateFailed, func(r *jobRecord) {
		r.Error = fmt.Sprintf("stage %s: %v", stage, err)
	})
}

// fail finishes a job outside any stage.
func (t *jobTier) fail(j *job, err error) {
	t.s.reg.Counter("serve.jobs.failed").Add(1)
	t.setState(j, JobStateFailed, func(r *jobRecord) { r.Error = err.Error() })
}

// resume loads every stored job: terminal records become queryable,
// unfinished ones are re-queued (their completed checkpoints skip).
func (t *jobTier) resume() {
	ids, err := t.store.ListJobs()
	if err != nil {
		return
	}
	for _, id := range ids {
		j, err := t.lookup(id)
		if err != nil {
			continue
		}
		j.mu.Lock()
		unfinished := !jobTerminal(j.rec.State)
		j.mu.Unlock()
		if !unfinished {
			continue
		}
		if err := t.enqueue(j); err != nil {
			t.fail(j, fmt.Errorf("serve: resume: %w", err))
			continue
		}
		t.s.reg.Counter("serve.jobs.resumed").Add(1)
	}
}

// interrupt starts the drain: every queued and running job's context is
// canceled; running stages stop at their next cancellation point with
// completed checkpoints intact.
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

// kill simulates a hard process death for tests: suppress every further
// store write, cancel all work, and wait for the runners to exit. The
// store is left exactly as a kill -9 would have.
func (t *jobTier) kill() {
	t.mu.Lock()
	t.noPersist = true
	t.mu.Unlock()
	t.baseCancel()
	t.queue.Wait()
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

// ---- stage planning ----

// planStages derives the checkpoint sequence of one request. The plan is
// a pure function of the request, so a restarted server re-derives the
// identical sequence and resumes from the store's completed prefix.
func planStages(s *Server, req *JobRequest) ([]jobStage, error) {
	switch {
	case req.Flow != nil:
		return planFlowStages(s, req.Flow), nil
	case req.Sweep != nil:
		return planSweepStages(s, req.Sweep, req.Chunks), nil
	case req.DSE != nil:
		return planDSEStages(s, req.DSE), nil
	}
	return nil, badSpec("job needs exactly one of sweep, flow or dse")
}

// flowEval is the flow job's eval-stage payload: the response summary.
// The DEF and report artifacts are persisted alongside it under the
// artifact.* stage names (written before the eval checkpoint commits, so
// a crash between them re-runs the deterministic eval and rewrites
// identical bytes).
type flowEval struct {
	Response *FlowResponse `json:"response"`
}

// artifactStage maps an artifact name to its store stage name.
func artifactStage(name string) string { return "artifact." + name }

// planFlowStages: spec → eval → final. "spec" checkpoints the canonical
// validated request (a cheap early boundary), "eval" runs the physical
// flow once, persisting the DEF and report artifacts plus the response
// summary, "final" promotes the summary to the job result.
func planFlowStages(s *Server, fr *FlowRequest) []jobStage {
	return []jobStage{
		{name: "spec", run: func(ctx context.Context, _ map[string][]byte) ([]byte, error) {
			spec, err := fr.spec()
			if err != nil {
				return nil, err
			}
			if err := spec.Validate(); err != nil {
				return nil, err
			}
			return json.Marshal(fr)
		}},
		{name: "eval", run: func(ctx context.Context, _ map[string][]byte) ([]byte, error) {
			res, err := s.design(ctx, fr)
			if err != nil {
				return nil, err
			}
			var def bytes.Buffer
			if err := res.WriteDEF(&def); err != nil {
				return nil, err
			}
			resp := flowResponseOf(res)
			id := jobMetaFrom(ctx).id
			if err := s.jobs.storeArtifact(id, "def", def.Bytes()); err != nil {
				return nil, err
			}
			if err := s.jobs.storeArtifact(id, "report", flowReportText(resp)); err != nil {
				return nil, err
			}
			return json.Marshal(flowEval{Response: resp})
		}},
		{name: "final", run: func(_ context.Context, prior map[string][]byte) ([]byte, error) {
			var ev flowEval
			if err := json.Unmarshal(prior["eval"], &ev); err != nil {
				return nil, fmt.Errorf("serve: eval checkpoint corrupt: %v", err)
			}
			return json.Marshal(ev.Response)
		}},
	}
}

// storeArtifact persists one artifact blob under its stage name (skipped
// under the test kill switch, like every other write).
func (t *jobTier) storeArtifact(id, name string, blob []byte) error {
	t.mu.Lock()
	suppressed := t.noPersist
	t.mu.Unlock()
	if suppressed {
		return nil
	}
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

// sweepChunks splits a sweep request into consecutive sub-requests along
// its primary axis — the checkpoint granularity of a sweep job. Requests
// whose primary axis is defaulted (empty) are one chunk.
func sweepChunks(req *SweepRequest, chunks int) []*SweepRequest {
	axisLen := sweepAxisLen(req)
	if chunks == 0 {
		chunks = defaultJobChunks
	}
	if chunks > axisLen {
		chunks = axisLen
	}
	if chunks <= 1 {
		return []*SweepRequest{req}
	}
	out := make([]*SweepRequest, 0, chunks)
	for i := 0; i < chunks; i++ {
		lo, hi := i*axisLen/chunks, (i+1)*axisLen/chunks
		sub := *req
		switch req.Kind {
		case KindBandwidthCS:
			sub.CSCounts = req.CSCounts[lo:hi]
		case KindRRAMCapacity:
			sub.CapacitiesMB = req.CapacitiesMB[lo:hi]
		case KindDelta:
			sub.Deltas = req.Deltas[lo:hi]
		case KindBeta:
			sub.Betas = req.Betas[lo:hi]
		case KindTierPairs:
			sub.TierPairs = req.TierPairs[lo:hi]
		}
		out = append(out, &sub)
	}
	return out
}

// sweepAxisLen is the length of a sweep request's primary axis — the
// dimension sweepChunks slices and the final stage reassembles.
func sweepAxisLen(req *SweepRequest) int {
	switch req.Kind {
	case KindBandwidthCS:
		return len(req.CSCounts)
	case KindRRAMCapacity:
		return len(req.CapacitiesMB)
	case KindDelta:
		return len(req.Deltas)
	case KindBeta:
		return len(req.Betas)
	case KindTierPairs:
		return len(req.TierPairs)
	}
	return 0
}

// planSweepStages: part.NN per chunk, then final. Each part evaluates
// its sub-request through the server's coalescing (and, on a fleet,
// peer-sharded) sweep cache and checkpoints its rows; final concatenates
// the parts in axis order — byte-identical to the unsplit sweep, since
// the grid is evaluated in axis-major order.
func planSweepStages(s *Server, req *SweepRequest, chunks int) []jobStage {
	subs := sweepChunks(req, chunks)
	stages := make([]jobStage, 0, len(subs)+1)
	names := make([]string, len(subs))
	for i, sub := range subs {
		name := fmt.Sprintf("part.%02d", i)
		names[i] = name
		sub := sub
		stages = append(stages, jobStage{name: name, run: func(ctx context.Context, _ map[string][]byte) ([]byte, error) {
			resp, err := s.sweepCached(ctx, sub)
			if err != nil {
				return nil, err
			}
			return json.Marshal(resp.Rows)
		}})
	}
	stages = append(stages, jobStage{name: "final", run: func(_ context.Context, prior map[string][]byte) ([]byte, error) {
		out := &SweepResponse{Kind: req.Kind}
		for _, name := range names {
			var rows []SweepRow
			if err := json.Unmarshal(prior[name], &rows); err != nil {
				return nil, fmt.Errorf("serve: %s checkpoint corrupt: %v", name, err)
			}
			out.Rows = append(out.Rows, rows...)
		}
		return json.Marshal(out)
	}})
	return stages
}

// planDSEStages: explore → final. A resumed explore stage re-runs the
// whole exploration: its points are cheap to compute, and the result
// matches the uninterrupted run because the search is deterministic.
func planDSEStages(s *Server, req *DSERequest) []jobStage {
	return []jobStage{
		{name: "explore", run: func(ctx context.Context, _ map[string][]byte) ([]byte, error) {
			var final dse.Update
			_, err := dse.Explore(s.pdk, req.space(), req.options(), func(u dse.Update) {
				if u.Done {
					final = u
				}
			}, s.evalOptions(ctx)...)
			if err != nil {
				return nil, err
			}
			return json.Marshal(s.promote(ctx, req, final))
		}},
		{name: "final", run: func(_ context.Context, prior map[string][]byte) ([]byte, error) {
			return prior["explore"], nil
		}},
	}
}

// jobMetaKey carries the running job's id and span tracker to its
// stages — planStages closes over the request, but the tracker is
// per-attempt (a resumed job gets a fresh one), so it rides the context.
type jobMetaKey struct{}

type jobMeta struct {
	id      string
	tracker *obs.ActiveTracker
}

func withJobMeta(ctx context.Context, id string, tr *obs.ActiveTracker) context.Context {
	return context.WithValue(ctx, jobMetaKey{}, jobMeta{id: id, tracker: tr})
}

// jobMetaFrom returns the running job's metadata (zero outside a job).
func jobMetaFrom(ctx context.Context) jobMeta {
	m, _ := ctx.Value(jobMetaKey{}).(jobMeta)
	return m
}

// jobTracer resolves the evaluation tracer for a stage context.
func jobTracer(ctx context.Context, s *Server) obs.Tracer {
	if m := jobMetaFrom(ctx); m.tracker != nil {
		return m.tracker
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
// subscription, one per transition (coalesced under load), the last
// carrying the terminal state. The stream also ends when the client
// goes away, the request deadline passes, or the server drains.
func (s *Server) handleJobEvents(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	j, err := s.jobs.lookup(r.PathValue("id"))
	if err != nil {
		return err
	}
	ch := j.subscribe()
	defer j.unsubscribe(ch)
	st := newArrayStream(w)
	for {
		status := j.status()
		if !st.emit(status) {
			return nil
		}
		if jobTerminal(status.State) {
			break
		}
		select {
		case <-ch:
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
