package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m3d/internal/errs"
	"m3d/internal/obs"
)

// fetchArtifact reads one job artifact, requiring 200.
func fetchArtifact(t *testing.T, baseURL, id, name string) []byte {
	t.Helper()
	status, b := get(t, baseURL+"/v1/jobs/"+id+"/artifacts/"+name)
	if status != http.StatusOK {
		t.Fatalf("artifact %s/%s status = %d: %s", id, name, status, b)
	}
	return b
}

// midFlowTracer parks the first flow that reaches placement until the
// test has killed the server, so the kill lands while the flow runs.
type midFlowTracer struct {
	once           sync.Once
	inFlow, killed chan struct{}
}

func newMidFlowTracer() *midFlowTracer {
	return &midFlowTracer{inFlow: make(chan struct{}), killed: make(chan struct{})}
}

func (m *midFlowTracer) StartSpan(name string, attrs ...obs.Attr) obs.Span {
	if name == "flow.place" {
		m.once.Do(func() {
			close(m.inFlow)
			<-m.killed
		})
	}
	return obs.Nop().StartSpan(name, attrs...)
}

// killableStore is a JobStore whose writes become no-ops once kill is
// called, as if the process that owns it had died; reads still pass
// through.
type killableStore struct {
	JobStore
	dead atomic.Bool
}

func (k *killableStore) kill() { k.dead.Store(true) }

func (k *killableStore) PutJob(id string, record []byte) error {
	if k.dead.Load() {
		return nil
	}
	return k.JobStore.PutJob(id, record)
}

func (k *killableStore) PutStage(id, stage string, payload []byte) error {
	if k.dead.Load() {
		return nil
	}
	return k.JobStore.PutStage(id, stage, payload)
}

func (k *killableStore) DeleteJob(id string) error {
	if k.dead.Load() {
		return nil
	}
	return k.JobStore.DeleteJob(id)
}

// killMidFlow submits body to a server over a fresh DirJobStore in dir
// and hard-kills that server while the job's flow is placing: the store
// is left exactly as a kill -9 would leave it.
func killMidFlow(t *testing.T, dir string, width int, body string) *DirJobStore {
	t.Helper()
	dirStore, err := NewDirJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := &killableStore{JobStore: dirStore}
	tr := newMidFlowTracer()
	s, ts := newTestServer(t, Config{Workers: width, JobStore: store, Tracer: tr})
	st := submitJob(t, ts.URL, body)
	select {
	case <-tr.inFlow:
	case <-time.After(60 * time.Second):
		t.Fatalf("the job's flow never reached placement\n%s", jobDiagnostics(t, ts.URL, getJob(t, ts.URL, st.ID)))
	}
	hardKillUnblock(s, store, tr.killed)
	return dirStore
}

// TestJobCrashResumeByteIdentical is the crash/resume end-to-end gate:
// a flow job is killed hard while its flow runs, a new server is started
// against the same store, and the re-run job's result, DEF artifact and
// report artifact must be byte-identical to an uninterrupted run — at
// pool widths 1, 2 and 8, with exactly one flow run on the restarted
// server. This is the serving layer's inheritance of the flow's
// width-independence guarantee: a job's result is a pure function of
// its request, so re-running it reproduces the interrupted run exactly.
func TestJobCrashResumeByteIdentical(t *testing.T) {
	const body = `{"id":"crash","flow":{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":7}}`

	// Reference: the same job uninterrupted, at width 1.
	_, tsRef := newTestServer(t, Config{Workers: 1})
	submitJob(t, tsRef.URL, body)
	ref := waitJob(t, tsRef.URL, "crash", JobStateDone)
	refDEF := fetchArtifact(t, tsRef.URL, "crash", "def")
	refReport := fetchArtifact(t, tsRef.URL, "crash", "report")

	for _, width := range widths {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			dir := t.TempDir()
			killMidFlow(t, dir, width, body)

			// Restart against the same directory: the job must re-run and
			// finish.
			store2, err := NewDirJobStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			s2, ts2 := newTestServer(t, Config{Workers: width, JobStore: store2})
			if got := s2.Metrics().Counter("serve.jobs.resumed").Value(); got != 1 {
				t.Fatalf("serve.jobs.resumed = %d, want 1", got)
			}
			done := waitJob(t, ts2.URL, "crash", JobStateDone)
			if got := s2.Metrics().Counter("serve.flow.evals").Value(); got != 1 {
				t.Errorf("serve.flow.evals on the restarted server = %d, want 1", got)
			}

			if !bytes.Equal(done.Result, ref.Result) {
				t.Errorf("resumed result drifted from the uninterrupted run\nresumed: %s\nref:     %s",
					done.Result, ref.Result)
			}
			if gotDEF := fetchArtifact(t, ts2.URL, "crash", "def"); !bytes.Equal(gotDEF, refDEF) {
				t.Errorf("resumed DEF artifact drifted from the uninterrupted run (%d vs %d bytes)",
					len(gotDEF), len(refDEF))
			}
			if gotRep := fetchArtifact(t, ts2.URL, "crash", "report"); !bytes.Equal(gotRep, refReport) {
				t.Errorf("resumed report artifact drifted\nresumed:\n%s\nref:\n%s", gotRep, refReport)
			}
		})
	}
}

// TestJobStoreServesAfterRestart reads jobs back from a DirJobStore on
// a second server: a finished flow job is served from the store as it
// stands, without any evaluation, and an unfinished record written by
// the per-stage checkpoint format (a chunked sweep part-way through)
// re-runs to the unchunked result.
func TestJobStoreServesAfterRestart(t *testing.T) {
	t.Run("finished_flow", func(t *testing.T) {
		dir := t.TempDir()
		store1, err := NewDirJobStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, ts1 := newTestServer(t, Config{JobStore: store1})
		submitJob(t, ts1.URL, jobFlowBody)
		want := waitJob(t, ts1.URL, "fljob", JobStateDone)
		wantDEF := fetchArtifact(t, ts1.URL, "fljob", "def")
		wantReport := fetchArtifact(t, ts1.URL, "fljob", "report")

		store2, err := NewDirJobStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s2, ts2 := newTestServer(t, Config{JobStore: store2})
		got := getJob(t, ts2.URL, "fljob")
		if got.State != JobStateDone || !bytes.Equal(got.Result, want.Result) ||
			!reflect.DeepEqual(got.Artifacts, want.Artifacts) {
			t.Fatalf("restarted server serves %+v, want %+v", got, want)
		}
		if b := fetchArtifact(t, ts2.URL, "fljob", "def"); !bytes.Equal(b, wantDEF) {
			t.Errorf("DEF artifact drifted across the restart (%d vs %d bytes)", len(b), len(wantDEF))
		}
		if b := fetchArtifact(t, ts2.URL, "fljob", "report"); !bytes.Equal(b, wantReport) {
			t.Errorf("report artifact drifted across the restart\ngot:\n%s\nwant:\n%s", b, wantReport)
		}
		reg := s2.Metrics()
		if n := reg.Counter("serve.flow.evals").Value(); n != 0 {
			t.Errorf("serve.flow.evals = %d on the restarted server, want 0", n)
		}
		if n := reg.Counter("serve.jobs.resumed").Value(); n != 0 {
			t.Errorf("serve.jobs.resumed = %d for a finished job, want 0", n)
		}
	})

	t.Run("unfinished_stage_record", func(t *testing.T) {
		const sweep = `{"kind":"delta","deltas":[1,1.5,2,2.5]}`
		dir := t.TempDir()
		store, err := NewDirJobStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		record := `{"id":"old","kind":"sweep","request":{"id":"old","sweep":` + sweep + `,"chunks":2},` +
			`"state":"running","stages":["part.00","part.01","final"],"done":["part.00"]}`
		if err := store.PutJob("old", []byte(record)); err != nil {
			t.Fatal(err)
		}
		if err := store.PutStage("old", "part.00", []byte(`[{"delta":1,"edp_benefit":1}]`)); err != nil {
			t.Fatal(err)
		}

		s, ts := newTestServer(t, Config{JobStore: store})
		done := waitJob(t, ts.URL, "old", JobStateDone)
		if n := s.Metrics().Counter("serve.sweep.evals").Value(); n != 1 {
			t.Errorf("serve.sweep.evals = %d, want 1 (the whole sweep, once)", n)
		}
		status, _, want := post(t, ts.URL+"/v1/sweep", sweep)
		if status != http.StatusOK {
			t.Fatalf("/v1/sweep status = %d: %s", status, want)
		}
		if !bytes.Equal(done.Result, bytes.TrimSpace(want)) {
			t.Errorf("re-run result differs from the unchunked sweep\njob:  %s\nsync: %s", done.Result, want)
		}
	})
}

// TestDirJobStoreIgnoresTornTemps plants the torn temp files a crash or
// power loss mid-write leaves behind — a half-written record next to the
// complete one, a partial artifact whose rename never happened, and a
// job directory whose first record never landed — and requires the
// store to serve only complete blobs and a restarted server to re-run
// the job byte-identically.
func TestDirJobStoreIgnoresTornTemps(t *testing.T) {
	const body = `{"id":"torn","flow":{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":7}}`

	_, tsRef := newTestServer(t, Config{})
	submitJob(t, tsRef.URL, body)
	ref := waitJob(t, tsRef.URL, "torn", JobStateDone)
	refDEF := fetchArtifact(t, tsRef.URL, "torn", "def")
	refReport := fetchArtifact(t, tsRef.URL, "torn", "report")

	dir := t.TempDir()
	store1 := killMidFlow(t, dir, 0, body)

	record, err := store1.GetJob("torn")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "ghost"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{
		filepath.Join("torn", "job.json.tmp90"):               record[:len(record)/2],
		filepath.Join("torn", "stage.artifact.def.bin.tmp91"): refDEF[:len(refDEF)/2],
		filepath.Join("ghost", "job.json.tmp93"):              []byte(`{"id":"gh`),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	store2, err := NewDirJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := store2.ListJobs(); err != nil || !reflect.DeepEqual(ids, []string{"torn"}) {
		t.Fatalf("ListJobs = %v, %v; want [torn]", ids, err)
	}
	if got, err := store2.GetJob("torn"); err != nil || !bytes.Equal(got, record) {
		t.Errorf("GetJob = %q, %v; want the complete record", got, err)
	}
	if _, err := store2.GetStage("torn", artifactStage("def")); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("GetStage(artifact.def) error = %v; a torn temp must not surface as an artifact", err)
	}

	s2, ts2 := newTestServer(t, Config{JobStore: store2})
	if got := s2.Metrics().Counter("serve.jobs.resumed").Value(); got != 1 {
		t.Fatalf("serve.jobs.resumed = %d, want 1", got)
	}
	done := waitJob(t, ts2.URL, "torn", JobStateDone)
	if !bytes.Equal(done.Result, ref.Result) {
		t.Errorf("resumed result drifted\nresumed: %s\nref:     %s", done.Result, ref.Result)
	}
	if got := fetchArtifact(t, ts2.URL, "torn", "def"); !bytes.Equal(got, refDEF) {
		t.Errorf("resumed DEF artifact drifted (%d vs %d bytes)", len(got), len(refDEF))
	}
	if got := fetchArtifact(t, ts2.URL, "torn", "report"); !bytes.Equal(got, refReport) {
		t.Errorf("resumed report artifact drifted\nresumed:\n%s\nref:\n%s", got, refReport)
	}
}

// hardKillUnblock simulates a hard process death: it kills the server's
// store, so no further write lands, and cancels all work before unblock
// releases the runner parked on it, then waits for the runners to exit.
func hardKillUnblock(s *Server, store *killableStore, unblock chan struct{}) {
	store.kill()
	s.jobs.baseCancel()
	close(unblock)
	s.jobs.queue.Wait()
}
