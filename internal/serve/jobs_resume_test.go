package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"m3d/internal/errs"
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

// TestJobCrashResumeByteIdentical is the crash/resume end-to-end gate:
// a flow job is killed hard after its first checkpointed stage, a new
// server is started against the same store, and the resumed job's
// result, DEF artifact and report artifact must be byte-identical to an
// uninterrupted run — at pool widths 1, 2 and 8. This is the serving
// layer's inheritance of the flow's width-independence guarantee: a
// checkpointed stage is a pure function of the request, so replaying
// the remainder reproduces the interrupted run exactly.
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
			store1, err := NewDirJobStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			s1, ts1 := newTestServer(t, Config{Workers: width, JobStore: store1})
			specDone := make(chan struct{})
			killed := make(chan struct{})
			s1.jobs.stageDone = func(id, stage string) {
				if stage == "spec" {
					close(specDone)
					<-killed // hold the runner here so the kill races nothing
				}
			}
			submitJob(t, ts1.URL, body)
			<-specDone
			hardKillUnblock(s1, killed)

			// Restart against the same directory: the job must resume past
			// the "spec" checkpoint and finish.
			store2, err := NewDirJobStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			s2, ts2 := newTestServer(t, Config{Workers: width, JobStore: store2})
			if got := s2.Metrics().Counter("serve.jobs.resumed").Value(); got != 1 {
				t.Fatalf("serve.jobs.resumed = %d, want 1", got)
			}
			done := waitJob(t, ts2.URL, "crash", JobStateDone)

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

// TestJobSweepResumeSkipsDoneChunks kills a chunked sweep job after its
// first part checkpointed and proves the restarted server re-evaluates
// only the remaining chunk: the completed part is loaded from the store
// (exactly one local sweep evaluation on the second server), and the
// concatenated rows are byte-identical to the uninterrupted response.
func TestJobSweepResumeSkipsDoneChunks(t *testing.T) {
	const body = `{"id":"swres","sweep":{"kind":"delta","deltas":[1.0,1.5,2.0,2.5]},"chunks":2}`

	_, tsRef := newTestServer(t, Config{})
	submitJob(t, tsRef.URL, body)
	ref := waitJob(t, tsRef.URL, "swres", JobStateDone)

	dir := t.TempDir()
	store1, err := NewDirJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{JobStore: store1})
	partDone := make(chan struct{})
	killed := make(chan struct{})
	s1.jobs.stageDone = func(id, stage string) {
		if stage == "part.00" {
			close(partDone)
			<-killed
		}
	}
	submitJob(t, ts1.URL, body)
	<-partDone
	hardKillUnblock(s1, killed)

	store2, err := NewDirJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{JobStore: store2})
	done := waitJob(t, ts2.URL, "swres", JobStateDone)
	if !bytes.Equal(done.Result, ref.Result) {
		t.Errorf("resumed sweep result drifted\nresumed: %s\nref:     %s", done.Result, ref.Result)
	}
	if got := s2.Metrics().Counter("serve.sweep.evals").Value(); got != 1 {
		t.Errorf("serve.sweep.evals on resume = %d, want 1 (part.00 must load from its checkpoint)", got)
	}
}

// TestDirJobStoreIgnoresTornTemps plants the torn temp files a crash or
// power loss mid-write leaves behind — a half-written record and
// checkpoint next to the complete ones, the next stage's partial write,
// and a job directory whose first record never landed — and requires
// the store to serve only complete blobs and a restarted server to
// resume the job byte-identically.
func TestDirJobStoreIgnoresTornTemps(t *testing.T) {
	const body = `{"id":"torn","flow":{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":7}}`

	_, tsRef := newTestServer(t, Config{})
	submitJob(t, tsRef.URL, body)
	ref := waitJob(t, tsRef.URL, "torn", JobStateDone)
	refDEF := fetchArtifact(t, tsRef.URL, "torn", "def")
	refReport := fetchArtifact(t, tsRef.URL, "torn", "report")

	dir := t.TempDir()
	store1, err := NewDirJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{JobStore: store1})
	specDone := make(chan struct{})
	killed := make(chan struct{})
	s1.jobs.stageDone = func(id, stage string) {
		if stage == "spec" {
			close(specDone)
			<-killed
		}
	}
	submitJob(t, ts1.URL, body)
	<-specDone
	hardKillUnblock(s1, killed)

	record, err := store1.GetJob("torn")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := store1.GetStage("torn", "spec")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "ghost"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{
		filepath.Join("torn", "job.json.tmp90"):       record[:len(record)/2],
		filepath.Join("torn", "stage.spec.bin.tmp91"): spec[:len(spec)/2],
		filepath.Join("torn", "stage.eval.bin.tmp92"): []byte(`{"response":{"sty`),
		filepath.Join("ghost", "job.json.tmp93"):      []byte(`{"id":"gh`),
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
	if got, err := store2.GetStage("torn", "spec"); err != nil || !bytes.Equal(got, spec) {
		t.Errorf("GetStage(spec) = %q, %v; want the complete checkpoint", got, err)
	}
	if _, err := store2.GetStage("torn", "eval"); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("GetStage(eval) error = %v; a torn temp must not surface as a checkpoint", err)
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

// hardKillUnblock is hardKill for tests whose stageDone hook is parked
// on a channel: the kill must land before the runner resumes.
func hardKillUnblock(s *Server, unblock chan struct{}) {
	s.jobs.mu.Lock()
	s.jobs.noPersist = true
	s.jobs.mu.Unlock()
	s.jobs.baseCancel()
	close(unblock)
	s.jobs.queue.Wait()
}
