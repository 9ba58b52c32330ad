// Command jobsmoke is the check.sh gate for the async job tier, run
// end-to-end through the compiled m3dserve binary: it submits a flow
// job over real HTTP, polls it to done, fetches its DEF and report
// artifacts, then proves the crash/resume contract with POSIX signals —
// a second job is submitted and the server is SIGTERMed while it runs,
// the drain parks the job in the on-disk store, and a restarted server
// process on the same -jobstore resumes it to completion with artifacts
// byte-identical to the uninterrupted run's.
//
// Run from the repo root (check.sh does):
//
//	go run ./scripts/jobsmoke
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"m3d/scripts/internal/smoke"
)

const jobDeadline = 120 * time.Second

// flowSpec is the job payload; job "a" runs uninterrupted, job "b" is
// the same work under a different id, interrupted by SIGTERM.
const flowSpec = `{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":11}`

func main() {
	log.SetFlags(0)
	log.SetPrefix("jobsmoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("jobs smoke ok: submit + poll + artifacts + SIGTERM park + restart resume, byte-identical")
}

func run() error {
	tmp, err := os.MkdirTemp("", "jobsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// One compiled binary serves both processes, so the restart below is
	// a genuinely new process on the same store.
	bin, err := smoke.Build(tmp)
	if err != nil {
		return err
	}
	store := filepath.Join(tmp, "jobs")

	// First server: run job "a" to completion, then interrupt job "b".
	srv1, err := smoke.Start(bin, "-drain", "15s", "-jobstore", store)
	if err != nil {
		return err
	}
	defer srv1.Reap()

	if _, err := submit(srv1.Base, `{"id":"a","flow":`+flowSpec+`}`); err != nil {
		return err
	}
	if err := waitDone(srv1.Base, "a"); err != nil {
		return err
	}
	refDEF, err := smoke.Fetch(srv1.Base+"/v1/jobs/a/artifacts/def", "")
	if err != nil {
		return err
	}
	refReport, err := smoke.Fetch(srv1.Base+"/v1/jobs/a/artifacts/report", "")
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(refDEF, []byte("VERSION")) {
		return fmt.Errorf("DEF artifact does not look like DEF:\n%.80s", refDEF)
	}

	// Submit "b" and SIGTERM while it is in flight: the drain must
	// interrupt the job, park it resumable in the store, and still exit
	// cleanly within the drain window.
	if _, err := submit(srv1.Base, `{"id":"b","flow":`+flowSpec+`}`); err != nil {
		return err
	}
	if err := srv1.Stop(); err != nil {
		return fmt.Errorf("first server drain: %w", err)
	}
	if !strings.Contains(srv1.Stderr(), "drained") {
		return fmt.Errorf("no drain confirmation in server log:\n%s", srv1.Stderr())
	}

	// Second process, same store: "b" must resume and finish with
	// artifacts byte-identical to the uninterrupted "a".
	srv2, err := smoke.Start(bin, "-drain", "15s", "-jobstore", store)
	if err != nil {
		return err
	}
	defer srv2.Reap()
	if err := waitDone(srv2.Base, "b"); err != nil {
		return fmt.Errorf("resumed job: %w", err)
	}
	gotDEF, err := smoke.Fetch(srv2.Base+"/v1/jobs/b/artifacts/def", "")
	if err != nil {
		return err
	}
	if !bytes.Equal(gotDEF, refDEF) {
		return fmt.Errorf("resumed DEF drifted from the uninterrupted run (%d vs %d bytes)",
			len(gotDEF), len(refDEF))
	}
	gotReport, err := smoke.Fetch(srv2.Base+"/v1/jobs/b/artifacts/report", "")
	if err != nil {
		return err
	}
	if !bytes.Equal(gotReport, refReport) {
		return fmt.Errorf("resumed report drifted from the uninterrupted run:\n%s", gotReport)
	}

	if err := srv2.Stop(); err != nil {
		return fmt.Errorf("second server drain: %w", err)
	}
	return nil
}

// jobStatus is the slice of the job tier's status payload the smoke
// needs; unknown fields are ignored on purpose.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// submit POSTs a job and requires the 202 accepted envelope.
func submit(base, body string) (*jobStatus, error) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit status %d: %s", resp.StatusCode, b)
	}
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("submit response: %w: %s", err, b)
	}
	return &st, nil
}

// waitDone polls a job until it reaches done, failing fast on any other
// terminal state.
func waitDone(base, id string) error {
	deadline := time.Now().Add(jobDeadline)
	for {
		b, err := smoke.Fetch(base+"/v1/jobs/"+id, "")
		if err != nil {
			return err
		}
		var st jobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			return fmt.Errorf("job status: %w: %s", err, b)
		}
		switch st.State {
		case "done":
			return nil
		case "failed", "canceled":
			return fmt.Errorf("job %s reached %q: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %q after %s", id, st.State, jobDeadline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
