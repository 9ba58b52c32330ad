// Command smoke is the end-to-end gate behind `make smoke` (a step of
// `make check`). It builds cmd/m3dflow and cmd/m3dserve once each
// and drives the compiled binaries through real processes, TCP sockets
// and POSIX signals, in three steps:
//
//  1. m3dflow runs a small traced flow batch with every export on. It
//     must exit 0, write a JSONL trace of well-formed events (spans,
//     flow.run among them, then exactly one metrics snapshot) and a
//     non-empty file for each export.
//  2. The first m3dserve boot, on an empty job store, answers /healthz,
//     runs flow job "a" to done and serves its DEF and report, replays
//     the serve suite's default /v1/sweep, /v1/dse and pinned 96-corner
//     /v1/yield requests (each reply byte-equal to its golden, the yield
//     stream also checked for its invariants), streams 4096 corners
//     on the design the 96-corner run warmed under a wall-clock budget,
//     and scrapes /metrics. Then job "b", a's flow request again, is
//     submitted, and the server is SIGTERMed once b is seen running.
//  3. The second boot opens the same store. It must resume b, run its
//     flow once, and serve artifacts byte-identical to a's.
//
// Both boots must drain gracefully. Run from the repo root:
//
//	go run ./scripts/smoke
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"m3d/internal/obs"
	"m3d/internal/vary"
)

const (
	startDeadline = 30 * time.Second
	drainDeadline = 20 * time.Second
	jobDeadline   = 120 * time.Second

	// yieldBudget bounds the 4096-corner /v1/yield request. Its design
	// is the one the pinned 96-corner run already built and compiled, so
	// the request times only corner draws, the corner-batched STA kernel
	// and streaming: 4–17 ms on a 2-vCPU host, idle or busy. Timing each
	// corner with a full sta.Timer walk instead takes 137–180 ms on the
	// idle host, so the budget sits about 3× from each side.
	yieldBudget = 50 * time.Millisecond

	goldenDir = "internal/serve/testdata"

	// dseBody is the serve suite's pinned dse_stream.golden.json request:
	// a small box explored to convergence with a pinned seed.
	dseBody = `{"deltas":{"min":1,"max":2.5,"steps":8},"tier_pairs":{"min":1,"max":3},"bw_scales":{"min":1,"max":4,"steps":4},"seed":7,"max_evals":96}`

	// jobFlow is the flow request of both jobs. It differs from the
	// yield design, so the yield runs between the jobs evict a's design
	// from the server's one-design cache and b runs a real flow. Two CSs
	// of 3×3 PEs keep b running for about half a second on a 2-vCPU
	// host, long enough to be seen running before SIGTERM.
	jobFlow = `{"style":"M3D","num_cs":2,"array_rows":3,"array_cols":3,"rram_cap_mb":1,"banks":2,"global_sram_bits":65536,"seed":11}`
)

// yieldBody is the serve suite's pinned yield_stream.golden.json request
// (96 corners in batches of 32) with the run shape as parameters.
func yieldBody(samples, batch int) string {
	return fmt.Sprintf(`{"flow":{"style":"M3D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":1},"samples":%d,"batch":%d,"seed":7}`,
		samples, batch)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("smoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("smoke ok")
}

func run() error {
	tmp, err := os.MkdirTemp("", "smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	flowBin, err := build(tmp, "m3dflow")
	if err != nil {
		return err
	}
	serveBin, err := build(tmp, "m3dserve")
	if err != nil {
		return err
	}
	if err := flowExports(flowBin, tmp); err != nil {
		return fmt.Errorf("m3dflow: %w", err)
	}
	store := filepath.Join(tmp, "jobs")
	ref, err := firstBoot(serveBin, store)
	if err != nil {
		return fmt.Errorf("first boot: %w", err)
	}
	if err := secondBoot(serveBin, store, ref); err != nil {
		return fmt.Errorf("second boot: %w", err)
	}
	return nil
}

// build compiles ./cmd/<name> into dir. The smoke runs real binaries
// rather than `go run`: signals must reach the server process itself,
// not a go-run parent.
func build(dir, name string) (string, error) {
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build %s: %w", name, err)
	}
	return bin, nil
}

// flowExports runs a traced 2D + two-variant M3D batch with every
// export on and checks the trace and the exported files.
func flowExports(bin, dir string) error {
	trace := filepath.Join(dir, "trace.jsonl")
	out := filepath.Join(dir, "out")
	cmd := exec.Command(bin, "-side", "2", "-cs", "2,4", "-trace", trace,
		"-gds", out, "-verilog", out+".v", "-def", out+".def")
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%w\n%s", err, b)
	}
	if err := checkTrace(trace); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for _, f := range []string{"out_2d.gds", "out_m3d.gds", "out.v", "out.def"} {
		if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
			return fmt.Errorf("export %s is missing or empty", f)
		}
	}
	log.Print("m3dflow: trace well-formed, GDS/Verilog/DEF exports written")
	return nil
}

// checkTrace requires every line of a -trace file to be a well-formed
// obs.Event, at least one flow.run span, and exactly one metrics
// snapshot.
func checkTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var spans, runs, metrics int
	dec := json.NewDecoder(f)
	for dec.More() {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			return fmt.Errorf("malformed event: %w", err)
		}
		switch e.Type {
		case "span":
			spans++
			if e.Name == "flow.run" {
				runs++
			}
		case "metrics":
			metrics++
			if e.Metrics == nil {
				return fmt.Errorf("metrics event without snapshot")
			}
		default:
			return fmt.Errorf("unknown event type %q", e.Type)
		}
	}
	if spans == 0 || runs == 0 {
		return fmt.Errorf("no flow spans recorded (%d spans, %d runs)", spans, runs)
	}
	if metrics != 1 {
		return fmt.Errorf("%d metrics events, want exactly 1", metrics)
	}
	return nil
}

// artifacts are a flow job's DEF and report.
type artifacts struct{ def, report []byte }

// firstBoot runs step 2 and returns job a's artifacts.
func firstBoot(bin, store string) (*artifacts, error) {
	srv, err := start(bin, "-drain", "15s", "-jobstore", store)
	if err != nil {
		return nil, err
	}
	defer srv.reap()

	if err := expectBody(srv.base+"/healthz", `"status":"ok"`); err != nil {
		return nil, err
	}

	if err := submit(srv.base, "a"); err != nil {
		return nil, err
	}
	if err := waitState(srv.base, "a", "done"); err != nil {
		return nil, err
	}
	ref, err := fetchArtifacts(srv.base, "a")
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(ref.def, []byte("VERSION")) {
		return nil, fmt.Errorf("job a's DEF artifact does not look like DEF:\n%.80s", ref.def)
	}
	log.Print("job a: done, DEF and report served")

	if err := replay(srv.base, "/v1/sweep", `{"kind":"bandwidth_cs"}`, "sweep_default.golden.json", nil); err != nil {
		return nil, err
	}
	if err := replay(srv.base, "/v1/dse", dseBody, "dse_stream.golden.json", nil); err != nil {
		return nil, err
	}
	err = replay(srv.base, "/v1/yield", yieldBody(96, 32), "yield_stream.golden.json",
		func(b []byte) error { return checkYield(b, 96, 32) })
	if err != nil {
		return nil, err
	}

	// The fastest of three runs meets the budget: a burst of host load
	// slows one run, a slower kernel slows all three.
	best := time.Duration(1<<63 - 1)
	for range 3 {
		t0 := time.Now()
		body, err := fetch(srv.base+"/v1/yield", yieldBody(4096, 1024), http.StatusOK)
		best = min(best, time.Since(t0))
		if err != nil {
			return nil, err
		}
		if err := checkYield(body, 4096, 1024); err != nil {
			return nil, fmt.Errorf("4096-corner /v1/yield stream: %w", err)
		}
	}
	if best > yieldBudget {
		return nil, fmt.Errorf("4096-corner yield on the warm design took at best %s of 3 runs, over its %s budget",
			best.Round(time.Millisecond), yieldBudget)
	}
	log.Printf("/v1/yield: 4096 corners on the warm design in %s, best of 3 (budget %s)",
		best.Round(time.Millisecond), yieldBudget)

	if err := expectBody(srv.base+"/metrics", "serve.requests"); err != nil {
		return nil, err
	}

	// The yield design now fills the one-design cache, so b re-runs a's
	// flow; SIGTERM must interrupt it and park it in the store.
	if err := submit(srv.base, "b"); err != nil {
		return nil, err
	}
	if err := waitState(srv.base, "b", "running"); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	log.Print("job b: SIGTERM while running, server drained")
	return ref, nil
}

// secondBoot runs step 3: job b resumes and must reproduce ref.
func secondBoot(bin, store string, ref *artifacts) error {
	srv, err := start(bin, "-drain", "15s", "-jobstore", store)
	if err != nil {
		return err
	}
	defer srv.reap()

	if err := waitState(srv.base, "b", "done"); err != nil {
		return fmt.Errorf("resumed job: %w", err)
	}
	metrics, err := fetch(srv.base+"/metrics", "", http.StatusOK)
	if err != nil {
		return err
	}
	lines := strings.Split(string(metrics), "\n")
	for _, want := range []string{"counter serve.jobs.resumed 1", "counter serve.flow.evals 1"} {
		if !slices.Contains(lines, want) {
			return fmt.Errorf("/metrics lacks %q: job b finished before SIGTERM, or was not resumed and run once\n%s",
				want, metrics)
		}
	}
	got, err := fetchArtifacts(srv.base, "b")
	if err != nil {
		return err
	}
	if !bytes.Equal(got.def, ref.def) {
		return fmt.Errorf("resumed DEF drifted from the uninterrupted run (%d vs %d bytes)",
			len(got.def), len(ref.def))
	}
	if !bytes.Equal(got.report, ref.report) {
		return fmt.Errorf("resumed report drifted from the uninterrupted run:\n%s", got.report)
	}
	if err := srv.stop(); err != nil {
		return err
	}
	log.Print("job b: resumed, run once, artifacts byte-identical to a's, server drained")
	return nil
}

// replay POSTs body to path and requires the reply to equal the serve
// suite's golden file; check, when set, first enforces the stream's
// invariants.
func replay(base, path, body, golden string, check func([]byte) error) error {
	got, err := fetch(base+path, body, http.StatusOK)
	if err != nil {
		return err
	}
	if check != nil {
		if err := check(got); err != nil {
			return fmt.Errorf("%s stream: %w\nbody:\n%s", path, err, got)
		}
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, golden))
	if err != nil {
		return fmt.Errorf("read golden (run from the repo root): %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s reply drifted from %s\ngot:\n%s", path, golden, got)
	}
	log.Printf("%s reply matches %s", path, golden)
	return nil
}

// jobStatus is the slice of the job tier's status payload the smoke
// needs; unknown fields are ignored on purpose.
type jobStatus struct {
	State string `json:"state"`
	Error string `json:"error"`
}

// submit POSTs job id with the jobFlow request and requires the 202
// accepted envelope.
func submit(base, id string) error {
	b, err := fetch(base+"/v1/jobs", `{"id":"`+id+`","flow":`+jobFlow+`}`, http.StatusAccepted)
	if err != nil {
		return err
	}
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("submit %s: %w: %s", id, err, b)
	}
	return nil
}

// waitState polls job id until it reaches want, failing on any other
// terminal state.
func waitState(base, id, want string) error {
	deadline := time.Now().Add(jobDeadline)
	for {
		b, err := fetch(base+"/v1/jobs/"+id, "", http.StatusOK)
		if err != nil {
			return err
		}
		var st jobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			return fmt.Errorf("job %s status: %w: %s", id, err, b)
		}
		switch st.State {
		case want:
			return nil
		case "done", "failed", "canceled":
			return fmt.Errorf("job %s reached %q (%s) while waiting for %q", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %q after %s", id, st.State, jobDeadline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetchArtifacts(base, id string) (*artifacts, error) {
	def, err := fetch(base+"/v1/jobs/"+id+"/artifacts/def", "", http.StatusOK)
	if err != nil {
		return nil, err
	}
	report, err := fetch(base+"/v1/jobs/"+id+"/artifacts/report", "", http.StatusOK)
	if err != nil {
		return nil, err
	}
	return &artifacts{def: def, report: report}, nil
}

// fetch GETs url (empty body) or POSTs body, requiring status want; a
// POST's reply must be JSON.
func fetch(url, body string, want int) ([]byte, error) {
	var (
		resp *http.Response
		err  error
	)
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s: status %d, want %d: %s", url, resp.StatusCode, want, b)
	}
	if ct := resp.Header.Get("Content-Type"); body != "" && ct != "application/json" {
		return nil, fmt.Errorf("%s: Content-Type %q, want application/json", url, ct)
	}
	return b, nil
}

func expectBody(url, want string) error {
	b, err := fetch(url, "", http.StatusOK)
	if err != nil {
		return err
	}
	if !strings.Contains(string(b), want) {
		return fmt.Errorf("%s: response missing %q:\n%s", url, want, b)
	}
	return nil
}

// yieldUpdate is the wire shape of one /v1/yield stream element
// (serve.YieldUpdate).
type yieldUpdate struct {
	Samples          int               `json:"samples"`
	NominalCritPathS float64           `json:"nominal_crit_path_s"`
	NominalFmaxHz    float64           `json:"nominal_fmax_hz"`
	Curve            []vary.YieldPoint `json:"curve"`
	CritQuantiles    vary.Quantiles    `json:"crit_quantiles"`
	Done             bool              `json:"done"`
	Error            string            `json:"error"`
}

// checkYield enforces the /v1/yield stream invariants: samples/batch
// refinement elements with strictly increasing sample counts, then one
// done element repeating the total; in every element nominal timing, an
// ordered p5 ≤ p50 ≤ p95 band and a non-empty yield curve whose periods
// increase and whose yield never falls.
func checkYield(body []byte, samples, batch int) error {
	var updates []yieldUpdate
	if err := json.Unmarshal(body, &updates); err != nil {
		return fmt.Errorf("not a JSON array: %w", err)
	}
	if want := samples/batch + 1; len(updates) != want {
		return fmt.Errorf("got %d elements, want %d", len(updates), want)
	}
	prev := 0
	for i, u := range updates {
		if u.Error != "" {
			return fmt.Errorf("element %d carries an in-band error: %s", i, u.Error)
		}
		if u.Done != (i == len(updates)-1) {
			return fmt.Errorf("element %d: done flag misplaced", i)
		}
		if u.Done {
			if u.Samples != prev {
				return fmt.Errorf("done element samples %d != final refinement %d", u.Samples, prev)
			}
		} else {
			if u.Samples <= prev {
				return fmt.Errorf("element %d: samples %d not increasing past %d", i, u.Samples, prev)
			}
			prev = u.Samples
		}
		if u.NominalCritPathS <= 0 || u.NominalFmaxHz <= 0 {
			return fmt.Errorf("element %d: nominal timing missing", i)
		}
		q := u.CritQuantiles
		if !(q.P5 <= q.P50 && q.P50 <= q.P95) {
			return fmt.Errorf("element %d: quantile band out of order: %+v", i, q)
		}
		if len(u.Curve) == 0 {
			return fmt.Errorf("element %d: empty yield curve", i)
		}
		for j := 1; j < len(u.Curve); j++ {
			if u.Curve[j].PeriodS <= u.Curve[j-1].PeriodS {
				return fmt.Errorf("element %d: curve periods not increasing at %d", i, j)
			}
			if u.Curve[j].Yield < u.Curve[j-1].Yield {
				return fmt.Errorf("element %d: yield fell with a longer period at %d", i, j)
			}
		}
	}
	if final := updates[len(updates)-1]; final.Samples != samples {
		return fmt.Errorf("final samples %d, want %d", final.Samples, samples)
	}
	return nil
}

// server is one booted m3dserve process.
type server struct {
	base    string // "http://<addr>"
	cmd     *exec.Cmd
	stderr  bytes.Buffer
	exited  chan struct{} // closed once the process has been waited for
	waitErr error         // cmd.Wait's result, set before exited closes
}

// start boots bin on an ephemeral localhost port with the extra args
// and waits for its "listening on <addr>" banner. Past a successful
// start the server is live: defer reap so every early return stops it.
func start(bin string, args ...string) (*server, error) {
	s := &server{cmd: exec.Command(bin, append([]string{"-addr", "localhost:0"}, args...)...)}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	addr, err := listenAddr(stdout)
	if err != nil {
		s.cmd.Process.Kill()
		s.cmd.Wait()
		return nil, err
	}
	s.base = "http://" + addr
	s.exited = make(chan struct{})
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// reap kills the server if it has not exited yet and waits for it.
func (s *server) reap() {
	select {
	case <-s.exited:
	default:
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// stop sends SIGTERM and requires the server to exit cleanly within the
// drain deadline, confirming the drain in its log.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(drainDeadline):
		s.reap()
		return fmt.Errorf("server did not drain within %s\nstderr:\n%s", drainDeadline, s.stderr.Bytes())
	}
	if s.waitErr != nil {
		return fmt.Errorf("server exit after SIGTERM: %w\nstderr:\n%s", s.waitErr, s.stderr.Bytes())
	}
	if !strings.Contains(s.stderr.String(), "drained") {
		return fmt.Errorf("no drain confirmation in server log:\n%s", s.stderr.Bytes())
	}
	return nil
}

// listenAddr reads the server's "listening on <addr>" banner.
func listenAddr(stdout io.Reader) (string, error) {
	type line struct {
		text string
		err  error
	}
	ch := make(chan line, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			ch <- line{text: sc.Text()}
			// Keep draining so the server never blocks on a full pipe.
			for sc.Scan() {
			}
			return
		}
		ch <- line{err: fmt.Errorf("server stdout closed before banner: %v", sc.Err())}
	}()
	select {
	case l := <-ch:
		if l.err != nil {
			return "", l.err
		}
		addr, ok := strings.CutPrefix(l.text, "listening on ")
		if !ok {
			return "", fmt.Errorf("unexpected banner %q", l.text)
		}
		return addr, nil
	case <-time.After(startDeadline):
		return "", fmt.Errorf("server did not announce a listen address within %s", startDeadline)
	}
}
