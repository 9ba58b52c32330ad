// Command m3dbench is the repository's end-to-end benchmark. It runs the
// paper's Sec. II case study through the library, and three traffic mixes
// against a freshly built cmd/m3dserve, checks every output, and prints
// each metric by name with its unit and sample count. Run it from the
// repository root through m3dbench/run.sh, which builds it:
//
//	bash m3dbench/run.sh                         # all four workloads, tracing off
//	bash m3dbench/run.sh --trace 1               # per-layer ledger
//	bash m3dbench/run.sh --workload serve-hot --seed 3 --seconds 20 --trace 0
//	bash m3dbench/run.sh compare base.json change.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics BENCHMARK.json lists (end_to_end
// with --trace 0, per_layer with --trace 1). The exit status is 0 only
// when every check passed. See m3dbench/README.md for the workloads, the
// metrics and the layer each one watches.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// buildDir holds everything the benchmark builds or writes, relative to
// the repository root it runs from.
const buildDir = ".bench_build"

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is their median.
const setupRepeats = 3

// maxProblems caps the failure messages kept per run; the count keeps
// growing.
const maxProblems = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// workload is one input set: phase sets it up, measures it for dur and
// records its metrics into r, returning the measured operations per
// second. Traced phases record per-layer metrics from spans, untraced
// ones the end-to-end metrics and the layer metrics tracing would
// perturb (CPU, allocations, client latencies).
type workload struct {
	name  string
	phase func(e *env, r *result, dur time.Duration, traced bool, setups int) (float64, error)
}

var workloads = []workload{
	{"flow-casestudy", caseStudyPhase},
	{"serve-hot", serveHotPhase},
	{"yield-4096", yieldPhase},
	{"serve-mixed", serveMixedPhase},
}

// env is what a phase needs beyond its result.
type env struct {
	seed   int64
	tmp    string // scratch directory of this invocation
	server string // m3dserve binary, built on first use
}

// metric is one reported value with its unit and the number of samples
// behind it (0 for counts, ratios and single readings).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one workload run: what was attempted, what failed and why,
// and every metric measured.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	E2E       map[string]metric `json:"end_to_end"`
	Layers    map[string]metric `json:"per_layer,omitempty"`
	QoRDigest string            `json:"qor_digest"`
}

func (r *result) e2e(name string, v float64, unit string, n int) {
	r.E2E[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *result) layer(name string, v float64, unit string, n int) {
	r.Layers[name] = metric{Value: v, Unit: unit, N: n}
}

// fail counts one failed operation or check and keeps its reason.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// tail records the workload's named tail percentile p of the latencies
// (ms) under name. An untraced run fails when fewer than minBeyond
// samples lie above it; the half-length untraced phase of a traced run
// omits it instead.
func (r *result) tail(name string, lat []float64, p float64) {
	s := sorted(lat)
	if b := beyond(len(s), p); b < minBeyond {
		if !r.Trace {
			r.fail("%s of %s has %d samples beyond it, want ≥ %d", name, r.Workload, b, minBeyond)
		}
		return
	}
	r.e2e(name, percentile(s, p), "ms", len(s))
}

// host identifies the machine and build a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

func stampHost() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only a checkout that is itself a git repository names its commit;
	// git is never allowed to search parent directories.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			h.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return h
}

// sameMachine reports why results from a and b must not be compared.
func sameMachine(a, b host) error {
	switch {
	case a.CPU != b.CPU || a.NProc != b.NProc:
		return fmt.Errorf("hosts differ: %q ×%d vs %q ×%d", a.CPU, a.NProc, b.CPU, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("widths differ: GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	}
	return nil
}

// record is the file -out appends to: one host and the runs made on it.
type record struct {
	Host host     `json:"host"`
	Runs []result `json:"runs"`
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// appendRecord adds runs to the record at path, creating it, and refuses
// to mix machines in one file.
func appendRecord(path string, h host, runs []result) error {
	rec, err := readRecord(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		rec = &record{Host: h}
	case err != nil:
		return err
	default:
		if err := sameMachine(rec.Host, h); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	rec.Runs = append(rec.Runs, runs...)
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// spec is the part of BENCHMARK.json the harness reads: the metric names
// each mode must print, and the regression bounds compare applies.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// names lists the metrics the last line carries: end_to_end untraced,
// per_layer traced.
func (s *spec) names(traced bool) []string {
	var out []string
	if traced {
		for _, m := range s.PerLayer {
			out = append(out, m.Name)
		}
		return out
	}
	for _, m := range s.EndToEnd {
		out = append(out, m.Name)
	}
	return out
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]jsonVal `json:"metrics"`
}

type jsonVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout)
	}
	fs := flag.NewFlagSet("m3dbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: flow-casestudy, serve-hot, yield-4096 or serve-mixed (empty = all four)")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Int("seconds", 0, "measured seconds per workload (0 = BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 = per-layer run: half the time untraced, half traced")
	out := fs.String("out", "", "append the run records to this JSON file (for compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runBench(*name, *seed, *seconds, *trace, *out, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "m3dbench:", err)
		var fe failedErr
		if errors.As(err, &fe) {
			return 1
		}
		return 2
	}
	return 0
}

// failedErr reports a completed run whose checks failed.
type failedErr struct{ n int }

func (e failedErr) Error() string { return fmt.Sprintf("%d failed operation(s) or check(s)", e.n) }

func runBench(name string, seed int64, seconds, trace int, out string, stdout io.Writer) error {
	for _, v := range []string{"M3D_WORKERS", "M3D_CACHE_CAP"} {
		if _, set := os.LookupEnv(v); set {
			return fmt.Errorf("%s is set; the benchmark measures the default configuration only", v)
		}
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if seed < 0 {
		return fmt.Errorf("--seed %d: want ≥ 0", seed)
	}
	for _, p := range []string{"go.mod", "cmd/m3dserve", "BENCHMARK.json"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if seconds == 0 {
		seconds = sp.RunSeconds
	}
	if seconds < 2 {
		return fmt.Errorf("--seconds %d: want ≥ 2", seconds)
	}
	var selected []workload
	for _, w := range workloads {
		if name == "" || name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}

	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: seed, tmp: tmp}

	h := stampHost()
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s dirty=%t\n",
		h.NProc, h.GOMAXPROCS, h.CPU, h.GoVersion, h.Commit, h.Dirty)

	var runs []result
	sum := summary{Correct: true, Metrics: map[string]jsonVal{}}
	for _, w := range selected {
		r, err := runWorkload(w, e, time.Duration(seconds)*time.Second, trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		r.Seconds = seconds
		printResult(stdout, r)
		runs = append(runs, *r)

		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		names, got := sp.names(false), r.E2E
		if r.Trace {
			names, got = sp.names(true), r.Layers
		}
		for _, n := range names {
			m, ok := got[n]
			if !ok {
				return fmt.Errorf("%s: BENCHMARK.json lists %s, which this workload did not measure", w.name, n)
			}
			key := n
			if len(selected) > 1 {
				key = w.name + "/" + n
			}
			sum.Metrics[key] = jsonVal{Value: m.Value, Unit: m.Unit}
		}
	}
	sum.Correct = sum.Failed == 0
	if out != "" {
		if err := appendRecord(out, h, runs); err != nil {
			return err
		}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !sum.Correct {
		return failedErr{sum.Failed}
	}
	return nil
}

// runWorkload makes one run of w. Untraced, it sets up setupRepeats times
// and measures for dur. Traced, it measures dur/2 untraced and dur/2 with
// tracing on, so trace.overhead_frac compares like with like.
func runWorkload(w workload, e *env, dur time.Duration, traced bool) (*result, error) {
	r := &result{Workload: w.name, Seed: e.seed, Trace: traced, E2E: map[string]metric{}, Layers: map[string]metric{}}
	if !traced {
		if _, err := w.phase(e, r, dur, false, setupRepeats); err != nil {
			return nil, err
		}
	} else {
		plain, err := w.phase(e, r, dur/2, false, 1)
		if err != nil {
			return nil, err
		}
		withTrace, err := w.phase(e, r, dur/2, true, 1)
		if err != nil {
			return nil, err
		}
		r.layer("trace.overhead_frac", 1-withTrace/plain, "ratio", 0)
	}
	r.e2e("failed_frac", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio", r.Attempted)
	return r, nil
}

func printResult(w io.Writer, r *result) {
	mode := "off"
	if r.Trace {
		mode = "on"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  seconds=%d  trace=%s\n", r.Workload, r.Seed, r.Seconds, mode)
	table := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s\n", title)
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			fmt.Fprintf(w, "  %-34s %16.6g  %-6s n=%d\n", n, m.Value, m.Unit, m.N)
		}
	}
	if r.Trace {
		table("end to end (untraced half):", r.E2E)
	} else {
		table("end to end:", r.E2E)
	}
	table("per layer:", r.Layers)
	fmt.Fprintf(w, "qor_digest: %s\n", r.QoRDigest)
	fmt.Fprintf(w, "attempted %d  failed %d\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}
}
