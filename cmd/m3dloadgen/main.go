// Command m3dloadgen is a closed-loop load generator for cmd/m3dserve:
// N concurrent workers each hold one request in flight against one
// server for a fixed duration, and the run reports sustained throughput
// (2xx responses per second), the latency of the 2xx responses
// (p50/p90/p99/max) and an error budget.
// It is the source of the HTTP p50/p99 in EXPERIMENTS.md and of the
// committed baseline bench/LOADGEN_0.json: cached sweeps must sustain
// thousands of requests per second with a bounded p99 and zero hard
// errors.
//
// The request mix is seeded and deterministic (-mix, -distinct, -seed):
// "sweep" items cycle -distinct distinct cached sweep bodies (each
// evaluates once, then memoizes), "flow" items replay one small cached
// flow, "yield" items stream a 256-corner Monte-Carlo timing-yield run
// over the same cached design (the steady-state cost is the
// corner-batched STA kernel), "health" items probe GET /healthz.
// Responses are classified as ok (2xx), shed (429 — backpressure,
// allowed), or errors: transport failures and every other status, a 503
// from a draining server included.
//
//	m3dloadgen -target http://localhost:8080 -c 64 -duration 30s \
//	    -minrps 1000 -deadline 250ms -errbudget 0
//
// Exit status is 0 only when every enabled gate holds: -minrps
// (sustained throughput: a shed request is an attempt, not throughput),
// -deadline (at most 1% of all requests shed, failed or slower than the
// deadline: a refused request misses any latency limit), -errbudget
// (fraction of hard errors over all requests). -json writes the
// machine-readable summary, stamped with the host it ran on, that
// scripts diff against a checked-in baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("m3dloadgen: ")
	target := flag.String("target", "http://localhost:8080", "server base URL")
	conc := flag.Int("c", 32, "concurrent closed-loop workers")
	duration := flag.Duration("duration", 10*time.Second, "measured run length")
	warmup := flag.Bool("warmup", true, "prime every distinct request once before the clock starts")
	mix := flag.String("mix", "sweep=1", "weighted request mix, e.g. sweep=9,flow=1,health=1")
	distinct := flag.Int("distinct", 4, "distinct sweep bodies cycled by the mix, ≥ 1 (each caches after one evaluation)")
	seed := flag.Int64("seed", 1, "seed for the per-worker request pick")
	minRPS := flag.Float64("minrps", 0, "fail the run under this sustained 2xx responses/sec (0 = no gate)")
	deadline := flag.Duration("deadline", 0, "fail the run when over 1% of requests are shed, fail or take longer than this (0 = no gate)")
	errBudget := flag.Float64("errbudget", 0, "allowed fraction of hard errors over all requests")
	jsonOut := flag.String("json", "", "write the machine-readable summary to this file")
	flag.Parse()

	base := strings.TrimRight(strings.TrimSpace(*target), "/")
	if base == "" {
		log.Fatal("-target is empty")
	}
	if *conc < 1 {
		log.Fatal("-c must be ≥ 1")
	}
	reqs, err := buildMix(*mix, *distinct)
	if err != nil {
		log.Fatal(err)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	if *warmup {
		if err := prime(client, base, reqs); err != nil {
			log.Fatalf("warmup: %v", err)
		}
	}

	res := run(client, base, reqs, *conc, *duration, *seed)
	res.print(os.Stdout)
	if *jsonOut != "" {
		b, _ := json.MarshalIndent(res, "", "  ")
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	failures := res.gates(*minRPS, *deadline, *errBudget)
	for _, f := range failures {
		log.Printf("FAIL: %s", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// maxMissFrac is the share of requests the -deadline gate lets miss the
// deadline: it bounds the p99 over every request, refused ones counted
// as too slow.
const maxMissFrac = 0.01

// gates checks the run against the enabled gates (-minrps, -deadline,
// -errbudget; zero disables the first two) and returns one message per
// gate that failed.
func (r *result) gates(minRPS float64, deadline time.Duration, errBudget float64) []string {
	var failures []string
	if minRPS > 0 && r.RPS < minRPS {
		failures = append(failures, fmt.Sprintf("%.0f ok req/s under the -minrps gate %.0f", r.RPS, minRPS))
	}
	if deadline > 0 && r.Requests > 0 {
		// Shed and failed requests miss the deadline whatever their
		// latency; the ok ones miss it when slower.
		lim := deadline.Seconds()
		inTime := int64(sort.Search(len(r.okLatencies), func(i int) bool { return r.okLatencies[i] > lim }))
		if miss := r.Requests - inTime; float64(miss) > maxMissFrac*float64(r.Requests) {
			failures = append(failures, fmt.Sprintf("%d of %d requests shed, failed or slower than the -deadline gate %s (over %.0f%%)",
				miss, r.Requests, deadline, maxMissFrac*100))
		}
	}
	if r.Requests > 0 && float64(r.Errors) > errBudget*float64(r.Requests) {
		failures = append(failures, fmt.Sprintf("%d hard error(s) over the -errbudget gate %.3f (%d requests)",
			r.Errors, errBudget, r.Requests))
	}
	return failures
}

// workItem is one entry of the request mix.
type workItem struct {
	name   string
	method string
	path   string
	body   string
	weight int
}

// buildMix parses "kind=weight,..." into the cycled request set.
func buildMix(mix string, distinct int) ([]workItem, error) {
	if distinct < 1 {
		return nil, fmt.Errorf("-distinct %d must be ≥ 1", distinct)
	}
	var items []workItem
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, ok := strings.Cut(part, "=")
		weight := 1
		if ok {
			if _, err := fmt.Sscanf(weightStr, "%d", &weight); err != nil || weight < 1 {
				return nil, fmt.Errorf("mix entry %q: bad weight", part)
			}
		}
		switch name {
		case "sweep":
			// Distinct bodies: bodies 0-3 sweep the four truncations of the
			// default Fig. 8 axes on both axes; body i ≥ 4 adds bandwidth
			// scale 16+i/4 to body i%4. Each is a separate cache key that
			// memoizes after one evaluation.
			for i := 0; i < distinct; i++ {
				axis := strings.Join([]string{"1", "2", "4", "8", "16"}[:2+i%4], ",")
				scales := axis
				if i >= 4 {
					scales += "," + strconv.Itoa(16+i/4)
				}
				body := fmt.Sprintf(`{"kind":"bandwidth_cs","cs_counts":[%s],"bw_scales":[%s]}`, axis, scales)
				items = append(items, workItem{
					name: "sweep", method: http.MethodPost, path: "/v1/sweep",
					body: body, weight: weight,
				})
			}
		case "flow":
			items = append(items, workItem{
				name: "flow", method: http.MethodPost, path: "/v1/flow",
				body:   `{"style":"2D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536}`,
				weight: weight,
			})
		case "yield":
			// Monte-Carlo timing yield on the same small cached design:
			// the flow build memoizes after one evaluation, so the steady
			// state measures the corner-batched STA kernel plus streaming.
			items = append(items, workItem{
				name: "yield", method: http.MethodPost, path: "/v1/yield",
				body:   `{"flow":{"style":"2D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536},"samples":256,"batch":128,"seed":7}`,
				weight: weight,
			})
		case "health":
			items = append(items, workItem{
				name: "health", method: http.MethodGet, path: "/healthz", weight: weight,
			})
		default:
			return nil, fmt.Errorf("mix entry %q: unknown kind (want sweep, flow, yield or health)", part)
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("mix %q selects nothing", mix)
	}
	return items, nil
}

// pickTable expands the weighted items into a flat lookup.
func pickTable(items []workItem) []int {
	var table []int
	for i, it := range items {
		for n := 0; n < it.weight; n++ {
			table = append(table, i)
		}
	}
	return table
}

// prime sends every distinct request once so the measured run starts
// cache-hot.
func prime(client *http.Client, base string, items []workItem) error {
	for _, it := range items {
		if _, err := attempt(client, base, it); err != nil {
			return err
		}
	}
	return nil
}

// host is the machine a run measured, in bench/BENCH_0.json's form:
// numbers taken on different hosts do not compare.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func stampHost() host {
	// A host without /proc/cpuinfo stamps its CPU as "unknown".
	cpuinfo, _ := os.ReadFile("/proc/cpuinfo")
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(string(cpuinfo)),
		Go:         runtime.Version(),
	}
}

// cpuModel returns the first "model name" of a /proc/cpuinfo text, or
// "unknown" when it has none.
func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// result is the run summary (-json writes it verbatim). Requests counts
// every attempt; RPS counts only the ok (2xx) responses per second.
type result struct {
	Host     host    `json:"host"`
	Workers  int     `json:"workers"`
	Seconds  float64 `json:"seconds"`
	Requests int64   `json:"requests"`
	OK       int64   `json:"ok"`
	Shed     int64   `json:"shed"`
	Errors   int64   `json:"errors"`
	RPS      float64 `json:"rps"`
	// P50Ms, P90Ms, P99Ms and MaxMs are taken over the ok (2xx)
	// responses only; the -deadline gate also counts the refused ones.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	// okLatencies holds every ok response's latency in seconds, sorted.
	okLatencies []float64
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workers %d  %.1fs\n", r.Workers, r.Seconds)
	fmt.Fprintf(w, "requests %d  ok %d  shed %d  errors %d\n", r.Requests, r.OK, r.Shed, r.Errors)
	fmt.Fprintf(w, "throughput %.0f ok req/s\n", r.RPS)
	fmt.Fprintf(w, "ok latency p50 %.2f ms  p90 %.2f ms  p99 %.2f ms  max %.2f ms\n",
		r.P50Ms, r.P90Ms, r.P99Ms, r.MaxMs)
}

// run drives the closed loop: conc workers, each sending one request at
// a time until the clock runs out.
func run(client *http.Client, base string, items []workItem, conc int, duration time.Duration, seed int64) *result {
	table := pickTable(items)
	var (
		stop     atomic.Bool
		requests atomic.Int64
		okCount  atomic.Int64
		shed     atomic.Int64
		errCount atomic.Int64
	)
	latencies := make([][]float64, conc)
	var wg sync.WaitGroup
	start := time.Now()
	time.AfterFunc(duration, func() { stop.Store(true) })
	for w := 0; w < conc; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for !stop.Load() {
				it := items[table[rng.Intn(len(table))]]
				t0 := time.Now()
				outcome, err := attempt(client, base, it)
				lat := time.Since(t0)
				requests.Add(1)
				switch {
				case err != nil:
					errCount.Add(1)
				case outcome == outcomeShed:
					shed.Add(1)
				default:
					okCount.Add(1)
					latencies[w] = append(latencies[w], lat.Seconds())
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var all []float64
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Float64s(all)
	pct := func(q float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return all[int(q*float64(len(all)-1))] * 1e3
	}
	res := &result{
		Host:        stampHost(),
		Workers:     conc,
		Seconds:     elapsed,
		Requests:    requests.Load(),
		OK:          okCount.Load(),
		Shed:        shed.Load(),
		Errors:      errCount.Load(),
		P50Ms:       pct(0.50),
		P90Ms:       pct(0.90),
		P99Ms:       pct(0.99),
		okLatencies: all,
	}
	if len(all) > 0 {
		res.MaxMs = all[len(all)-1] * 1e3
	}
	if elapsed > 0 {
		res.RPS = float64(res.OK) / elapsed
	}
	return res
}

const (
	outcomeOK = iota
	outcomeShed
)

// attempt sends one request, drains the response and classifies it:
// 2xx is ok, 429 is backpressure (shed), and anything else — a transport
// failure, or any other status, a 503 from a draining server included —
// is a hard error.
func attempt(client *http.Client, base string, it workItem) (int, error) {
	var body io.Reader
	if it.body != "" {
		body = strings.NewReader(it.body)
	}
	req, err := http.NewRequest(it.method, base+it.path, body)
	if err != nil {
		return 0, err
	}
	if it.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		// A body cut mid-transfer (e.g. the server restarting) is a
		// transport failure, not a served response.
		return 0, err
	}
	switch status := resp.StatusCode; {
	case status == http.StatusTooManyRequests:
		return outcomeShed, nil
	case status >= 200 && status < 300:
		return outcomeOK, nil
	default:
		return 0, fmt.Errorf("%s%s: status %d", base, it.path, status)
	}
}
