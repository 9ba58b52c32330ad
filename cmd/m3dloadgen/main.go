// Command m3dloadgen is a closed-loop load generator for cmd/m3dserve:
// N concurrent workers each hold one request in flight against the
// target server for a fixed duration, and the run reports sustained
// throughput, a latency histogram (p50/p90/p99/max) and an error budget.
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
// allowed), or errors. -targets may list several independent servers:
// transport failures and 503s (a draining or restarting server) fail
// over to the next one and only count as errors once every target has
// refused.
//
//	m3dloadgen -targets http://localhost:8080 -c 64 -duration 30s \
//	    -minrps 1000 -deadline 250ms -errbudget 0
//
// Exit status is 0 only when every enabled gate holds: -minrps
// (sustained throughput), -deadline (p99 latency), -errbudget (fraction
// of hard errors over all requests). -json writes the machine-readable
// summary, stamped with the host it ran on, that scripts diff against a
// checked-in baseline.
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
	targets := flag.String("targets", "http://localhost:8080", "comma-separated server base URLs; a refused request fails over to the next")
	conc := flag.Int("c", 32, "concurrent closed-loop workers")
	duration := flag.Duration("duration", 10*time.Second, "measured run length")
	warmup := flag.Bool("warmup", true, "prime every distinct request once before the clock starts")
	mix := flag.String("mix", "sweep=1", "weighted request mix, e.g. sweep=9,flow=1,health=1")
	distinct := flag.Int("distinct", 4, "distinct sweep bodies cycled by the mix, ≥ 1 (each caches after one evaluation)")
	seed := flag.Int64("seed", 1, "seed for the per-worker request pick")
	minRPS := flag.Float64("minrps", 0, "fail the run under this sustained requests/sec (0 = no gate)")
	deadline := flag.Duration("deadline", 0, "fail the run when p99 latency exceeds this (0 = no gate)")
	errBudget := flag.Float64("errbudget", 0, "allowed fraction of hard errors over all requests")
	jsonOut := flag.String("json", "", "write the machine-readable summary to this file")
	flag.Parse()

	var bases []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(strings.TrimRight(t, "/")); t != "" {
			bases = append(bases, t)
		}
	}
	if len(bases) == 0 {
		log.Fatal("-targets is empty")
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
		if err := prime(client, bases, reqs); err != nil {
			log.Fatalf("warmup: %v", err)
		}
	}

	res := run(client, bases, reqs, *conc, *duration, *seed)
	res.print(os.Stdout)
	if *jsonOut != "" {
		b, _ := json.MarshalIndent(res, "", "  ")
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	failed := false
	if *minRPS > 0 && res.RPS < *minRPS {
		log.Printf("FAIL: %.0f req/s under the -minrps gate %.0f", res.RPS, *minRPS)
		failed = true
	}
	if *deadline > 0 && res.P99Ms > float64(*deadline)/1e6 {
		log.Printf("FAIL: p99 %.2f ms over the -deadline gate %s", res.P99Ms, *deadline)
		failed = true
	}
	if res.Requests > 0 && float64(res.Errors) > *errBudget*float64(res.Requests) {
		log.Printf("FAIL: %d hard error(s) over the -errbudget gate %.3f (%d requests)",
			res.Errors, *errBudget, res.Requests)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
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

// prime sends every distinct request once to the first reachable target
// so the measured run starts cache-hot.
func prime(client *http.Client, bases []string, items []workItem) error {
	for _, it := range items {
		if _, _, err := attemptAll(client, bases, 0, it); err != nil {
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

// result is the run summary (-json writes it verbatim).
type result struct {
	Host      host    `json:"host"`
	Targets   int     `json:"targets"`
	Workers   int     `json:"workers"`
	Seconds   float64 `json:"seconds"`
	Requests  int64   `json:"requests"`
	OK        int64   `json:"ok"`
	Shed      int64   `json:"shed"`
	Failovers int64   `json:"failovers"`
	Errors    int64   `json:"errors"`
	RPS       float64 `json:"rps"`
	P50Ms     float64 `json:"p50_ms"`
	P90Ms     float64 `json:"p90_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MaxMs     float64 `json:"max_ms"`
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "targets %d  workers %d  %.1fs\n", r.Targets, r.Workers, r.Seconds)
	fmt.Fprintf(w, "requests %d  ok %d  shed %d  failovers %d  errors %d\n",
		r.Requests, r.OK, r.Shed, r.Failovers, r.Errors)
	fmt.Fprintf(w, "throughput %.0f req/s\n", r.RPS)
	fmt.Fprintf(w, "latency p50 %.2f ms  p90 %.2f ms  p99 %.2f ms  max %.2f ms\n",
		r.P50Ms, r.P90Ms, r.P99Ms, r.MaxMs)
}

// run drives the closed loop: conc workers, each sending one request at
// a time until the clock runs out.
func run(client *http.Client, bases []string, items []workItem, conc int, duration time.Duration, seed int64) *result {
	table := pickTable(items)
	var (
		stop      atomic.Bool
		requests  atomic.Int64
		okCount   atomic.Int64
		shed      atomic.Int64
		failovers atomic.Int64
		errCount  atomic.Int64
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
				// Workers start on different targets so the load spreads even
				// when the mix is a single cached key.
				outcome, retried, err := attemptAll(client, bases, (w+int(requests.Load()))%len(bases), it)
				lat := time.Since(t0)
				requests.Add(1)
				failovers.Add(int64(retried))
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
		Host:      stampHost(),
		Targets:   len(bases),
		Workers:   conc,
		Seconds:   elapsed,
		Requests:  requests.Load(),
		OK:        okCount.Load(),
		Shed:      shed.Load(),
		Failovers: failovers.Load(),
		Errors:    errCount.Load(),
		P50Ms:     pct(0.50),
		P90Ms:     pct(0.90),
		P99Ms:     pct(0.99),
	}
	if len(all) > 0 {
		res.MaxMs = all[len(all)-1] * 1e3
	}
	if elapsed > 0 {
		res.RPS = float64(requests.Load()) / elapsed
	}
	return res
}

const (
	outcomeOK = iota
	outcomeShed
)

// attemptAll sends one logical request, failing over across the targets:
// transport errors and 503s (a draining or restarting server) rotate to
// the next target; 429 is backpressure and final; any other non-2xx is a
// hard error. It returns the outcome, how many failovers happened, and
// the hard error once every target refused.
func attemptAll(client *http.Client, bases []string, first int, it workItem) (int, int, error) {
	failovers := 0
	var lastErr error
	for i := 0; i < len(bases); i++ {
		base := bases[(first+i)%len(bases)]
		status, err := attempt(client, base, it)
		switch {
		case err != nil || status == http.StatusServiceUnavailable:
			lastErr = err
			if lastErr == nil {
				lastErr = fmt.Errorf("%s%s: status 503", base, it.path)
			}
			failovers++
			continue
		case status == http.StatusTooManyRequests:
			return outcomeShed, failovers, nil
		case status >= 200 && status < 300:
			return outcomeOK, failovers, nil
		default:
			return 0, failovers, fmt.Errorf("%s%s: status %d", base, it.path, status)
		}
	}
	return 0, failovers, fmt.Errorf("all %d target(s) unavailable: %v", len(bases), lastErr)
}

// attempt sends one request to one target and drains the response.
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
	return resp.StatusCode, nil
}
