package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// request is one HTTP call of a mix. want is what every later reply must
// reproduce byte for byte: the set-up reply for cached requests, the
// final element of the first reply for yield runs.
type request struct {
	class string
	path  string // GET when body is nil, POST otherwise
	body  []byte
	want  []byte
}

// do sends q and reads the whole reply, returning the time to the
// response headers and to the last byte.
func (q *request) do(c *http.Client, base string) (reply []byte, ttfb, total time.Duration, err error) {
	t0 := time.Now()
	var resp *http.Response
	if q.body == nil {
		resp, err = c.Get(base + q.path)
	} else {
		resp, err = c.Post(base+q.path, "application/json", bytes.NewReader(q.body))
	}
	if err != nil {
		return nil, 0, 0, err
	}
	ttfb = time.Since(t0)
	reply, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	total = time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", resp.StatusCode, reply)
	}
	return reply, ttfb, total, err
}

// newConn returns a client holding at most one connection, with no
// proxy and no compression, so each load connection is one socket.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

func sweepBody(seed int64, i int) []byte {
	axis := []int{1, 2, 4, 8, 16}[:2+i]
	scale := 1 + float64((seed+int64(i))%5)/4
	cs, bw := make([]string, len(axis)), make([]string, len(axis))
	for k, a := range axis {
		cs[k] = strconv.Itoa(a)
		bw[k] = strconv.FormatFloat(float64(a)*scale, 'g', -1, 64)
	}
	return []byte(fmt.Sprintf(`{"kind":"bandwidth_cs","cs_counts":[%s],"bw_scales":[%s]}`,
		strings.Join(cs, ","), strings.Join(bw, ",")))
}

// fixtureSeed seeds the design the cached service requests name. It is
// fixed so that set-up, which builds that design, costs the same for
// every workload seed; the workload seed varies the sweep bodies, the
// request order, the corner seeds and the cold flows instead.
const fixtureSeed = 1

// flowBody is the reduced 2D flow the service workloads post: a 2×2
// array, 1 MB of RRAM and 64 Kbit of SRAM.
func flowBody(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"style":"2D","num_cs":1,"array_rows":2,"array_cols":2,"rram_cap_mb":1,"banks":1,"global_sram_bits":65536,"seed":%d}`, seed))
}

// hotMix is the cached mix: four distinct sweep bodies (weight 1 each),
// the flow (2), a batch of two sweeps and the flow (1), and healthz (1).
// It returns the distinct requests and the weighted pick table.
func hotMix(seed int64) ([]*request, []int) {
	var reqs []*request
	var table []int
	add := func(q *request, weight int) {
		for i := 0; i < weight; i++ {
			table = append(table, len(reqs))
		}
		reqs = append(reqs, q)
	}
	for i := 0; i < 4; i++ {
		add(&request{class: "sweep", path: "/v1/sweep", body: sweepBody(seed, i)}, 1)
	}
	add(&request{class: "flow", path: "/v1/flow", body: flowBody(fixtureSeed)}, 2)
	batch := fmt.Sprintf(`[{"sweep":%s},{"sweep":%s},{"flow":%s}]`, sweepBody(seed, 0), sweepBody(seed, 1), flowBody(fixtureSeed))
	add(&request{class: "batch", path: "/v1/batch", body: []byte(batch)}, 1)
	add(&request{class: "healthz", path: "/healthz"}, 1)
	return reqs, table
}

var hotClasses = []string{"sweep", "flow", "batch", "healthz"}

// prime sends every distinct request once, in order. The first set-up
// records each reply as the one every later reply must equal; later
// set-ups are checked against it.
func prime(s *server, reqs []*request, r *result) error {
	c := newConn()
	for _, q := range reqs {
		body, _, _, err := q.do(c, s.base)
		if err != nil {
			return fmt.Errorf("set-up %s %s: %w", q.class, q.path, err)
		}
		if q.want == nil {
			q.want = body
		} else if !bytes.Equal(body, q.want) {
			r.fail("set-up reply of %s %s differs between fresh servers", q.class, q.path)
		}
	}
	return nil
}

// picker draws a connection's requests from a weighted table with its
// own seeded stream, so a seed fixes every connection's sequence.
type picker struct {
	rng   *rand.Rand
	table []int
}

func newPicker(seed int64, conn int, table []int) *picker {
	return &picker{rand.New(rand.NewSource(seed*7919 + int64(conn))), table}
}

func (p *picker) pick() int { return p.table[p.rng.Intn(len(p.table))] }

// sample is one completed request.
type sample struct {
	class       string
	ttfb, total float64 // ms
}

// conn is one closed-loop connection: it sends the next request only
// after the previous reply has been read, the way this service's callers
// (m3ddse, m3dflow, scripts) use it.
type conn struct {
	client    *http.Client
	samples   []sample
	attempted int
	failed    int
	problems  []string
}

// loop drives the connection until the deadline. next picks the i-th
// request; check validates a reply (nil = byte-compare with want).
func (c *conn) loop(base string, deadline time.Time, next func(i int) *request, check func(q *request, body []byte) error) {
	for i := 0; time.Now().Before(deadline); i++ {
		q := next(i)
		body, ttfb, total, err := q.do(c.client, base)
		c.attempted++
		if err == nil {
			if check != nil {
				err = check(q, body)
			} else if !bytes.Equal(body, q.want) {
				err = fmt.Errorf("reply differs from its set-up reply")
			}
		}
		if err != nil {
			c.failed++
			if len(c.problems) < maxProblems {
				c.problems = append(c.problems, fmt.Sprintf("%s %s: %v", q.class, q.path, err))
			}
			continue
		}
		c.samples = append(c.samples, sample{q.class, float64(ttfb) / 1e6, float64(total) / 1e6})
	}
}

// drive runs each connection's loop concurrently, waits for all of them
// and merges their counts into r. It returns the wall time taken.
func drive(r *result, conns []*conn, loops []func(c *conn)) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(c *conn, loop func(*conn)) {
			defer wg.Done()
			loop(c)
		}(c, loops[i])
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	for _, c := range conns {
		r.Attempted += c.attempted
		r.Failed += c.failed
		for _, p := range c.problems {
			if len(r.Problems) < maxProblems {
				r.Problems = append(r.Problems, p)
			}
		}
	}
	return elapsed
}

// latencies selects the total latencies (ms) of the samples whose class
// is in classes (all when none are given).
func latencies(ss []sample, classes ...string) []float64 {
	var out []float64
	for _, s := range ss {
		if len(classes) == 0 || contains(classes, s.class) {
			out = append(out, s.total)
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}
