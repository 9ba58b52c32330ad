package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"
)

// hotConns is the number of connections serve-hot drives: one process,
// at most nproc connections, so the generator never needs more cores
// than the host has.
func hotConns() int { return min(2, runtime.NumCPU()) }

// window is what the harness reads around a measured window: the
// server's metrics and both processes' CPU time.
type window struct {
	m                    metricsText
	serverCPU, clientCPU float64
}

func readWindow(s *server) (window, error) {
	m, err := s.scrape()
	if err != nil {
		return window{}, err
	}
	sc, err := procCPU(s.pid)
	if err != nil {
		return window{}, err
	}
	cc, err := procCPU("self")
	if err != nil {
		return window{}, err
	}
	return window{m, sc, cc}, nil
}

// measured is the outcome of one service workload's window: the
// operations ops_per_s and p50_ms count, and the classes the client.*
// and net.overhead_us layers break them down into.
type measured struct {
	ops     []sample
	elapsed float64
	classes []string
}

// finish reads the window after a measured phase, drains the server, and
// records what every service workload reports. Untraced: setup_s,
// ops_per_s, p50_ms and peak_rss_mb, the layers read from outside the
// server, and whatever extra adds. Traced: the layers folded from the
// server's spans. It returns the measured operations per second.
func finish(r *result, s *server, before window, m measured, setupS []float64, traced bool, extra func(after window)) (float64, error) {
	ops := float64(len(m.ops)) / m.elapsed
	after, err := readWindow(s)
	if err != nil {
		return 0, err
	}
	rss, err := peakRSS(s.pid)
	if err != nil {
		return 0, err
	}
	if err := s.stop(); err != nil {
		return 0, err
	}
	if traced {
		f, err := s.spans()
		if err != nil {
			return 0, err
		}
		spanLayers(r, f, m.ops, m.classes...)
		return ops, nil
	}
	lat := latencies(m.ops)
	r.e2e("setup_s", median(setupS), "s", len(setupS))
	r.e2e("ops_per_s", ops, "1/s", len(m.ops))
	r.e2e("p50_ms", median(lat), "ms", len(lat))
	r.e2e("peak_rss_mb", rss, "MB", 0)
	serverLayers(r, before, after, len(m.ops))
	classLayers(r, m.ops, m.classes...)
	extra(after)
	return ops, nil
}

// serverLayers adds the layer metrics read from outside the server over
// one untraced window of ops operations: process CPU per operation, cache
// and pool counters from /metrics deltas, and route/STA work per flow
// run over the server's life (its flows ran in set-up or as cold work).
func serverLayers(r *result, before, after window, ops int) {
	n := float64(max(ops, 1))
	r.layer("proc.cpu_ms_per_op", (after.serverCPU-before.serverCPU)*1e3/n, "ms", ops)
	r.layer("client.cpu_ms_per_op", (after.clientCPU-before.clientCPU)*1e3/n, "ms", ops)
	d := func(name string) float64 { return after.m.delta(before.m, name) }
	hits, misses := d("serve.memo.hits"), d("serve.memo.misses")
	r.layer("serve.memo_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	dh, dm := d("serve.design.hits"), d("serve.design.misses")
	r.layer("serve.design_hit_ratio", ratio(dh, dh+dm), "ratio", int(dh+dm))
	for _, c := range [][2]string{
		{"serve.sweep_evals", "serve.sweep.evals"},
		{"serve.flow_evals", "serve.flow.evals"},
		{"serve.shed", "serve.shed"},
		{"serve.request_errors", "serve.request.errors"},
		{"cache.evictions", "cache.evictions"},
		{"exec.tasks", "exec.tasks"},
	} {
		r.layer(c[0], d(c[1]), "count", 0)
	}
	r.layer("exec.pool_width", after.m["exec.pool.width"], "count", 0)
	flowCounters(r, func(name string) float64 { return after.m[name] }, after.m["flow.stage.seconds.route.count"])
}

// classLayers adds each request class's client-side p50 and, where the
// sample supports it, p99 in µs.
func classLayers(r *result, ss []sample, classes ...string) {
	for _, c := range classes {
		lat := sorted(latencies(ss, c))
		if len(lat) == 0 {
			continue
		}
		r.layer("client."+c+".p50_us", percentile(lat, 0.5)*1e3, "us", len(lat))
		if beyond(len(lat), 0.99) >= minBeyond {
			r.layer("client."+c+".p99_us", percentile(lat, 0.99)*1e3, "us", len(lat))
		}
	}
}

// spanLayers adds what the drained server's trace says about the
// request path: flow stages, each route's self time, and the part of
// the client's latency spent outside the server's request span.
func spanLayers(r *result, f *fold, ss []sample, classes ...string) {
	flowLayers(r, f)
	var server []float64
	for _, c := range classes {
		self := f.self("serve." + c)
		if len(self) > 0 {
			r.layer("serve."+c+".self_us", median(self), "us", len(self))
		}
		server = append(server, f.durations("serve."+c)...)
	}
	client := latencies(ss, classes...)
	r.layer("net.overhead_us", median(client)*1e3-median(server), "us", len(client))

	// Yield requests: the pool time their corner slabs kept busy (summed,
	// not unioned, so two workers busy for 1 ms count 2 ms) and how many
	// slab tasks each request ran.
	var busy, tasks []float64
	for _, p := range f.byName["serve.yield"] {
		var b int64
		n := 0
		for _, c := range f.children(p) {
			if c.name == "vary.sample" {
				b += c.dur()
				n++
			}
		}
		if n > 0 {
			busy, tasks = append(busy, float64(b)/1e3), append(tasks, float64(n))
		}
	}
	if len(busy) > 0 {
		r.layer("vary.sample_busy_ms", median(busy), "ms", len(busy))
		r.layer("vary.tasks_per_run", median(tasks), "count", len(tasks))
	}
}

// digestReplies fingerprints the set-up replies, which carry the
// simulated statistics (flow QoR, sweep EDP benefits) of the mix.
func digestReplies(reqs []*request) string {
	var b strings.Builder
	for _, q := range reqs {
		b.Write(q.want)
		b.WriteByte('\n')
	}
	return digest(b.String())
}

// serveHotPhase is the serve-hot workload: the cached mix over hotConns
// closed-loop connections. Every request is a memo hit, so the serve
// path (decode, admission, coalescing, encoding) is the whole cost.
func serveHotPhase(e *env, r *result, dur time.Duration, traced bool, setups int) (float64, error) {
	reqs, table := hotMix(e.seed)
	s, setupS, err := setUp(e, traced, setups, func(s *server) error { return prime(s, reqs, r) })
	if err != nil {
		return 0, err
	}
	defer s.stop()
	r.QoRDigest = digestReplies(reqs)

	before, err := readWindow(s)
	if err != nil {
		return 0, err
	}
	conns := make([]*conn, hotConns())
	loops := make([]func(*conn), len(conns))
	deadline := time.Now().Add(dur)
	for i := range conns {
		conns[i] = &conn{client: newConn()}
		p := newPicker(e.seed, i, table)
		loops[i] = func(c *conn) {
			c.loop(s.base, deadline, func(int) *request { return reqs[p.pick()] }, nil)
		}
	}
	elapsed := drive(r, conns, loops)
	var ss []sample
	for _, c := range conns {
		ss = append(ss, c.samples...)
	}
	return finish(r, s, before, measured{ss, elapsed, hotClasses}, setupS, traced, func(after window) {
		r.tail("p99_ms", latencies(ss), 0.99)
		if m := after.m.delta(before.m, "serve.memo.misses"); m != 0 {
			r.fail("serve-hot saw %g memo misses, want every request a hit", m)
		}
	})
}

// yieldSamples, yieldBatch and yieldSeeds shape the yield-4096 runs:
// 4096 corners streamed in four refinements, sixteen corner seeds.
const (
	yieldSamples = 4096
	yieldBatch   = 1024
	yieldSeeds   = 16
)

func yieldRequest(corners int64) *request {
	return &request{class: "yield", path: "/v1/yield", body: []byte(fmt.Sprintf(
		`{"flow":%s,"samples":%d,"batch":%d,"seed":%d}`, flowBody(fixtureSeed), yieldSamples, yieldBatch, corners))}
}

// checkYield validates one streamed yield reply — samples strictly
// increase, exactly the last element is done and covers every corner,
// no element carries an error — and returns the final element.
func checkYield(body []byte) ([]byte, error) {
	var elems []json.RawMessage
	if err := json.Unmarshal(body, &elems); err != nil {
		return nil, fmt.Errorf("yield reply is not a JSON array: %w", err)
	}
	if len(elems) == 0 {
		return nil, fmt.Errorf("yield reply is empty")
	}
	prev := 0
	for i, raw := range elems {
		var u struct {
			Samples int    `json:"samples"`
			Done    bool   `json:"done"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(raw, &u); err != nil {
			return nil, fmt.Errorf("yield element %d: %w", i, err)
		}
		last := i == len(elems)-1
		switch {
		case u.Error != "":
			return nil, fmt.Errorf("yield element %d: in-band error %q", i, u.Error)
		case u.Done != last:
			return nil, fmt.Errorf("yield element %d of %d has done=%t", i, len(elems), u.Done)
		case !last && u.Samples <= prev:
			return nil, fmt.Errorf("yield element %d: samples %d after %d", i, u.Samples, prev)
		case last && u.Samples != yieldSamples:
			return nil, fmt.Errorf("yield final element has %d samples, want %d", u.Samples, yieldSamples)
		}
		prev = u.Samples
	}
	return elems[len(elems)-1], nil
}

// yieldPhase is the yield-4096 workload: one connection posting 4096-
// corner Monte-Carlo yield runs on the cached design, cycling sixteen
// corner seeds. After set-up no flow runs: the cost is corner sampling,
// the corner-batched STA kernel and streaming.
func yieldPhase(e *env, r *result, dur time.Duration, traced bool, setups int) (float64, error) {
	reqs := make([]*request, yieldSeeds)
	for k := range reqs {
		reqs[k] = yieldRequest(e.seed + int64(k))
	}
	// A request's want is the final element of its first reply: every
	// later run of that corner seed must end on the same one.
	check := func(q *request, body []byte) error {
		final, err := checkYield(body)
		if err != nil {
			return err
		}
		if q.want != nil && !bytes.Equal(q.want, final) {
			return fmt.Errorf("final element differs from an earlier run of the same corner seed")
		}
		q.want = final
		return nil
	}
	s, setupS, err := setUp(e, traced, setups, func(s *server) error {
		body, _, _, err := reqs[0].do(newConn(), s.base)
		if err == nil {
			err = check(reqs[0], body)
		}
		if err != nil {
			return fmt.Errorf("set-up yield: %w", err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	defer s.stop()
	r.QoRDigest = digest(string(reqs[0].want))

	before, err := readWindow(s)
	if err != nil {
		return 0, err
	}
	c := &conn{client: newConn()}
	deadline := time.Now().Add(dur)
	elapsed := drive(r, []*conn{c}, []func(*conn){func(c *conn) {
		c.loop(s.base, deadline, func(i int) *request { return reqs[i%yieldSeeds] }, check)
	}})
	ss := c.samples
	return finish(r, s, before, measured{ss, elapsed, []string{"yield"}}, setupS, traced, func(after window) {
		r.tail("p95_ms", latencies(ss), 0.95)
		var ttfb, rest []float64
		for _, x := range ss {
			ttfb, rest = append(ttfb, x.ttfb), append(rest, x.total-x.ttfb)
		}
		r.layer("client.yield.ttfb_ms", median(ttfb), "ms", len(ttfb))
		r.layer("client.yield.tail_ms", median(rest), "ms", len(rest))
		got := after.m.delta(before.m, "vary.samples")
		r.layer("vary.samples", got, "count", 0)
		if want := float64(yieldSamples * c.attempted); got != want {
			r.fail("vary.samples grew by %g over %d runs, want %g", got, c.attempted, want)
		}
	})
}

// serveMixedPhase is the serve-mixed workload: one closed-loop
// connection posting cold /v1/flow requests (a fresh seed each, never
// fixtureSeed, so each is a cache miss that runs a flow on the pool and
// inserts an entry) beside one closed-loop connection sending the hot
// mix. Its operations are the hot requests, which show what the cold
// work costs the cached path when both share the server's cores; the
// cold flows report their own median.
func serveMixedPhase(e *env, r *result, dur time.Duration, traced bool, setups int) (float64, error) {
	reqs, table := hotMix(e.seed)
	s, setupS, err := setUp(e, traced, setups, func(s *server) error { return prime(s, reqs, r) })
	if err != nil {
		return 0, err
	}
	defer s.stop()

	before, err := readWindow(s)
	if err != nil {
		return 0, err
	}
	var firstCold []byte
	cold, hot := &conn{client: newConn()}, &conn{client: newConn()}
	p := newPicker(e.seed, 0, table)
	deadline := time.Now().Add(dur)
	elapsed := drive(r, []*conn{cold, hot}, []func(*conn){
		func(c *conn) {
			c.loop(s.base, deadline, func(i int) *request {
				return &request{class: "flow.cold", path: "/v1/flow", body: flowBody(1000*(e.seed+1) + int64(i))}
			}, func(q *request, body []byte) error {
				var resp struct {
					Cells int `json:"cells"`
				}
				if err := json.Unmarshal(body, &resp); err != nil || resp.Cells == 0 {
					return fmt.Errorf("cold flow reply is not a flow report: %.200s", body)
				}
				if firstCold == nil {
					firstCold = body
				}
				return nil
			})
		},
		func(c *conn) {
			c.loop(s.base, deadline, func(int) *request { return reqs[p.pick()] }, nil)
		},
	})
	r.QoRDigest = digest(digestReplies(reqs) + string(firstCold))
	return finish(r, s, before, measured{hot.samples, elapsed, hotClasses}, setupS, traced, func(after window) {
		r.tail("p99_ms", latencies(hot.samples), 0.99)
		coldLat := latencies(cold.samples)
		r.e2e("cold_p50_ms", median(coldLat), "ms", len(coldLat))
		if got := after.m.delta(before.m, "serve.flow.evals"); got != float64(cold.attempted) {
			r.fail("serve.flow.evals grew by %g for %d cold requests", got, cold.attempted)
		}
	})
}
