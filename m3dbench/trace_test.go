package main

import (
	"strings"
	"testing"
	"time"

	"m3d/internal/obs"
)

func TestUnionLenCountsOverlapOnce(t *testing.T) {
	for _, c := range []struct {
		iv   []span
		want int64
	}{
		{nil, 0},
		{[]span{{start: 0, end: 10}}, 10},
		{[]span{{start: 20, end: 30}, {start: 0, end: 10}}, 20},
		{[]span{{start: 0, end: 10}, {start: 5, end: 15}}, 15},
		{[]span{{start: 0, end: 30}, {start: 5, end: 10}, {start: 12, end: 20}}, 30},
		{[]span{{start: 0, end: 10}, {start: 10, end: 20}}, 20},
	} {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

// A yield request's corner slabs run in parallel on the pool: its self
// time is its span minus the union of the slabs, not minus their sum.
func TestSelfTimeSubtractsUnionOfParallelChildren(t *testing.T) {
	f := newFold([]span{
		{name: "serve.yield", start: 0, end: 100},
		{name: "vary.sample", start: 10, end: 40},
		{name: "vary.sample", start: 20, end: 50},
		{name: "vary.sample", start: 60, end: 70},
		{name: "vary.sample", start: 150, end: 160}, // another request's
		{name: "serve.sweep", start: 30, end: 35},   // not a child by name
	})
	got := f.self("serve.yield")
	if len(got) != 1 || got[0] != 100-(40+10) {
		t.Errorf("self(serve.yield) = %v, want [50]", got)
	}
}

// The fold attributes children by name and containment: the cold flow's
// stages belong to its flow.run and the flow.run to the cold serve.flow,
// never to a hot request that happened to run inside the cold one.
func TestFoldAttributesByNameAndContainment(t *testing.T) {
	trace := strings.Join([]string{
		`{"type":"span","name":"flow.synth","attrs":{"cs":"1","style":"2D"},"t_us":1010,"dur_us":100}`,
		`{"type":"span","name":"serve.flow","attrs":{"method":"POST","status":"200"},"t_us":1500,"dur_us":50}`,
		`{"type":"span","name":"flow.route","t_us":1110,"dur_us":800}`,
		`{"type":"span","name":"flow.cts","attrs":{"skipped":"true"},"t_us":1910,"dur_us":0}`,
		`{"type":"span","name":"flow.run","t_us":1005,"dur_us":1000}`,
		`{"type":"span","name":"serve.flow","attrs":{"method":"POST","status":"200"},"t_us":1000,"dur_us":1020}`,
		`{"type":"span","name":"serve.healthz","t_us":3000,"dur_us":7}`,
		`{"type":"metrics","metrics":{"counters":{"serve.requests":3}}}`,
		``,
	}, "\n")
	spans, err := readJSONL(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 7 {
		t.Fatalf("read %d spans, want 7 (the metrics record is skipped)", len(spans))
	}
	f := newFold(spans)

	// serve.flow spans sorted by start: the cold one (1000) then the hot
	// one (1500), whose interval lies inside the flow.run but cannot
	// contain it.
	if got := f.self("serve.flow"); len(got) != 2 || got[0] != 20 || got[1] != 50 {
		t.Errorf("self(serve.flow) = %v, want [20 50]", got)
	}
	if got := f.self("flow.run"); len(got) != 1 || got[0] != 1000-900 {
		t.Errorf("self(flow.run) = %v, want [100]", got)
	}
	if got := f.durations("flow.cts"); len(got) != 0 {
		t.Errorf("skipped stage reported durations %v", got)
	}
	if got := f.count("flow.cts"); got != 1 {
		t.Errorf("count(flow.cts) = %d, want 1", got)
	}
	if got := f.self("serve.healthz"); len(got) != 1 || got[0] != 7 {
		t.Errorf("self(serve.healthz) = %v, want [7]", got)
	}

	r := &result{Layers: map[string]metric{}}
	flowLayers(r, f)
	if r.Layers["flow.route_ms"].Value != 0.8 || r.Layers["flow.run_self_ms"].Value != 0.1 || r.Layers["flow.runs"].Value != 1 {
		t.Errorf("flow layers = %v", r.Layers)
	}
}

// Whole-µs truncation can push a contained child a microsecond past its
// parent's end; the slack keeps it attributed.
func TestFoldContainmentSlack(t *testing.T) {
	f := newFold([]span{
		{name: "flow.run", start: 100, end: 200},
		{name: "flow.route", start: 150, end: 202},
		{name: "flow.power", start: 180, end: 260}, // overhangs: not a child
	})
	if got := f.self("flow.run"); len(got) != 1 || got[0] != 50 {
		t.Errorf("self(flow.run) = %v, want [50]", got)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := readJSONL(strings.NewReader("{\"type\":\"span\"\n")); err == nil {
		t.Error("truncated record parsed without error")
	}
}

func TestFromRecorderUsesEpoch(t *testing.T) {
	epoch := time.Unix(1000, 0)
	now := epoch.Add(5 * time.Microsecond)
	rec := obs.NewRecorder()
	rec.Now = func() time.Time { return now }
	sp := rec.StartSpan("flow.place", obs.Bool("skipped", true))
	now = now.Add(20 * time.Microsecond)
	sp.End()
	got := fromRecorder(rec.Spans(), epoch)
	want := span{name: "flow.place", start: 5, end: 25, skipped: true}
	if len(got) != 1 || got[0] != want {
		t.Errorf("fromRecorder = %+v, want [%+v]", got, want)
	}
}
