package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestNopTracer(t *testing.T) {
	sp := Nop().StartSpan("x", Int("i", 1))
	sp.SetAttr(String("k", "v"))
	sp.End()
	sp.End() // double End must be safe
}

func TestAttrConstructors(t *testing.T) {
	for _, tc := range []struct {
		got  Attr
		want Attr
	}{
		{String("s", "v"), Attr{"s", "v"}},
		{Int("i", -3), Attr{"i", "-3"}},
		{Bool("b", true), Attr{"b", "true"}},
		{Float("f", 0.5), Attr{"f", "0.5"}},
	} {
		if tc.got != tc.want {
			t.Errorf("got %+v, want %+v", tc.got, tc.want)
		}
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(5)
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(1)
	if v := r.Counter("c").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	if v := r.Gauge("g").Value(); v != 0 {
		t.Errorf("nil gauge value = %d", v)
	}
	if n := r.Histogram("h").Count(); n != 0 {
		t.Errorf("nil histogram count = %d", n)
	}
	if s := r.Snapshot(); !reflect.DeepEqual(s, Snapshot{}) {
		t.Errorf("nil snapshot = %+v", s)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Add(1)
				r.Gauge("g").Set(int64(i))
				r.Histogram("h").Observe(float64(i) / 100)
			}
		}(w)
	}
	wg.Wait()
	if v := r.Counter("c").Value(); v != workers*perWorker {
		t.Errorf("counter = %d, want %d", v, workers*perWorker)
	}
	if n := r.Histogram("h").Count(); n != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", n, workers*perWorker)
	}
	// Same name must return the same instrument.
	if r.Counter("c") != r.Counter("c") {
		t.Error("Counter not idempotent")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 1, 10)
	for _, v := range []float64{0.5, 1, 5, 10, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["lat"]
	if snap.Count != 5 {
		t.Fatalf("count = %d", snap.Count)
	}
	if want := 116.5; snap.Sum != want {
		t.Errorf("sum = %g, want %g", snap.Sum, want)
	}
	// Upper-bound buckets: ≤1, ≤10, overflow.
	if want := []int64{2, 2, 1}; !reflect.DeepEqual(snap.Counts, want) {
		t.Errorf("bucket counts = %v, want %v", snap.Counts, want)
	}
}

func TestRecorderOrderAndAttrs(t *testing.T) {
	rec := NewRecorder()
	outer := rec.StartSpan("outer", String("k", "v"))
	inner := rec.StartSpan("inner")
	inner.SetAttr(Int("n", 2))
	inner.End()
	outer.End()
	outer.End() // idempotent
	spans := rec.Spans()
	if names := rec.Names(); !reflect.DeepEqual(names, []string{"inner", "outer"}) {
		t.Fatalf("end order = %v", names)
	}
	if got := spans[0].Attr("n"); got != "2" {
		t.Errorf("inner attr n = %q", got)
	}
	if got := spans[1].Attr("k"); got != "v" {
		t.Errorf("outer attr k = %q", got)
	}
	if got := spans[1].Attr("missing"); got != "" {
		t.Errorf("missing attr = %q", got)
	}
	if len(rec.Find("outer")) != 1 || len(rec.Find("nope")) != 0 {
		t.Error("Find mismatch")
	}
	rec.Reset()
	if len(rec.Spans()) != 0 {
		t.Error("Reset kept spans")
	}
}

// fakeClock steps 1 ms per call, giving every span a deterministic
// timestamp and duration.
func fakeClock() func() time.Time {
	base := time.Unix(1700000000, 0).UTC()
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n-1) * time.Millisecond)
	}
}

// TestJSONLGolden locks the -trace schema: span and metrics events with a
// deterministic clock must match testdata/trace.golden.jsonl exactly.
func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	tr.Now = fakeClock()
	tr.epoch = tr.Now() // re-anchor the epoch on the fake clock

	root := tr.StartSpan("flow.run", String("style", "3D"), Int("cs", 8))
	stage := tr.StartSpan("flow.route")
	stage.End()
	tr.StartSpan("flow.gds", Bool("skipped", true)).End()
	root.End()

	reg := NewRegistry()
	reg.Counter("flow.memo.hits").Add(3)
	reg.Counter("flow.memo.misses").Add(2)
	reg.Gauge("exec.pool.width").Set(8)
	reg.Histogram("flow.stage.seconds.route", 0.1, 1).Observe(0.25)
	tr.EmitMetrics(reg)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace schema drifted from golden\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// Every line must round-trip as an Event.
	var spans, metrics int
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("parse: %v", err)
		}
		switch e.Type {
		case "span":
			spans++
		case "metrics":
			metrics++
			if e.Metrics.Counters["flow.memo.hits"] != 3 {
				t.Errorf("metrics event hits = %d", e.Metrics.Counters["flow.memo.hits"])
			}
		default:
			t.Errorf("unknown event type %q", e.Type)
		}
	}
	if spans != 3 || metrics != 1 {
		t.Errorf("got %d span / %d metrics events, want 3 / 1", spans, metrics)
	}
}

func TestJSONLErrPropagation(t *testing.T) {
	tr := NewJSONL(failWriter{})
	tr.StartSpan("x").End()
	if tr.Err() == nil {
		t.Fatal("write failure not reported")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, os.ErrClosed }

// TestWriteTextGolden locks the GET /metrics text dump: sorted by metric
// name, one line per instrument, against testdata/metrics.golden.txt —
// the metrics counterpart of the trace.golden.jsonl schema lock.
func TestWriteTextGolden(t *testing.T) {
	reg := NewRegistry()
	// Registration order is deliberately unsorted: the dump must not
	// depend on it.
	reg.Gauge("serve.inflight").Set(3)
	reg.Counter("serve.requests").Add(42)
	reg.Histogram("serve.request.seconds", 0.1, 1).Observe(0.125)
	reg.Counter("exec.tasks").Add(7)
	reg.Counter("serve.memo.hits").Add(5)
	reg.Gauge("exec.pool.width").Set(8)
	reg.Histogram("flow.stage.seconds.route").Observe(0.25)
	reg.Histogram("flow.stage.seconds.route").Observe(0.5)

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("metrics text dump drifted from golden\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// The dump must be sorted by name and repeatable.
	var names []string
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		fields := bytes.Fields(line)
		if len(fields) < 3 {
			t.Fatalf("malformed line %q", line)
		}
		names = append(names, string(fields[1]))
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("metric names not sorted: %v", names)
	}
	var again bytes.Buffer
	if err := reg.WriteText(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("WriteText not deterministic across calls")
	}
}

func TestWriteTextNilRegistry(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry: err=%v len=%d", err, buf.Len())
	}
}
