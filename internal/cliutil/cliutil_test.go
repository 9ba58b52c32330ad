package cliutil

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"m3d/internal/exec"
	"m3d/internal/obs"
)

// TestTraceFileWholeAfterClose emits more spans than one write buffer
// holds through a -trace file and requires the file, after Close, to
// hold every span in order and then the trailing metrics event: the
// buffered writer loses nothing at exit.
func TestTraceFileWholeAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterOn(fs)
	if err := fs.Parse([]string{"-trace", path}); err != nil {
		t.Fatal(err)
	}
	st := exec.Resolve(f.Setup()...)
	const spans = 500
	for i := 0; i < spans; i++ {
		st.Tracer.StartSpan("vary.sample", obs.Int("idx", i)).End()
	}
	st.Metrics.Counter("vary.samples").Add(spans)
	f.Close()

	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	var events []obs.Event
	for dec := json.NewDecoder(file); dec.More(); {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("event %d: %v", len(events), err)
		}
		events = append(events, e)
	}
	if len(events) != spans+1 {
		t.Fatalf("trace holds %d events, want %d spans and one metrics event", len(events), spans)
	}
	for i, e := range events[:spans] {
		if e.Type != "span" || e.Name != "vary.sample" || e.Attrs["idx"] != strconv.Itoa(i) {
			t.Fatalf("event %d = %+v, want span vary.sample idx %d", i, e, i)
		}
	}
	last := events[spans]
	if last.Type != "metrics" || last.Metrics == nil || last.Metrics.Counters["vary.samples"] != spans {
		t.Fatalf("last event = %+v, want the metrics event with vary.samples = %d", last, spans)
	}
}
