package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"m3d/internal/obs"
)

// span is one timed interval in microseconds on its source's clock: a
// program span folded from an m3dserve -trace file, or a span recorded
// in process by the library workload (the library's own spans and the
// harness's spans around its calls share one obs.Recorder).
type span struct {
	name       string
	start, end int64
	skipped    bool
}

func (s span) dur() int64 { return s.end - s.start }

// containSlackUS absorbs the truncation of a JSONL span's start and
// duration to whole microseconds: a child can appear to start 1 µs
// before, or end up to 2 µs after, the parent that really contains it.
const containSlackUS = 2

// isChild is the attribution rule of the fold. The program's spans carry
// no parent link yet, so a span is a child of an enclosing span when its
// name is one the parent can cause and it lies inside the parent's
// interval. The rule is exact for the benchmark's workloads: flows run
// one at a time, and no hot request lasts long enough to contain a
// flow.run.
func isChild(parent, child string) bool {
	switch parent {
	case "flow.run":
		return strings.HasPrefix(child, "flow.") && child != "flow.run"
	case "serve.flow", "serve.batch.run":
		return child == "flow.run" || child == "analytic.sweep"
	case "serve.sweep":
		return child == "analytic.sweep"
	case "serve.batch":
		return child == "serve.batch.run"
	case "serve.yield":
		return child == "flow.run" || child == "vary.sample"
	case "bench.casestudy":
		return child == "flow.run"
	case "bench.pair":
		return child == "bench.casestudy" || child == "bench.gds" || child == "bench.def"
	}
	return false
}

// fold indexes spans by name, each list sorted by start.
type fold struct {
	byName map[string][]span
}

func newFold(spans []span) *fold {
	f := &fold{byName: make(map[string][]span)}
	for _, s := range spans {
		f.byName[s.name] = append(f.byName[s.name], s)
	}
	for _, list := range f.byName {
		sort.Slice(list, func(i, j int) bool { return list[i].start < list[j].start })
	}
	return f
}

// count returns how many spans carry name (skipped ones included).
func (f *fold) count(name string) int { return len(f.byName[name]) }

// durations returns the durations in µs of the spans named name that ran.
func (f *fold) durations(name string) []float64 {
	var out []float64
	for _, s := range f.byName[name] {
		if !s.skipped {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// children returns the spans attributed to p by isChild and containment,
// clipped to p's interval.
func (f *fold) children(p span) []span {
	var out []span
	for name, list := range f.byName {
		if !isChild(p.name, name) {
			continue
		}
		i := sort.Search(len(list), func(i int) bool { return list[i].start >= p.start-containSlackUS })
		for ; i < len(list) && list[i].start <= p.end; i++ {
			if c := list[i]; c.end <= p.end+containSlackUS {
				c.start, c.end = max(c.start, p.start), min(c.end, p.end)
				out = append(out, c)
			}
		}
	}
	return out
}

// self returns, for every span named name, its duration minus the part
// of its interval covered by its children, in µs.
func (f *fold) self(name string) []float64 {
	var out []float64
	for _, p := range f.byName[name] {
		out = append(out, float64(p.dur()-unionLen(f.children(p))))
	}
	return out
}

// unionLen returns the length covered by the union of the intervals, so
// children running in parallel on the pool count once.
func unionLen(iv []span) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([]span(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	lo, hi := s[0].start, s[0].end
	for _, x := range s[1:] {
		if x.start > hi {
			total += hi - lo
			lo, hi = x.start, x.end
		} else if x.end > hi {
			hi = x.end
		}
	}
	return total + hi - lo
}

// traceEvent is the part of one obs.JSONL record the fold reads.
type traceEvent struct {
	Type  string            `json:"type"`
	Name  string            `json:"name"`
	Attrs map[string]string `json:"attrs"`
	T     int64             `json:"t_us"`
	Dur   int64             `json:"dur_us"`
}

// readJSONL parses an obs.JSONL trace (m3dserve -trace) into spans; the
// trailing metrics event and any other record type are skipped.
func readJSONL(r io.Reader) ([]span, error) {
	var out []span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e traceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		if e.Type != "span" {
			continue
		}
		out = append(out, span{name: e.Name, start: e.T, end: e.T + e.Dur, skipped: e.Attrs["skipped"] == "true"})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

// fromRecorder converts in-process spans to µs since epoch.
func fromRecorder(recs []obs.SpanRecord, epoch time.Time) []span {
	out := make([]span, len(recs))
	for i, r := range recs {
		out[i] = span{
			name:    r.Name,
			start:   r.Start.Sub(epoch).Microseconds(),
			end:     r.End.Sub(epoch).Microseconds(),
			skipped: r.Attr("skipped") == "true",
		}
	}
	return out
}

// flowStages are the flow.run stages the ledger reports, in flow order.
var flowStages = []string{"synth", "floorplan", "place", "route", "sta", "power", "signoff"}

// flowLayers adds the flow-stage and flow.run self-time medians (ms per
// flow run) and the flow-run count folded from f.
func flowLayers(r *result, f *fold) {
	for _, st := range flowStages {
		d := f.durations("flow." + st)
		r.layer("flow."+st+"_ms", median(d)/1e3, "ms", len(d))
	}
	self := f.self("flow.run")
	r.layer("flow.run_self_ms", median(self)/1e3, "ms", len(self))
	r.layer("flow.runs", float64(f.count("flow.run")), "count", 0)
}
