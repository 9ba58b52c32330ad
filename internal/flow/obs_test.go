package flow

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"m3d/internal/errs"
	"m3d/internal/exec"
	"m3d/internal/obs"
	"m3d/internal/tech"
)

// flowStageNames is the span taxonomy in End order: every stage of the
// Fig. 4b flow, then the enclosing root span.
var flowStageNames = []string{
	"flow.synth", "flow.floorplan", "flow.place", "flow.cts", "flow.route",
	"flow.sta", "flow.power", "flow.signoff", "flow.run",
}

// TestRunFlowStageSpans asserts the tentpole's span contract: one span
// per flow stage per run, in stage order, carrying the style/CS
// attributes, with skipped stages present as zero-length spans — with
// the sinks passed as options.
func TestRunFlowStageSpans(t *testing.T) {
	p := tech.Default130()
	rec := obs.NewRecorder()
	reg := obs.NewRegistry()

	if _, err := Run(p, runManySpecs()[0], exec.WithTracer(rec), exec.WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	if got := rec.Names(); !reflect.DeepEqual(got, flowStageNames) {
		t.Fatalf("span sequence = %v\nwant %v", got, flowStageNames)
	}
	root := rec.Find("flow.run")[0]
	if root.Attr("style") != "2D" || root.Attr("cs") != "1" {
		t.Errorf("root attrs = %v", root.Attrs)
	}
	// No CTS in this spec: the stage must still appear, flagged skipped,
	// with no work inside (sub-millisecond span).
	if sp := rec.Find("flow.cts")[0]; sp.Attr("skipped") != "true" || sp.Dur() >= time.Millisecond {
		t.Errorf("flow.cts: skipped=%q dur=%v, want flagged near-zero span", sp.Attr("skipped"), sp.Dur())
	}
	// Executed stages feed their wall-time histograms.
	for _, stage := range []string{"synth", "floorplan", "place", "route", "sta", "power", "signoff"} {
		if n := reg.Histogram("flow.stage.seconds." + stage).Count(); n != 1 {
			t.Errorf("flow.stage.seconds.%s count = %d, want 1", stage, n)
		}
	}
	if n := reg.Histogram("flow.stage.seconds.cts").Count(); n != 0 {
		t.Errorf("skipped cts recorded %d histogram samples", n)
	}
}

// TestRunManyMemoCounters asserts the pool accounting of a batch at
// widths 1, 2 and 8: one task per spec, duplicates included, and the
// pool clamped to the batch size.
func TestRunManyMemoCounters(t *testing.T) {
	p := tech.Default130()
	a := runManySpecs()[0]
	b := a
	b.Seed = 7
	specs := []SoCSpec{a, a, b, a} // 2 distinct, 2 duplicates

	for _, width := range []int{1, 2, 8} {
		reg := obs.NewRegistry()
		if _, err := RunMany(p, specs, exec.WithWorkers(width), exec.WithMetrics(reg)); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		snap := reg.Snapshot()
		if got := snap.Counters["exec.tasks"]; got != int64(len(specs)) {
			t.Errorf("width %d: exec.tasks = %d, want %d", width, got, len(specs))
		}
		want := int64(width)
		if width > len(specs) {
			want = int64(len(specs))
		}
		if got := snap.Gauges["exec.pool.width"]; got != want {
			t.Errorf("width %d: exec.pool.width = %d, want %d", width, got, want)
		}
	}
}

// TestRunManyTaskSpans: each batched run gets one labeled per-task span.
func TestRunManyTaskSpans(t *testing.T) {
	p := tech.Default130()
	rec := obs.NewRecorder()
	specs := runManySpecs()[:2]
	if _, err := RunMany(p, specs, exec.WithWorkers(2), exec.WithTracer(rec)); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Find("flow.runmany")); got != len(specs) {
		t.Errorf("%d flow.runmany task spans, want %d", got, len(specs))
	}
	if got := len(rec.Find("flow.run")); got != len(specs) {
		t.Errorf("%d flow.run root spans, want %d", got, len(specs))
	}
}

// TestRunContextCanceled: a canceled context passed as an option
// surfaces as an error matching both the m3d sentinel and the stdlib
// sentinel.
func TestRunContextCanceled(t *testing.T) {
	p := tech.Default130()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(p, runManySpecs()[0], exec.WithContext(ctx))
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, errs.ErrCanceled) {
		t.Errorf("error %v does not match errs.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not match context.Canceled", err)
	}

	if _, err := RunMany(p, runManySpecs(), exec.WithContext(ctx)); !errors.Is(err, errs.ErrCanceled) {
		t.Errorf("RunMany error %v does not match errs.ErrCanceled", err)
	}
}

// TestRunBadSpec: validation failures match ErrBadSpec.
func TestRunBadSpec(t *testing.T) {
	p := tech.Default130()
	bad := runManySpecs()[0]
	bad.ArrayRows = -1
	_, err := Run(p, bad)
	if !errors.Is(err, errs.ErrBadSpec) {
		t.Errorf("error %v does not match errs.ErrBadSpec", err)
	}
}

// TestThermalCheck: the opt-in Eq. 17 sign-off fails a run whose stack
// exceeds the budget (and passes an unbounded one), and a NaN budget or
// a budget without the check is a bad spec.
func TestThermalCheck(t *testing.T) {
	p := tech.Default130()
	spec := runManySpecs()[0]
	spec.ThermalCheck = true
	spec.MaxTempRiseK = 1e-9
	_, err := Run(p, spec)
	if !errors.Is(err, errs.ErrThermalLimit) {
		t.Fatalf("error %v does not match errs.ErrThermalLimit", err)
	}
	spec.MaxTempRiseK = 1e9
	if _, err := Run(p, spec); err != nil {
		t.Fatalf("generous budget failed: %v", err)
	}
	spec.MaxTempRiseK = math.NaN()
	if _, err := Run(p, spec); !errors.Is(err, errs.ErrBadSpec) {
		t.Errorf("NaN MaxTempRiseK: error %v does not match errs.ErrBadSpec", err)
	}
	spec.ThermalCheck, spec.MaxTempRiseK = false, 1e9
	if _, err := Run(p, spec); !errors.Is(err, errs.ErrBadSpec) {
		t.Errorf("MaxTempRiseK without ThermalCheck: error %v does not match errs.ErrBadSpec", err)
	}
}

// BenchmarkRunFlow is the overhead baseline: no observability attached.
func BenchmarkRunFlow(b *testing.B) {
	p := tech.Default130()
	spec := runManySpecs()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFlowNopTracer measures the tracing fast path: a live (but
// no-op) tracer plus a registry on every stage. The budget is <2% over
// BenchmarkRunFlow (see EXPERIMENTS.md).
func BenchmarkRunFlowNopTracer(b *testing.B) {
	p := tech.Default130()
	spec := runManySpecs()[0]
	reg := obs.NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, spec, exec.WithTracer(obs.Nop()), exec.WithMetrics(reg)); err != nil {
			b.Fatal(err)
		}
	}
}
