package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"m3d/internal/analytic"
	"m3d/internal/tech"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestEvaluateGolden pins Eqs. 4-8 bit-exactly: analytic.Evaluate on
// each load and analytic.EvaluateMany over each load set, printed at 17
// significant digits, which round-trips a float64. The m3dreport golden
// prints two decimals, so a change in the order of one float operation
// shows here first. The machines are the case study (N 8, with its
// ResNet-18 loads) and the Fig. 8 machine at every point of the Fig. 8
// grid; the synthetic loads are Fig. 8's compute- and memory-bound loads
// (N# 64, above every N here) and one with N# 0, which runs on one CS.
// Run with -update to regenerate after an intentional model change.
func TestEvaluateGolden(t *testing.T) {
	m, err := CaseStudyMachine(tech.Default130())
	if err != nil {
		t.Fatal(err)
	}
	synthetic := []analytic.Load{
		Fig8ComputeBound,
		{F0: 1e6, D0: 16e6, NPart: 64}, // Fig. 8's memory-bound load
		{F0: 16e6, D0: 1e6, NPart: 0},
	}
	var buf bytes.Buffer
	eval := func(machine string, p analytic.Params, loads []analytic.Load) {
		for i, w := range loads {
			r, err := analytic.Evaluate(p, w)
			if err != nil {
				t.Fatalf("%s load %d: %v", machine, i, err)
			}
			fmt.Fprintf(&buf, "%s load %d (F0 %g D0 %g N# %d): %s\n", machine, i, w.F0, w.D0, w.NPart, fmtResult(r))
		}
		r, err := analytic.EvaluateMany(p, loads)
		if err != nil {
			t.Fatalf("%s: %v", machine, err)
		}
		fmt.Fprintf(&buf, "%s all %d loads: %s\n", machine, len(loads), fmtResult(r))
	}
	eval("case-study", m.Params, append(append([]analytic.Load{}, m.Loads...), synthetic...))
	for _, n := range Fig8CSCounts {
		for _, bw := range Fig8BWScales {
			p := Fig8Machine()
			p.N, p.B3D = n, p.B2D*bw
			eval(fmt.Sprintf("fig8 N %d bw %gx", n, bw), p, synthetic)
		}
	}

	golden := filepath.Join("testdata", "evaluate.golden")
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
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	got, wantLines := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if !bytes.Equal(got[i], wantLines[i]) {
			t.Fatalf("line %d differs from the golden:\ngot:  %s\nwant: %s", i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(got), len(wantLines))
	}
}

func fmtResult(r analytic.Result) string {
	return fmt.Sprintf("speedup %.17g energy %.17g edp %.17g", r.Speedup, r.EnergyRatio, r.EDPBenefit)
}
