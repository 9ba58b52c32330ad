package flow

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"m3d/internal/exec"
	"m3d/internal/tech"
)

var update = flag.Bool("update", false, "rewrite golden files")

// equivReport renders the fields of each result that the perf work must
// not perturb — counts, wirelength, timing, hold — in a fixed format, so
// the golden pins the flow's numeric output bit-for-bit.
func equivReport(results []*Result) []byte {
	var b bytes.Buffer
	for i, r := range results {
		fmt.Fprintf(&b,
			"spec %d: cells=%d macros=%d hpwl=%d routedwl=%d vias=%d ilvs=%d overflow=%d upsized=%d fmax=%.9e critical=%.9e met=%v",
			i, r.Cells, r.Macros, r.HPWL, r.RoutedWL, r.Vias, r.ILVs,
			r.OverflowEdges, r.Upsized, r.FmaxHz, r.CriticalPathS, r.TimingMet)
		if r.Hold != nil {
			fmt.Fprintf(&b, " hold=%.9e/%d", r.Hold.WorstSlackS, r.Hold.Violations)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestFlowFullFeatureGoldensAcrossWidths pins the full-featured flow —
// CTS (clock nets routed, hold on a real tree) and logic folding (two
// placement tiers, CNFET re-mapping), which the reduced benchmark spec
// never exercises — to checked-in DEF, numeric-report and raw GDS bytes.
// Run reads no pool width (every flow stage is serial), so one run
// covers every width; RunMany's widths are pinned by
// TestFlowEquivalenceGoldensAcrossWidths. Run with -update to rewrite
// the goldens.
func TestFlowFullFeatureGoldensAcrossWidths(t *testing.T) {
	p := tech.Default130()
	spec := benchSpecs()[0]
	spec.RunCTS = true
	spec.FoldLogic = true
	defGolden := filepath.Join("testdata", "equiv_full_def.golden")
	repGolden := filepath.Join("testdata", "equiv_full_report.golden")
	gdsGolden := filepath.Join("testdata", "equiv_full_gds.golden")

	res, err := Run(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var def, gds bytes.Buffer
	if err := res.WriteDEF(&def); err != nil {
		t.Fatalf("DEF export: %v", err)
	}
	if err := res.WriteGDS(&gds); err != nil {
		t.Fatalf("GDS export: %v", err)
	}
	rep := equivReport([]*Result{res})
	if res.CTS == nil {
		t.Fatal("CTS report missing")
	}

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for _, g := range []struct {
			path string
			data []byte
		}{{defGolden, def.Bytes()}, {repGolden, rep}, {gdsGolden, gds.Bytes()}} {
			if err := os.WriteFile(g.path, g.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, g := range []struct {
		name string
		path string
		got  []byte
	}{{"DEF", defGolden, def.Bytes()}, {"report", repGolden, rep}, {"GDS", gdsGolden, gds.Bytes()}} {
		want, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatalf("missing golden (regenerate with go test ./internal/flow -run FullFeature -update): %v", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s output differs from golden (%d vs %d bytes)", g.name, len(g.got), len(want))
		}
	}
}

// TestFlowEquivalenceGoldensAcrossWidths asserts RunMany produces
// byte-identical DEF and report output vs the checked-in goldens at pool
// widths 1, 2, and 8. Run with -update to rewrite the goldens (recorded
// at width 1).
func TestFlowEquivalenceGoldensAcrossWidths(t *testing.T) {
	p := tech.Default130()
	specs := benchSpecs()[:2]
	defGolden := filepath.Join("testdata", "equiv_def.golden")
	repGolden := filepath.Join("testdata", "equiv_report.golden")

	for _, width := range []int{1, 2, 8} {
		results, err := RunMany(p, specs, exec.WithWorkers(width))
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		var def bytes.Buffer
		if err := results[0].WriteDEF(&def); err != nil {
			t.Fatalf("width %d: DEF export: %v", width, err)
		}
		rep := equivReport(results)

		if *update && width == 1 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(defGolden, def.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(repGolden, rep, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wantDef, err := os.ReadFile(defGolden)
		if err != nil {
			t.Fatalf("missing golden (regenerate with go test ./internal/flow -run Equivalence -update): %v", err)
		}
		if !bytes.Equal(def.Bytes(), wantDef) {
			t.Errorf("width %d: DEF output differs from golden (%d vs %d bytes)",
				width, def.Len(), len(wantDef))
		}
		wantRep, err := os.ReadFile(repGolden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rep, wantRep) {
			t.Errorf("width %d: report differs from golden\n got: %s\nwant: %s",
				width, rep, wantRep)
		}
	}
}

// TestCaseStudyReportGolden pins the reduced Sec. II case study — the
// 2D baseline and its iso-footprint two-CS M3D twin from CaseStudy, at
// the benchmark's scale, for seeds 1 and 2 — to the equivReport line of
// each design. It is the only flow golden that holds a multi-CS M3D
// design. Run with -update to rewrite it.
func TestCaseStudyReportGolden(t *testing.T) {
	p := tech.Default130()
	golden := filepath.Join("testdata", "casestudy_report.golden")
	var got bytes.Buffer
	for _, spec := range benchSpecs()[:2] {
		twoD, m3d, err := CaseStudy(p, spec, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", spec.Seed, err)
		}
		for _, d := range []struct {
			name string
			res  *Result
		}{{"2d", twoD}, {"m3d", m3d}} {
			fmt.Fprintf(&got, "seed %d %s ", spec.Seed, d.name)
			got.Write(equivReport([]*Result{d.res}))
		}
	}
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with go test ./internal/flow -run CaseStudyReport -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("case-study report differs from golden\n got: %s\nwant: %s", got.Bytes(), want)
	}
}

// TestCaseStudyExportsGolden pins the interchange exports of the same
// reduced case study — the sha256 of the GDS and of the DEF of both
// designs, seeds 1 and 2 — so an export or placement change that moves a
// byte of a multi-CS M3D layout shows. Run with -update to rewrite it.
func TestCaseStudyExportsGolden(t *testing.T) {
	p := tech.Default130()
	golden := filepath.Join("testdata", "casestudy_exports.golden")
	var got bytes.Buffer
	for _, spec := range benchSpecs()[:2] {
		twoD, m3d, err := CaseStudy(p, spec, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", spec.Seed, err)
		}
		for _, d := range []struct {
			name string
			res  *Result
		}{{"2d", twoD}, {"m3d", m3d}} {
			g, df := sha256.New(), sha256.New()
			if err := d.res.WriteGDS(g); err != nil {
				t.Fatalf("seed %d %s: GDS export: %v", spec.Seed, d.name, err)
			}
			if err := d.res.WriteDEF(df); err != nil {
				t.Fatalf("seed %d %s: DEF export: %v", spec.Seed, d.name, err)
			}
			fmt.Fprintf(&got, "seed %d %s gds %x\n", spec.Seed, d.name, g.Sum(nil))
			fmt.Fprintf(&got, "seed %d %s def %x\n", spec.Seed, d.name, df.Sum(nil))
		}
	}
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with go test ./internal/flow -run CaseStudyExports -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("case-study exports differ from golden\n got: %s\nwant: %s", got.Bytes(), want)
	}
}
