// Command m3dflow runs the RTL-to-GDS implementation flow (Fig. 4b) for
// the 2D baseline and one or more iso-footprint M3D accelerator variants
// (comma-separated -cs list, fanned out in parallel through flow.RunMany)
// and prints the post-route comparison (the paper's Fig. 2). Optionally
// writes the GDS layouts, the M3D netlist and the M3D placement DEF from
// the finished runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"m3d/internal/cliutil"
	"m3d/internal/exec"
	"m3d/internal/flow"
	"m3d/internal/report"
	"m3d/internal/tech"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("m3dflow: ")
	side := flag.Int("side", 4, "systolic array side per CS (16 = paper scale)")
	csList := flag.String("cs", "8", "comma-separated parallel-CS counts for the M3D design(s)")
	rramMB := flag.Int("rram", 8, "on-chip RRAM capacity in MB")
	gdsPrefix := flag.String("gds", "", "write <prefix>_2d.gds and <prefix>_m3d.gds")
	vPath := flag.String("verilog", "", "write the M3D structural netlist to this file")
	defPath := flag.String("def", "", "write the M3D placement DEF to this file")
	seed := flag.Int64("seed", 1, "placement seed")
	workers := flag.Int("workers", 0, "worker pool width for the M3D variants (0 = GOMAXPROCS)")
	obsFlags := cliutil.Register()
	flag.Parse()

	csCounts, err := parseCSList(*csList)
	if err != nil {
		log.Fatal(err)
	}
	numCS := csCounts[0]
	obsOpts := obsFlags.Setup()
	defer obsFlags.Close()

	p := tech.Default130()
	spec := flow.SoCSpec{
		ArrayRows:      *side,
		ArrayCols:      *side,
		RRAMCapBits:    int64(*rramMB) << 23,
		GlobalSRAMBits: 64 << 10,
		Seed:           *seed,
	}

	log.Printf("running 2D baseline flow (%dx%d PEs, %d MB RRAM)...", *side, *side, *rramMB)
	twoD, err := flow.Run(p, flow.Baseline2D(spec), obsOpts...)
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("running %d iso-footprint M3D flow variant(s) (CS counts %v)...", len(csCounts), csCounts)
	specs := make([]flow.SoCSpec, len(csCounts))
	for i, cs := range csCounts {
		specs[i] = flow.IsoFootprintM3D(spec, cs, twoD.Die)
	}
	variants, err := flow.RunMany(p, specs, append([]exec.Option{exec.WithWorkers(*workers)}, obsOpts...)...)
	if err != nil {
		log.Fatal(err)
	}
	m3d := variants[0]

	// Exports come from the retained designs: the 2D baseline and the
	// first (primary) M3D variant.
	if *gdsPrefix != "" {
		export(*gdsPrefix+"_2d.gds", twoD.WriteGDS)
		export(*gdsPrefix+"_m3d.gds", m3d.WriteGDS)
	}
	if *vPath != "" {
		export(*vPath, m3d.WriteVerilog)
	}
	if *defPath != "" {
		export(*defPath, m3d.WriteDEF)
	}

	headers := []string{"Metric", "2D baseline"}
	for _, cs := range csCounts {
		headers = append(headers, fmt.Sprintf("M3D cs=%d", cs))
	}
	tb := report.New("Post-route comparison (cf. paper Fig. 2)", headers...)
	row := func(metric string, base interface{}, per func(r *flow.Result) interface{}) {
		cells := []interface{}{metric, base}
		for _, r := range variants {
			cells = append(cells, per(r))
		}
		tb.Add(cells...)
	}
	row("Die", report.MM2(twoD.Die.Area()), func(r *flow.Result) interface{} { return report.MM2(r.Die.Area()) })
	row("Computing sub-systems", 1, func(r *flow.Result) interface{} { return r.Spec.NumCS })
	row("Std cells", twoD.Cells, func(r *flow.Result) interface{} { return r.Cells })
	row("Macros", twoD.Macros, func(r *flow.Result) interface{} { return r.Macros })
	row("HPWL (mm)", float64(twoD.HPWL)/1e6, func(r *flow.Result) interface{} { return float64(r.HPWL) / 1e6 })
	row("Routed WL (mm)", float64(twoD.RoutedWL)/1e6, func(r *flow.Result) interface{} { return float64(r.RoutedWL) / 1e6 })
	row("Vias", twoD.Vias, func(r *flow.Result) interface{} { return r.Vias })
	row("ILVs", twoD.ILVs, func(r *flow.Result) interface{} { return r.ILVs })
	row("Overflow edges", twoD.OverflowEdges, func(r *flow.Result) interface{} { return r.OverflowEdges })
	row("Rip-up overflow/round", ripups(twoD), func(r *flow.Result) interface{} { return ripups(r) })
	row("DRC violations", len(twoD.Audit.Violations), func(r *flow.Result) interface{} { return len(r.Audit.Violations) })
	row("Fmax", report.MHz(twoD.FmaxHz), func(r *flow.Result) interface{} { return report.MHz(r.FmaxHz) })
	row("Timing met @20MHz", twoD.TimingMet, func(r *flow.Result) interface{} { return r.TimingMet })
	row("Drivers upsized", twoD.Upsized, func(r *flow.Result) interface{} { return r.Upsized })
	row("Power", report.MW(twoD.Power.TotalW), func(r *flow.Result) interface{} { return report.MW(r.Power.TotalW) })
	row("Peak density (W/mm2)", twoD.Power.PeakDensityWPerMM2, func(r *flow.Result) interface{} { return r.Power.PeakDensityWPerMM2 })
	row("Upper-tier power frac", twoD.Power.UpperTierFraction(), func(r *flow.Result) interface{} { return r.Power.UpperTierFraction() })
	row("Free Si area", report.MM2(twoD.Area.FreeSiNM2), func(r *flow.Result) interface{} { return report.MM2(r.Area.FreeSiNM2) })
	row("RRAM cell array", report.MM2(twoD.Area.CellsNM2), func(r *flow.Result) interface{} { return report.MM2(r.Area.CellsNM2) })
	if err := tb.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFreed Si under arrays: %s (the space the M3D architecture fills with %d parallel CSs)\n",
		report.MM2(m3d.Area.FreeSiNM2-twoD.Area.FreeSiNM2), numCS)
}

// ripups renders the router's overflow at the start of each rip-up round,
// oldest first.
func ripups(r *flow.Result) string {
	parts := make([]string, len(r.RipupHistory))
	for i, ov := range r.RipupHistory {
		parts[i] = strconv.Itoa(ov)
	}
	return strings.Join(parts, " > ")
}

// export writes one export of a flow result to a new file at path.
func export(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// parseCSList parses the comma-separated -cs flag.
func parseCSList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -cs value %q (want positive integers)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-cs needs at least one CS count")
	}
	return out, nil
}
