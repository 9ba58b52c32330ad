// Package flow orchestrates the RTL-to-GDS implementation flow of Fig. 4b
// over the in-repo EDA substrate: synthesis (structural elaboration),
// floorplanning with style-dependent RRAM macro blockages, placement,
// 3D global routing, post-route drive optimization, static timing, power
// analysis, and sign-off. Running the flow twice — once with 2D-style
// banks (Si access FETs) and once with M3D-style banks on the same die —
// reproduces the paper's Sec. II physical-design case study.
//
// API shape: a SoCSpec is the whole design run, the optional thermal
// sign-off included; Run, RunMany and CaseStudy take only run plumbing
// through the shared exec.Option surface (m3d.Option): WithWorkers,
// WithContext, WithTracer, WithMetrics. Baseline2D and IsoFootprintM3D
// build the case study's two specs. A run returns a Result that retains
// the design database; the interchange exports (GDS, Verilog, DEF) are
// written from it with Result.WriteGDS/WriteVerilog/WriteDEF.
// When a tracer is attached, every run emits one "flow.<stage>" span per
// stage — synth, floorplan, place, cts, route, sta, power, signoff
// (skipped stages carry skipped="true") — under a "flow.run" root span;
// a metrics registry additionally collects per-stage wall-time
// histograms ("flow.stage.seconds.<stage>").
//
// Error contract: invalid specs fail with an error matching
// errs.ErrBadSpec; cancellation surfaces as errs.ErrCanceled (also
// matching the context sentinel); the optional SoCSpec.ThermalCheck
// sign-off fails with errs.ErrThermalLimit.
package flow

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"m3d/internal/cell"
	"m3d/internal/cts"
	"m3d/internal/def"
	"m3d/internal/drc"
	"m3d/internal/errs"
	"m3d/internal/exec"
	"m3d/internal/floorplan"
	"m3d/internal/gds"
	"m3d/internal/geom"
	"m3d/internal/irdrop"
	"m3d/internal/macro"
	"m3d/internal/netlist"
	"m3d/internal/obs"
	"m3d/internal/place"
	"m3d/internal/power"
	"m3d/internal/route"
	"m3d/internal/sta"
	"m3d/internal/tech"
	"m3d/internal/thermal"
	"m3d/internal/verilog"
)

// SoCSpec describes one accelerator SoC implementation run. A spec is a
// pure value: two equal specs describe the same design, which is what
// lets the service key its design cache on one.
type SoCSpec struct {
	// Style selects 2D (Si access FETs under RRAM) or M3D (CNFET access
	// FETs above RRAM).
	Style macro.Style
	// NumCS is the number of parallel computing sub-systems (1 in the 2D
	// baseline, 8 in the paper's M3D design).
	NumCS int
	// ArrayRows/ArrayCols size each CS's systolic array. The full case
	// study uses 16×16; reduced sizes run the identical flow faster.
	ArrayRows, ArrayCols int
	RRAMCapBits          int64
	Banks                int
	BankWordBits         int
	GlobalSRAMBits       int64
	TargetClockHz        float64
	Seed                 int64
	// Die forces the footprint (pass the 2D result's die to the M3D run
	// for an iso-footprint comparison). Empty = size automatically.
	Die geom.Rect
	// FoldLogic enables the refs [3-4]-style M3D folding flow: logic cells
	// are min-cut partitioned between the Si and CNFET tiers (CNFET cells
	// re-mapped to the weaker BEOL library) and the footprint shrinks to
	// roughly half — iso-architecture, physical design only.
	FoldLogic bool
	// RunCTS synthesizes a buffered clock tree after placement instead of
	// treating the clock as an ideal net; the tree is legalized and its
	// nets are routed.
	RunCTS bool
	// ThermalCheck adds an Eq. 17 thermal sign-off after power analysis:
	// the run fails with an error matching errs.ErrThermalLimit when the
	// stack's temperature rise exceeds MaxTempRiseK.
	ThermalCheck bool
	// MaxTempRiseK is the thermal sign-off's budget in kelvin (≤ 0
	// selects the PDK's MaxTempRiseK). A nonzero budget needs
	// ThermalCheck.
	MaxTempRiseK float64
}

func (s SoCSpec) withDefaults() SoCSpec {
	if s.NumCS == 0 {
		s.NumCS = 1
	}
	if s.ArrayRows == 0 {
		s.ArrayRows = 16
	}
	if s.ArrayCols == 0 {
		s.ArrayCols = 16
	}
	if s.RRAMCapBits == 0 {
		s.RRAMCapBits = 64 << 23
	}
	if s.Banks == 0 {
		s.Banks = s.NumCS
	}
	if s.BankWordBits == 0 {
		s.BankWordBits = 256
	}
	if s.GlobalSRAMBits == 0 {
		s.GlobalSRAMBits = 4 << 20 // 0.5 MB per CS
	}
	if s.TargetClockHz == 0 {
		s.TargetClockHz = 20e6
	}
	return s
}

// Validate checks the spec (after default filling). Violations return an
// error matching errs.ErrBadSpec.
func (s SoCSpec) Validate() error {
	s = s.withDefaults()
	bad := func(format string, args ...any) error {
		return fmt.Errorf("flow: %w: %s", errs.ErrBadSpec, fmt.Sprintf(format, args...))
	}
	switch {
	case s.NumCS < 1:
		return bad("NumCS %d must be ≥ 1", s.NumCS)
	case s.ArrayRows < 1 || s.ArrayCols < 1:
		return bad("array %dx%d must be ≥ 1x1", s.ArrayRows, s.ArrayCols)
	case s.RRAMCapBits < 0:
		return bad("RRAMCapBits %d must be ≥ 0", s.RRAMCapBits)
	case s.Banks < 1:
		return bad("Banks %d must be ≥ 1", s.Banks)
	case s.BankWordBits < 1:
		return bad("BankWordBits %d must be ≥ 1", s.BankWordBits)
	case s.GlobalSRAMBits < 0:
		return bad("GlobalSRAMBits %d must be ≥ 0", s.GlobalSRAMBits)
	case s.TargetClockHz <= 0:
		return bad("TargetClockHz %g must be positive", s.TargetClockHz)
	case !s.ThermalCheck && s.MaxTempRiseK != 0:
		return bad("MaxTempRiseK %g needs ThermalCheck", s.MaxTempRiseK)
	case math.IsNaN(s.MaxTempRiseK):
		// rise > NaN is false: a NaN budget would pass every stack.
		return bad("MaxTempRiseK is NaN")
	}
	return nil
}

// AreaReport carries the measured area decomposition (feeds Eq. 2).
type AreaReport struct {
	// CSNM2 is the standard-cell area of one computing sub-system.
	CSNM2 int64
	// CellsNM2 is the total RRAM cell-array area (A_M^cells).
	CellsNM2 int64
	// PerifNM2 is the memory peripheral area (A_M^perif).
	PerifNM2 int64
	// FreeSiNM2 is the placeable Si area left after floorplanning.
	FreeSiNM2 int64
}

// Result is the flow output for one SoC. It retains the design database
// (netlist, routes, PDK), so every export is written from it, any number
// of times, with WriteGDS/WriteVerilog/WriteDEF.
type Result struct {
	Spec SoCSpec
	Die  geom.Rect

	Cells, Macros int
	HPWL          int64
	RoutedWL      int64
	WLByLayer     []int64
	Vias, ILVs    int
	OverflowEdges int
	// RipupHistory is the router's over-capacity edge count at the start
	// of each rip-up round (route.Result.RipupHistory).
	RipupHistory []int

	FmaxHz        float64
	CriticalPathS float64
	TimingMet     bool
	Upsized       int
	// Hold is the min-delay analysis at sign-off.
	Hold *sta.HoldReport

	// CTS is the clock-tree report (nil when RunCTS is off).
	CTS *cts.Report
	// Audit is the full-chip DRC sign-off report.
	Audit *drc.Report
	// IRDrop is the power-grid analysis at the operating point.
	IRDrop *irdrop.Report

	Power *power.Breakdown
	Area  AreaReport

	// Design database handles for the exports (read-only after the run).
	pdk    *tech.PDK
	nl     *netlist.Netlist
	routes *route.Result
}

// FootprintMM2 returns the die area in mm².
func (r *Result) FootprintMM2() float64 {
	return float64(r.Die.Area()) / 1e12
}

// Design exposes the retained design database — the PDK, the synthesized
// netlist and the routing result (routes may be nil on unrouted runs).
// Read-only: callers such as the Monte-Carlo yield engine (internal/vary)
// build their own Timers/WireModels over these shared structures.
func (r *Result) Design() (*tech.PDK, *netlist.Netlist, *route.Result) {
	return r.pdk, r.nl, r.routes
}

// WriteVerilog streams the synthesized structural netlist to w.
func (r *Result) WriteVerilog(w io.Writer) error {
	if r == nil || r.nl == nil {
		return fmt.Errorf("flow: result holds no netlist")
	}
	if err := verilog.Write(w, r.nl); err != nil {
		return fmt.Errorf("flow: verilog: %w", err)
	}
	return nil
}

// WriteDEF streams the final placement DEF to w.
func (r *Result) WriteDEF(w io.Writer) error {
	if r == nil || r.nl == nil {
		return fmt.Errorf("flow: result holds no netlist")
	}
	if err := def.Write(w, r.nl, r.Die); err != nil {
		return fmt.Errorf("flow: def: %w", err)
	}
	return nil
}

// WriteGDS streams the final layout to w.
func (r *Result) WriteGDS(w io.Writer) error {
	if r == nil || r.nl == nil || r.routes == nil {
		return fmt.Errorf("flow: result holds no routed design")
	}
	if err := gds.WriteDesign(w, r.pdk, r.nl, r.Die, r.routes); err != nil {
		return fmt.Errorf("flow: gds: %w", err)
	}
	return nil
}

// stageTrace instruments the flow stages: one "flow.<stage>" span per
// stage on the tracer and one wall-time histogram sample per stage on
// the registry. With neither attached every call is a nil check.
type stageTrace struct {
	tr   obs.Tracer
	reg  *obs.Registry
	base []obs.Attr
}

// start opens a stage; the returned func closes it.
func (t stageTrace) start(name string) func() {
	if t.tr == nil && t.reg == nil {
		return func() {}
	}
	begin := time.Now()
	var sp obs.Span
	if t.tr != nil {
		sp = t.tr.StartSpan("flow."+name, t.base...)
	}
	return func() {
		if sp != nil {
			sp.End()
		}
		t.reg.Histogram("flow.stage.seconds." + name).Observe(time.Since(begin).Seconds())
	}
}

// skip emits a zero-length span marking a stage that did not run, so a
// trace always carries the full stage taxonomy per variant.
func (t stageTrace) skip(name string) {
	if t.tr == nil {
		return
	}
	attrs := append(append([]obs.Attr(nil), t.base...), obs.Bool("skipped", true))
	t.tr.StartSpan("flow."+name, attrs...).End()
}

// checkCtx converts a cancelled context into the flow's error contract.
func checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("flow: %w: %w", errs.ErrCanceled, err)
	}
	return nil
}

// Run executes the full flow for one SoC spec. A context given with
// exec.WithContext abandons the run between stages once it is cancelled
// (error matches errs.ErrCanceled); a tracer or registry given with
// exec.WithTracer/WithMetrics instruments the stages.
func Run(p *tech.PDK, spec SoCSpec, opts ...exec.Option) (*Result, error) {
	st := exec.Resolve(opts...)
	return runWith(st.Ctx, st, p, spec)
}

// runWith is the flow body.
func runWith(ctx context.Context, st *exec.Settings, p *tech.PDK, spec SoCSpec) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("flow: invalid PDK: %w", err)
	}
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}

	tr := stageTrace{tr: st.Tracer, reg: st.Metrics, base: []obs.Attr{
		obs.String("style", spec.Style.String()),
		obs.Int("cs", spec.NumCS),
		obs.String("tier", tech.TierSiCMOS.String()),
	}}
	var root obs.Span
	if st.Tracer != nil {
		root = st.Tracer.StartSpan("flow.run", tr.base...)
		defer root.End()
	}

	siLib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		return nil, err
	}

	// 1. Synthesis (plus the optional logic folding: tier assignment and
	// CNFET re-mapping are part of netlist construction).
	endSynth := tr.start("synth")
	parts, err := buildSoC(p, siLib, spec)
	if err != nil {
		endSynth()
		return nil, err
	}
	nl := parts.nl

	var cnLib *cell.Library
	if spec.FoldLogic {
		cnLib, err = cell.NewLibrary(p, tech.TierCNFET)
		if err != nil {
			endSynth()
			return nil, err
		}
		var total int64
		for _, c := range nl.MovableCells() {
			total += c.AreaNM2(p)
		}
		caps := map[tech.Tier]int64{
			tech.TierSiCMOS: total * 6 / 10,
			tech.TierCNFET:  total * 6 / 10,
		}
		if _, err := place.AssignTiers(nl, p, place.PartitionOptions{CapNM2: caps, Seed: spec.Seed}); err != nil {
			endSynth()
			return nil, fmt.Errorf("flow: tier assignment: %w", err)
		}
		for _, c := range nl.MovableCells() {
			if c.Tier == tech.TierCNFET {
				c.Cell = cnLib.MustPick(c.Cell.Kind, c.Cell.Drive)
			}
		}
	}
	endSynth()
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}

	// 2. Floorplan: die sizing plus the pack/global-place retry loop. An
	// auto-sized die is grown and retried when shelf-packing fragmentation
	// or blockage-constrained placement overflows it; a caller-forced die
	// (iso-footprint comparisons) fails hard instead.
	endFloorplan := tr.start("floorplan")
	die := spec.Die
	forced := !die.Empty()
	if !forced {
		die, err = floorplan.SizeDie(p, nl, 0.55, 1.0)
		if err != nil {
			endFloorplan()
			return nil, err
		}
		if spec.FoldLogic {
			// Folding splits the logic over two tiers (~50% logic footprint
			// reduction, refs [3-4]) but hard macros keep their area: size
			// the die for half the cell area plus the macros.
			stc := nl.ComputeStats(p)
			var cellArea int64
			for _, a := range stc.CellAreaNM2 {
				cellArea += a
			}
			total := float64(cellArea)/2/0.55 + float64(stc.MacroAreaNM2)*1.15
			side := int64(math.Sqrt(total))
			side = (side/p.RowHeight + 1) * p.RowHeight
			die = geom.R(0, 0, side, side)
		}
	}
	tiers := []tech.Tier{tech.TierSiCMOS}
	if spec.FoldLogic {
		tiers = append(tiers, tech.TierCNFET)
	}
	var fp *floorplan.Floorplan
	for try := 0; ; try++ {
		if err := checkCtx(ctx); err != nil {
			endFloorplan()
			return nil, err
		}
		fp, err = floorplan.New(p, die)
		if err != nil {
			endFloorplan()
			return nil, err
		}
		if err = fp.PackMacros3D(nl.MacroInstances()); err == nil {
			for _, tier := range tiers {
				if _, err = place.Global(fp, nl, tier, spec.Seed); err != nil {
					break
				}
			}
			if err == nil {
				break
			}
		}
		if forced || try >= 6 {
			endFloorplan()
			return nil, fmt.Errorf("flow: floorplan/place on die %v: %w", die, err)
		}
		die = geom.R(die.Lo.X, die.Lo.Y, die.Lo.X+die.W()*115/100, die.Lo.Y+die.H()*115/100)
	}
	endFloorplan()

	// 3. Detailed-placement refinement (annealed same-footprint swaps)
	// and legality sign-off.
	endPlace := tr.start("place")
	for _, tier := range tiers {
		if _, err := place.Refine(fp, nl, tier, spec.Seed); err != nil {
			endPlace()
			return nil, fmt.Errorf("flow: refine: %w", err)
		}
	}
	for _, tier := range tiers {
		if err := place.CheckLegal(fp, nl, tier); err != nil {
			endPlace()
			return nil, fmt.Errorf("flow: placement not legal: %w", err)
		}
	}
	endPlace()
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}

	// 3b. Optional clock tree synthesis + re-legalization of the inserted
	// buffers.
	var ctsRep *cts.Report
	if spec.RunCTS {
		endCTS := tr.start("cts")
		ctsRep, err = cts.Synthesize(p, nl, siLib)
		if err != nil {
			endCTS()
			return nil, fmt.Errorf("flow: cts: %w", err)
		}
		for _, tier := range tiers {
			if err := place.Legalize(fp, nl, tier); err != nil {
				endCTS()
				return nil, fmt.Errorf("flow: post-CTS legalize: %w", err)
			}
		}
		endCTS()
	} else {
		tr.skip("cts")
	}

	// 4. Global routing.
	endRoute := tr.start("route")
	routes, err := route.Route(fp, nl, route.Options{IncludeClock: spec.RunCTS})
	endRoute()
	if err != nil {
		return nil, fmt.Errorf("flow: route: %w", err)
	}
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}

	// 5. Post-route optimization + STA. One sta.Timer serves the
	// upsizing rounds and the hold pass: the timing graph is built once.
	endSTA := tr.start("sta")
	wm := sta.NewWireModel(p, routes)
	libs := map[tech.Tier]*cell.Library{tech.TierSiCMOS: siLib}
	if cnLib != nil {
		libs[tech.TierCNFET] = cnLib
	}
	tm := sta.NewTimer(p, nl, wm)
	opt, err := tm.OptimizeDrives(libs, 1/spec.TargetClockHz, 4)
	if err != nil {
		endSTA()
		return nil, fmt.Errorf("flow: sta: %w", err)
	}
	hold, err := tm.AnalyzeHold()
	endSTA()
	if err != nil {
		return nil, fmt.Errorf("flow: hold: %w", err)
	}
	st.Metrics.Counter("flow.sta.passes.full").Add(int64(tm.Stats().FullPasses))

	// 6. Power analysis at the achieved frequency.
	endPower := tr.start("power")
	clock := spec.TargetClockHz
	if !opt.Final.Met() && opt.Final.FmaxHz > 0 {
		clock = opt.Final.FmaxHz
	}
	pw, err := power.Analyze(p, nl, wm, die, clock)
	endPower()
	if err != nil {
		return nil, fmt.Errorf("flow: power: %w", err)
	}

	// 6b. Optional Eq. 17 thermal sign-off: lower tier is the Si CMOS
	// logic, the BEOL memory/CNFET tiers stack above it.
	if spec.ThermalCheck {
		budget := spec.MaxTempRiseK
		if budget <= 0 {
			budget = p.MaxTempRiseK
		}
		stack := thermal.NewStack(p, []float64{
			pw.ByTier[tech.TierSiCMOS],
			pw.ByTier[tech.TierRRAM] + pw.ByTier[tech.TierCNFET],
		})
		if rise := stack.TempRiseK(); rise > budget {
			return nil, fmt.Errorf("flow: temperature rise %.1f K exceeds %.1f K budget: %w",
				rise, budget, errs.ErrThermalLimit)
		}
	}

	// 7. Area decomposition for the analytical framework.
	var cellsArea, perifArea int64
	for _, b := range parts.banks {
		cellsArea += b.CellArrayAreaNM2()
		perifArea += b.PeriphAreaNM2()
	}
	area := AreaReport{
		CSNM2:     parts.csAreaNM2,
		CellsNM2:  cellsArea,
		PerifNM2:  perifArea,
		FreeSiNM2: fp.FreeAreaNM2(tech.TierSiCMOS),
	}

	stats := nl.ComputeStats(p)
	res := &Result{
		Spec:          spec,
		Die:           die,
		Cells:         stats.Cells,
		Macros:        stats.Macros,
		HPWL:          nl.TotalHPWL(),
		RoutedWL:      routes.TotalWLdbu,
		WLByLayer:     routes.WLByLayer,
		Vias:          routes.TotalVias,
		ILVs:          routes.TotalILVs,
		OverflowEdges: routes.OverflowEdges,
		RipupHistory:  routes.RipupHistory,
		FmaxHz:        opt.Final.FmaxHz,
		CriticalPathS: opt.Final.CriticalPathS,
		TimingMet:     opt.Final.Met(),
		Upsized:       opt.Upsized,
		Hold:          hold,
		CTS:           ctsRep,
		Power:         pw,
		Area:          area,
		pdk:           p,
		nl:            nl,
		routes:        routes,
	}

	// 7b. Power-grid IR drop and full-chip DRC sign-off.
	endSignoff := tr.start("signoff")
	ir, err := irdrop.Analyze(p, die, pw.Density)
	if err != nil {
		endSignoff()
		return nil, fmt.Errorf("flow: irdrop: %w", err)
	}
	audit, err := drc.Audit(fp, nl, routes)
	endSignoff()
	if err != nil {
		return nil, fmt.Errorf("flow: drc: %w", err)
	}
	res.Audit = audit
	res.IRDrop = ir
	return res, nil
}

// Baseline2D is the Sec. II case study's 2D baseline at the given scale:
// one CS under one 2D-style bank (Si access FETs).
func Baseline2D(scale SoCSpec) SoCSpec {
	s := scale
	s.Style = macro.Style2D
	s.NumCS = 1
	s.Banks = 1
	return s
}

// IsoFootprintM3D is the baseline's M3D twin at the given scale: numCS
// CSs under M3D-style banks, one bank per CS (the Banks == NumCS rule the
// per-CS placement fence keys on), on the baseline's die. With the same
// RRAM capacity as the baseline, the pair is iso-footprint and
// iso-on-chip-memory-capacity by construction.
func IsoFootprintM3D(scale SoCSpec, numCS int, die geom.Rect) SoCSpec {
	s := scale
	s.Style = macro.Style3D
	s.NumCS = numCS
	s.Banks = numCS
	s.Die = die
	return s
}

// CaseStudy runs the paper's Sec. II comparison at the given scale: the
// Baseline2D spec sized automatically, then its IsoFootprintM3D twin on
// the identical die. Options (context, tracer, metrics) apply to both
// runs.
func CaseStudy(p *tech.PDK, scale SoCSpec, numCS int, opts ...exec.Option) (twoD, m3d *Result, err error) {
	st := exec.Resolve(opts...)
	scale = scale.withDefaults()

	twoD, err = runWith(st.Ctx, st, p, Baseline2D(scale))
	if err != nil {
		return nil, nil, fmt.Errorf("flow: 2D baseline: %w", err)
	}
	m3d, err = runWith(st.Ctx, st, p, IsoFootprintM3D(scale, numCS, twoD.Die))
	if err != nil {
		return nil, nil, fmt.Errorf("flow: M3D design: %w", err)
	}
	return twoD, m3d, nil
}
