// Command m3ddse explores the architectural design space of the paper.
// Two subcommands:
//
//	m3ddse sweep   exhaustive single-axis sweeps: BEOL FET width
//	               relaxation (Case 1), ILV pitch (Case 2), interleaved
//	               tiers (Case 3), RRAM capacity (Fig. 9) and
//	               bandwidth/CS grids (Fig. 8). The physical-flow CS-count
//	               sweep is m3dflow's -cs list.
//	m3ddse pareto  adaptive multi-objective exploration (internal/dse)
//	               over the combined δ × tier-pair × bandwidth space,
//	               printing the Pareto frontier over speedup, EDP
//	               benefit, thermal headroom and footprint.
//
// Without a subcommand m3ddse prints its usage and exits 2. Evaluations
// run concurrently on the exec worker pool (-workers; results are
// deterministic at any width).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"m3d/internal/analytic"
	"m3d/internal/cliutil"
	"m3d/internal/core"
	"m3d/internal/dse"
	"m3d/internal/exec"
	"m3d/internal/flow"
	"m3d/internal/report"
	"m3d/internal/tech"
	"m3d/internal/vary"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("m3ddse: ")
	args := os.Args[1:]
	switch {
	case len(args) > 0 && args[0] == "sweep":
		runSweep(args[1:])
	case len(args) > 0 && args[0] == "pareto":
		runPareto(args[1:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  m3ddse sweep  -sweep delta|beta|tiers|capacity|grid [-points ...] [-tierpower W]
                (the flow CS-count sweep is m3dflow -side N -rram 4 -cs 2,4,8)
  m3ddse pareto [-deltas min:max:steps] [-tiers min:max] [-bw min:max:steps] [-power W]
                [-maxevals N] [-seed N] [-explore N] [-thermal] [-promote N] [-brute]
variation mode (sweep -sweep delta, pareto): -variation [-samples N] [-vseed N]
                [-sigma-si S] [-sigma-cnfet S] [-vtshift S] [-ilvspread S] [-rho R]
common flags: -workers N  -trace FILE  -metrics  -pprof ADDR`)
	os.Exit(2)
}

// variationFlags is the shared -variation flag group: both subcommands
// accept the same corner-model knobs, defaulted to the stock
// tech.DefaultVariation parameters.
type variationFlags struct {
	enabled   *bool
	samples   *int
	seed      *int64
	siSigma   *float64
	cnSigma   *float64
	vtShift   *float64
	ilvSpread *float64
	rho       *float64
}

func registerVariationFlags(fs *flag.FlagSet) *variationFlags {
	def := tech.DefaultVariation()
	return &variationFlags{
		enabled:   fs.Bool("variation", false, "evaluate under sampled inter-tier process corners (Monte-Carlo EDP bands)"),
		samples:   fs.Int("samples", 1024, "Monte-Carlo corner samples with -variation"),
		seed:      fs.Int64("vseed", 1, "corner-stream seed with -variation"),
		siSigma:   fs.Float64("sigma-si", def.SiDriveSigma, "Si tier relative drive sigma"),
		cnSigma:   fs.Float64("sigma-cnfet", def.CNFETDriveSigma, "CNFET tier relative drive sigma"),
		vtShift:   fs.Float64("vtshift", def.CNFETVtShift, "systematic CNFET Vt delay shift (fraction)"),
		ilvSpread: fs.Float64("ilvspread", def.ILVRSpread, "ILV resistance relative spread"),
		rho:       fs.Float64("rho", def.TierCorr, "tier-to-tier corner correlation in [0,1]"),
	}
}

// validate rejects a -samples count outside [1, vary.MaxSamples] when
// -variation is on: zero corners would print empty bands, and a negative
// count cannot size a sample slice.
func (vf *variationFlags) validate() error {
	if *vf.enabled && (*vf.samples < 1 || *vf.samples > vary.MaxSamples) {
		return fmt.Errorf("-samples %d out of range [1, %d] with -variation", *vf.samples, vary.MaxSamples)
	}
	return nil
}

// parseFlags parses a subcommand's arguments and exits 2, the flag
// package's usage-error status, on a bad -variation flag group, before
// any evaluation starts.
func parseFlags(fs *flag.FlagSet, args []string, vf *variationFlags) {
	fs.Parse(args)
	if err := vf.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "m3ddse %s: %v\n", fs.Name(), err)
		os.Exit(2)
	}
}

// variation assembles the tech.Variation the flags spell.
func (vf *variationFlags) variation() tech.Variation {
	return tech.Variation{
		SiDriveSigma:    *vf.siSigma,
		CNFETDriveSigma: *vf.cnSigma,
		CNFETVtShift:    *vf.vtShift,
		ILVRSpread:      *vf.ilvSpread,
		TierCorr:        *vf.rho,
	}
}

// runPareto is the adaptive explorer: stream round progress to stderr,
// print the final frontier, optionally check against brute force and
// promote the best points through the physical flow.
func runPareto(args []string) {
	fs := flag.NewFlagSet("pareto", flag.ExitOnError)
	deltas := fs.String("deltas", "", "delta axis as min:max:steps (default 1:2.5:16)")
	tiers := fs.String("tiers", "", "tier-pair axis as min:max (default 1:6)")
	bw := fs.String("bw", "", "bandwidth-scale axis as min:max:steps (default 1:8:8)")
	power := fs.Float64("power", 0, "per-tier-pair power in W for the thermal objective (0 = 2 W)")
	maxEvals := fs.Int("maxevals", 0, "evaluation budget (0 = a quarter of the grid)")
	seed := fs.Int64("seed", 0, "seed for the randomized exploration samples")
	explore := fs.Int("explore", 0, "extra seeded random first-round samples (0 = 8, negative = none)")
	thermal := fs.Bool("thermal", false, "drop Eq. 17 thermal-budget violators from the frontier")
	promote := fs.Int("promote", 0, "run the top-N frontier points through the physical flow")
	brute := fs.Bool("brute", false, "also brute-force the grid and report coverage and the evaluation ratio")
	workers := fs.Int("workers", 0, "worker pool width (0 = GOMAXPROCS, or M3D_WORKERS)")
	vf := registerVariationFlags(fs)
	obsFlags := cliutil.RegisterOn(fs)
	parseFlags(fs, args, vf)

	var space dse.Space
	var err error
	if space.Deltas, err = parseAxis(*deltas); err != nil {
		log.Fatalf("-deltas: %v", err)
	}
	if space.TierPairs, err = parseIntAxis(*tiers); err != nil {
		log.Fatalf("-tiers: %v", err)
	}
	if space.BWScales, err = parseAxis(*bw); err != nil {
		log.Fatalf("-bw: %v", err)
	}
	space.PerTierPowerW = *power
	space = space.WithDefaults()

	p := tech.Default130()
	pool := append([]exec.Option{exec.WithWorkers(*workers)}, obsFlags.Setup()...)
	defer obsFlags.Close()

	opt := dse.Options{
		MaxEvals:       *maxEvals,
		Seed:           *seed,
		Explore:        *explore,
		RequireThermal: *thermal,
	}
	if *vf.enabled {
		// Brute force stays a nominal oracle: a yield-constrained brute
		// frontier would multiply the full grid by the corner count.
		if *brute {
			log.Fatal("-brute is a nominal-only oracle; drop it or -variation")
		}
		p = p.WithVariation(vf.variation())
		opt.VarySamples = *vf.samples
		opt.VarySeed = *vf.seed
	}
	res, err := dse.Explore(p, space, opt, func(u dse.Update) {
		if !u.Done {
			log.Printf("round %d: %d evaluations, frontier %d", u.Round, u.Evaluations, len(u.Frontier))
		}
	}, pool...)
	if err != nil {
		log.Fatal(err)
	}

	title := fmt.Sprintf("Pareto frontier (%d of %d cells evaluated, %d rounds)",
		res.Evaluations, res.GridSize, res.Rounds)
	if *vf.enabled {
		// Yield-constrained mode: EDPBenefit holds the band's p5, so the
		// table spells out the whole p5/p50/p95 band per point.
		tb := report.New(title+fmt.Sprintf(" — %d corners/point", *vf.samples),
			"delta", "Y", "BW", "N", "speedup", "EDP p5", "EDP p50", "EDP p95", "headroom", "footprint")
		for _, pt := range res.Frontier {
			tb.Add(fmt.Sprintf("%.2f", pt.Delta), pt.TierPairs, fmt.Sprintf("%.1f", pt.BWScale), pt.N,
				report.Ratio(pt.Speedup),
				report.Ratio(pt.EDPBenefitP5), report.Ratio(pt.EDPBenefitP50), report.Ratio(pt.EDPBenefitP95),
				fmt.Sprintf("%.1f K", pt.ThermalHeadroomK),
				fmt.Sprintf("%.3f mm2", pt.FootprintMM2))
		}
		render(tb)
	} else {
		tb := report.New(title,
			"delta", "Y", "BW", "N", "speedup", "EDP benefit", "headroom", "footprint")
		for _, pt := range res.Frontier {
			tb.Add(fmt.Sprintf("%.2f", pt.Delta), pt.TierPairs, fmt.Sprintf("%.1f", pt.BWScale), pt.N,
				report.Ratio(pt.Speedup), report.Ratio(pt.EDPBenefit),
				fmt.Sprintf("%.1f K", pt.ThermalHeadroomK),
				fmt.Sprintf("%.3f mm2", pt.FootprintMM2))
		}
		render(tb)
	}
	if res.Exhausted {
		log.Printf("evaluation budget exhausted before convergence (%d evaluations)", res.Evaluations)
	}

	if *brute {
		bres, err := dse.BruteForce(p, space, pool...)
		if err != nil {
			log.Fatal(err)
		}
		ar := &dse.Archive{}
		for _, pt := range res.Frontier {
			ar.Add(pt)
		}
		covered := "covers the brute-force frontier"
		if missing, ok := ar.Uncovered(bres.Frontier); !ok {
			covered = fmt.Sprintf("MISSES brute-force point δ=%.2f Y=%d bw=%.1f",
				missing.Delta, missing.TierPairs, missing.BWScale)
		}
		log.Printf("brute force: %d evaluations, frontier %d; adaptive used %.1f%% and %s",
			bres.Evaluations, len(bres.Frontier),
			100*float64(res.Evaluations)/float64(bres.Evaluations), covered)
	}

	if *promote > 0 {
		promoteFrontier(p, res.Frontier, *promote, *seed, pool)
	}
}

// promoteFrontier runs the top-EDP frontier points through the physical
// flow, each as its dse.Point.FlowSpec with the exploration's seed (the
// rule /v1/dse promotions follow).
func promoteFrontier(p *tech.PDK, frontier []dse.Point, n int, seed int64, pool []exec.Option) {
	top := dse.TopK(frontier, n)
	tb := report.New("Promoted frontier points (physical flow)",
		"delta", "Y", "N", "CS", "Std cells", "Fmax", "Timing", "Power")
	for _, pt := range top {
		spec := pt.FlowSpec(seed)
		log.Printf("promoting δ=%.2f Y=%d (flow with %d CS)...", pt.Delta, pt.TierPairs, spec.NumCS)
		r, err := flow.Run(p, spec, pool...)
		if err != nil {
			log.Fatal(err)
		}
		tb.Add(fmt.Sprintf("%.2f", pt.Delta), pt.TierPairs, pt.N, spec.NumCS,
			r.Cells, report.MHz(r.FmaxHz), r.TimingMet, report.MW(r.Power.TotalW))
	}
	render(tb)
}

// sweepDeltaVariation augments the Case 1 delta sweep with Monte-Carlo
// EDP bands: each δ re-evaluates the analytic design point under the
// sampled corners (slow CNFET access transistors shrink the M3D
// bandwidth, ILV resistance spread raises the 3D access energy), and
// the table reports the p5/p50/p95 benefit beside the nominal number.
func sweepDeltaVariation(p *tech.PDK, rows []core.Fig10Row, vf *variationFlags) {
	m, err := core.CaseStudyMachine(p)
	if err != nil {
		log.Fatal(err)
	}
	sampler, err := vary.NewSampler(vf.variation(), *vf.seed)
	if err != nil {
		log.Fatal(err)
	}
	sampler.Prime(*vf.samples)
	tb := report.New(
		fmt.Sprintf("Case 1 under inter-tier variation (%d corners, seed %d)",
			*vf.samples, *vf.seed),
		"delta", "N3D", "EDP nominal", "EDP p5", "EDP p50", "EDP p95")
	for _, r := range rows {
		band, err := vary.EDPBand(m.Params, m.Area, m.Loads,
			analytic.DesignPoint{Delta: r.Delta, TierPairs: 1, BWScale: 1},
			sampler, *vf.samples)
		if err != nil {
			log.Fatal(err)
		}
		tb.Add(fmt.Sprintf("%.2f", r.Delta), r.N3D, report.Ratio(r.EDPBenefit),
			report.Ratio(band.P5), report.Ratio(band.P50), report.Ratio(band.P95))
	}
	render(tb)
}

// parseAxis reads a float axis spelled min:max:steps ("" keeps the
// default).
func parseAxis(s string) (dse.Axis, error) {
	if s == "" {
		return dse.Axis{}, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return dse.Axis{}, fmt.Errorf("want min:max:steps, got %q", s)
	}
	min, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return dse.Axis{}, fmt.Errorf("bad min %q: %v", parts[0], err)
	}
	max, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return dse.Axis{}, fmt.Errorf("bad max %q: %v", parts[1], err)
	}
	steps, err := strconv.Atoi(parts[2])
	if err != nil {
		return dse.Axis{}, fmt.Errorf("bad steps %q: %v", parts[2], err)
	}
	return dse.Axis{Min: min, Max: max, Steps: steps}, nil
}

// parseIntAxis reads an integer axis spelled min:max ("" keeps the
// default).
func parseIntAxis(s string) (dse.IntAxis, error) {
	if s == "" {
		return dse.IntAxis{}, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return dse.IntAxis{}, fmt.Errorf("want min:max, got %q", s)
	}
	min, err := strconv.Atoi(parts[0])
	if err != nil {
		return dse.IntAxis{}, fmt.Errorf("bad min %q: %v", parts[0], err)
	}
	max, err := strconv.Atoi(parts[1])
	if err != nil {
		return dse.IntAxis{}, fmt.Errorf("bad max %q: %v", parts[1], err)
	}
	return dse.IntAxis{Min: min, Max: max}, nil
}

// runSweep is the exhaustive single-axis surface (the pre-subcommand
// m3ddse behavior, flag for flag).
func runSweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	sweep := fs.String("sweep", "delta", "sweep kind: delta | beta | tiers | capacity | grid")
	points := fs.String("points", "", "comma-separated sweep points (defaults per sweep)")
	tierPower := fs.Float64("tierpower", 2.0, "per-tier-pair power (W) for the tiers sweep")
	workers := fs.Int("workers", 0, "worker pool width (0 = GOMAXPROCS, or M3D_WORKERS)")
	vf := registerVariationFlags(fs)
	obsFlags := cliutil.RegisterOn(fs)
	parseFlags(fs, args, vf)

	p := tech.Default130()
	pool := append([]exec.Option{exec.WithWorkers(*workers)}, obsFlags.Setup()...)
	defer obsFlags.Close()

	if *vf.enabled && *sweep != "delta" {
		log.Fatalf("-variation supports only -sweep delta (got %q)", *sweep)
	}

	switch *sweep {
	case "delta":
		rows, err := core.Fig10bc(p, parseFloats(*points), pool...)
		if err != nil {
			log.Fatal(err)
		}
		if *vf.enabled {
			sweepDeltaVariation(p, rows, vf)
			return
		}
		tb := report.New("Case 1: BEOL access FET width relaxation",
			"delta", "N3D", "N2Dnew", "EDP benefit")
		for _, r := range rows {
			tb.Add(fmt.Sprintf("%.2f", r.Delta), r.N3D, r.N2DNew, report.Ratio(r.EDPBenefit))
		}
		render(tb)
	case "beta":
		rows, err := core.Obs8(p, parseFloats(*points), pool...)
		if err != nil {
			log.Fatal(err)
		}
		tb := report.New("Case 2: ILV pitch scale",
			"beta", "delta_eff", "N3D", "N2Dnew", "EDP benefit")
		for _, r := range rows {
			tb.Add(fmt.Sprintf("%.2f", r.Beta), fmt.Sprintf("%.2f", r.Delta), r.N3D, r.N2DNew, report.Ratio(r.EDPBenefit))
		}
		render(tb)
	case "tiers":
		rows, err := core.Fig10d(p, parseInts(*points), *tierPower, pool...)
		if err != nil {
			log.Fatal(err)
		}
		tb := report.New(fmt.Sprintf("Case 3: interleaved tier pairs (%.1f W/pair)", *tierPower),
			"Y", "N", "EDP benefit", "Temp rise K", "feasible")
		for _, r := range rows {
			tb.Add(r.Y, r.N, report.Ratio(r.EDPBenefit), fmt.Sprintf("%.1f", r.TempRiseK), r.Thermal)
		}
		render(tb)
	case "capacity":
		rows, err := core.Fig9(p, parseInts(*points), pool...)
		if err != nil {
			log.Fatal(err)
		}
		tb := report.New("RRAM capacity sweep (Obs. 6)", "MB", "N", "EDP benefit")
		for _, r := range rows {
			tb.Add(r.CapacityMB, r.N, report.Ratio(r.EDPBenefit))
		}
		render(tb)
	case "grid":
		cb, mb, err := core.Fig8(p, pool...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("compute-bound grid (CS, BWscale, EDP):")
		for _, pt := range cb {
			fmt.Printf("  %2d  %5.1f  %.2fx\n", pt.NumCS, pt.BWScale, pt.EDPBenefit)
		}
		fmt.Println("memory-bound grid (CS, BWscale, EDP):")
		for _, pt := range mb {
			fmt.Printf("  %2d  %5.1f  %.2fx\n", pt.NumCS, pt.BWScale, pt.EDPBenefit)
		}
	default:
		log.Fatalf("unknown sweep %q (want delta|beta|tiers|capacity|grid)", *sweep)
	}
}

func render(tb *report.Table) {
	if err := tb.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func parseFloats(s string) []float64 {
	if s == "" {
		return nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			log.Fatalf("bad sweep point %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out
}

func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			log.Fatalf("bad sweep point %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out
}
