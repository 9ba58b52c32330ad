package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// bound is one end-to-end metric's regression rule.
type bound struct {
	share  float64 // allowed worsening as a share of the base median
	higher bool    // higher is better
	listed bool    // the bound comes from BENCHMARK.json
}

// boundFor returns the rule for name: BENCHMARK.json's when listed,
// otherwise no bound, with the direction taken from the unit.
func boundFor(sp *spec, name, unit string) bound {
	for _, m := range sp.EndToEnd {
		if m.Name == name {
			return bound{share: m.Bound, higher: m.Better == "higher", listed: true}
		}
	}
	return bound{share: math.Inf(1), higher: unit == "1/s"}
}

// sideStats summarises one side's runs of one metric.
type sideStats struct {
	vals      []float64
	bySeed    map[int64]float64
	med       float64
	q1, q3    float64
	hasSpread bool
}

func statsOf(runs []result, workload, name string) sideStats {
	s := sideStats{bySeed: map[int64]float64{}}
	for _, r := range runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		m, ok := r.E2E[name]
		if !ok {
			continue
		}
		s.vals = append(s.vals, m.Value)
		if _, dup := s.bySeed[r.Seed]; !dup {
			s.bySeed[r.Seed] = m.Value
		}
	}
	s.med = median(s.vals)
	s.q1, s.q3, s.hasSpread = quartiles(s.vals)
	return s
}

// verdict applies the comparison rules to one workload and metric.
// Worse than the bound is a regression. When the base's own spread is
// wider than the bound, the runs cannot tell a change inside it from
// noise: the verdict is unresolved, unless every change run is worse
// than every base run (a regression, if also past the bound) or better
// than every base run. A gain needs at least ten seed-paired runs, the
// change winning nine tenths of them, and a median difference larger
// than the base's interquartile distance.
func verdict(base, change sideStats, b bound) (v string, wins, pairs int) {
	better := func(x, y float64) bool { // x better than y
		if b.higher {
			return x > y
		}
		return x < y
	}
	for seed, bv := range base.bySeed {
		cv, ok := change.bySeed[seed]
		if !ok {
			continue
		}
		pairs++
		if better(cv, bv) {
			wins++
		}
	}
	worse := worsening(base.med, change.med, b.higher)
	baseSpread := 0.0
	if base.hasSpread && base.med != 0 {
		baseSpread = (base.q3 - base.q1) / math.Abs(base.med)
	}
	wide := baseSpread > b.share
	allWorse := beatsAll(base.vals, change.vals, better)
	switch {
	case worse > b.share && (!wide || allWorse):
		return "REGRESSED", wins, pairs
	case wide && !beatsAll(change.vals, base.vals, better):
		return "unresolved", wins, pairs
	case pairs >= 10 && wins*10 >= pairs*9 && base.hasSpread &&
		math.Abs(change.med-base.med) > base.q3-base.q1 && better(change.med, base.med):
		return "gain", wins, pairs
	}
	return "ok", wins, pairs
}

// worsening is how much worse change is than base, as a share of base
// (negative when better); a move off a zero base is all or nothing.
func worsening(base, change float64, higher bool) float64 {
	d := change - base
	if higher {
		d = -d
	}
	switch {
	case base != 0:
		return d / math.Abs(base)
	case d > 0:
		return math.Inf(1)
	case d < 0:
		return math.Inf(-1)
	}
	return 0
}

// beatsAll reports whether every run in xs is better than every run in
// ys.
func beatsAll(xs, ys []float64, better func(x, y float64) bool) bool {
	for _, y := range ys {
		for _, x := range xs {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// compareMain is `m3dbench compare base.json change.json`: it refuses
// results from different hosts or widths, then reports each workload
// and end-to-end metric in its own row, applying BENCHMARK.json's
// bounds. It exits 1 when any metric regressed or any change run failed
// a check.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: m3dbench compare [-spec BENCHMARK.json] base.json change.json")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "m3dbench compare:", err)
		return 2
	}
	base, err := readRecord(fs.Arg(0))
	if err == nil {
		var change *record
		change, err = readRecord(fs.Arg(1))
		if err == nil {
			if err = sameMachine(base.Host, change.Host); err == nil {
				return report(stdout, sp, base, change)
			}
			err = fmt.Errorf("refusing to compare: %w", err)
		}
	}
	fmt.Fprintln(os.Stderr, "m3dbench compare:", err)
	return 2
}

func report(w io.Writer, sp *spec, base, change *record) int {
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d cpu=%q\nbase %s (dirty=%t, %s)  change %s (dirty=%t, %s)\n",
		base.Host.NProc, base.Host.GOMAXPROCS, base.Host.CPU,
		base.Host.Commit, base.Host.Dirty, base.Host.GoVersion,
		change.Host.Commit, change.Host.Dirty, change.Host.GoVersion)
	fmt.Fprintf(w, "%-15s %-12s %-30s %-30s %8s %6s %6s  %s\n",
		"workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "worse", "bound", "wins", "verdict")
	regressed := false
	for _, wl := range workloads {
		names := map[string]string{}
		for _, r := range base.Runs {
			if r.Workload == wl.name && !r.Trace {
				for n, m := range r.E2E {
					names[n] = m.Unit
				}
			}
		}
		// Correctness is not statistical: any failed check in a change
		// run fails the comparison.
		runs, failed := 0, 0
		for _, r := range change.Runs {
			if r.Workload == wl.name && !r.Trace {
				runs++
				if r.Failed > 0 {
					failed++
				}
			}
		}
		if failed > 0 {
			fmt.Fprintf(w, "%-15s FAILED: %d of %d change runs failed a check\n", wl.name, failed, runs)
			regressed = true
		}
		keys := make([]string, 0, len(names))
		for n := range names {
			keys = append(keys, n)
		}
		sort.Strings(keys)
		for _, n := range keys {
			b := statsOf(base.Runs, wl.name, n)
			c := statsOf(change.Runs, wl.name, n)
			if len(c.vals) == 0 {
				continue
			}
			bd := boundFor(sp, n, names[n])
			v, wins, pairs := verdict(b, c, bd)
			if v == "REGRESSED" {
				regressed = true
			}
			if !bd.listed {
				v += " (no bound)"
			}
			fmt.Fprintf(w, "%-15s %-12s %-30s %-30s %8s %6s %3d/%-2d  %s\n",
				wl.name, n, side(b), side(c), pct(worsening(b.med, c.med, bd.higher)), strings.TrimPrefix(pct(bd.share), "+"), wins, pairs, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func side(s sideStats) string {
	if !s.hasSpread {
		return fmt.Sprintf("%.6g (n=%d)", s.med, len(s.vals))
	}
	return fmt.Sprintf("%.6g [%.6g, %.6g]", s.med, s.q1, s.q3)
}

// pct renders a share as a signed percentage, "-" when unbounded.
func pct(x float64) string {
	if math.IsInf(x, 0) {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*x)
}
