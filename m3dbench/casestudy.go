package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	m3dexec "m3d/internal/exec"
	"m3d/internal/flow"
	"m3d/internal/obs"
	"m3d/internal/tech"
)

// caseScale is the reduced Sec. II case study: a 2×2 systolic array,
// 2 Mbit of RRAM in 64-bit words and 64 Kbit of global SRAM. CaseStudy
// builds the 2D baseline at this scale and its M3D twin with caseNumCS
// compute sub-systems on the same die.
func caseScale(seed int64) flow.SoCSpec {
	return flow.SoCSpec{
		ArrayRows: 2, ArrayCols: 2,
		RRAMCapBits:    2 << 20,
		BankWordBits:   64,
		GlobalSRAMBits: 64 << 10,
		Seed:           seed,
	}
}

const caseNumCS = 2

// pair is one CaseStudy call and its exports.
type pair struct {
	sums     [4][sha256.Size]byte // GDS and DEF of the 2D and the M3D design
	qor      string               // the simulated statistics of both designs
	iso, met bool                 // equal dies; both meet the 20 MHz target
}

// runPair runs the case study at seed and streams both designs' GDS and
// DEF into hashes. With a tracer, the pair and every call it makes get a
// bench.* span next to the library's own.
func runPair(p *tech.PDK, seed int64, tr obs.Tracer, opts ...m3dexec.Option) (pair, error) {
	start := func(name string) func() {
		if tr == nil {
			return func() {}
		}
		return tr.StartSpan(name).End
	}
	defer start("bench.pair")()
	end := start("bench.casestudy")
	twoD, m3d, err := flow.CaseStudy(p, caseScale(seed), caseNumCS, opts...)
	end()
	if err != nil {
		return pair{}, err
	}
	var out pair
	var qor []string
	for i, res := range []*flow.Result{twoD, m3d} {
		g, d := sha256.New(), sha256.New()
		end := start("bench.gds")
		err := res.WriteGDS(g)
		end()
		if err != nil {
			return pair{}, err
		}
		end = start("bench.def")
		err = res.WriteDEF(d)
		end()
		if err != nil {
			return pair{}, err
		}
		copy(out.sums[2*i][:], g.Sum(nil))
		copy(out.sums[2*i+1][:], d.Sum(nil))
		qor = append(qor, fmt.Sprintf("wl=%d vias=%d ilvs=%d overflow=%d fmax=%s power=%s",
			res.RoutedWL, res.Vias, res.ILVs, res.OverflowEdges,
			strconv.FormatFloat(res.FmaxHz, 'g', -1, 64), strconv.FormatFloat(res.Power.TotalW, 'g', -1, 64)))
	}
	out.qor = strings.Join(qor, "\n")
	out.iso = twoD.Die == m3d.Die
	out.met = twoD.TimingMet && m3d.TimingMet
	return out, nil
}

// digest is a short stable fingerprint of simulated statistics: a change
// that only speeds the simulator up leaves it unchanged.
func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// goRuntime samples the harness's cumulative allocation and GC counters.
type goRuntime struct{ allocs, bytes, gcCPU, totalCPU float64 }

func readGoRuntime() goRuntime {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goRuntime{v(0), v(1), v(2), v(3)}
}

// caseStudyPhase is the flow-casestudy workload: one caller running the
// case study back to back through the library at seeds N, N+1, ... —
// the paper's Sec. II experiment, where route dominates and no server
// is involved. Set-up is the PDK plus the pair at fixtureSeed, so it
// costs the same for every workload seed; every set-up pair must equal
// the first byte for byte.
func caseStudyPhase(e *env, r *result, dur time.Duration, traced bool, setups int) (float64, error) {
	var setupS []float64
	var ref pair
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		out, err := runPair(tech.Default130(), fixtureSeed, nil)
		if err != nil {
			return 0, fmt.Errorf("set-up pair: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i == 0 {
			ref = out
		} else if out.sums != ref.sums {
			r.fail("set-up pair %d at seed %d differs from the first", i, fixtureSeed)
		}
	}

	p := tech.Default130()
	var rec *obs.Recorder
	var reg *obs.Registry
	var tr obs.Tracer
	var opts []m3dexec.Option
	if traced {
		rec, reg = obs.NewRecorder(), obs.NewRegistry()
		tr = rec
		opts = []m3dexec.Option{m3dexec.WithTracer(rec), m3dexec.WithMetrics(reg)}
	}
	cpu0, err := procCPU("self")
	if err != nil {
		return 0, err
	}
	rt0 := readGoRuntime()
	epoch := time.Now()
	var lat []float64
	for i := 0; time.Since(epoch) < dur; i++ {
		seed := e.seed + int64(i)
		t0 := time.Now()
		out, err := runPair(p, seed, tr, opts...)
		r.Attempted++
		if err != nil {
			r.fail("pair at seed %d: %v", seed, err)
			continue
		}
		lat = append(lat, float64(time.Since(t0))/1e6)
		if i == 0 {
			// The set-up design and the seed-N pair: a fixed amount of
			// simulated output whatever the host's speed.
			r.QoRDigest = digest(ref.qor + "\n" + out.qor)
		}
		switch {
		case !out.iso:
			r.fail("pair at seed %d is not iso-footprint", seed)
		case !out.met:
			r.fail("pair at seed %d misses the 20 MHz target", seed)
		case seed == fixtureSeed && out.sums != ref.sums:
			r.fail("measured pair at seed %d differs from its set-up pair", seed)
		}
	}
	elapsed := time.Since(epoch).Seconds()
	rt1 := readGoRuntime()
	cpu1, err := procCPU("self")
	if err != nil {
		return 0, err
	}
	n := float64(len(lat))
	ops := n / elapsed

	if !traced {
		r.e2e("setup_s", median(setupS), "s", len(setupS))
		r.e2e("ops_per_s", ops, "1/s", len(lat))
		r.e2e("p50_ms", median(lat), "ms", len(lat))
		rss, err := peakRSS("self")
		if err != nil {
			return 0, err
		}
		r.e2e("peak_rss_mb", rss, "MB", 0)
		r.layer("proc.cpu_ms_per_op", (cpu1-cpu0)*1e3/n, "ms", len(lat))
		r.layer("go.allocs_per_op", (rt1.allocs-rt0.allocs)/n, "count", len(lat))
		r.layer("go.alloc_mb_per_op", (rt1.bytes-rt0.bytes)/n/(1<<20), "MB", len(lat))
		if d := rt1.totalCPU - rt0.totalCPU; d > 0 {
			r.layer("go.gc_cpu_frac", (rt1.gcCPU-rt0.gcCPU)/d, "ratio", 0)
		}
		return ops, nil
	}

	f := newFold(fromRecorder(rec.Spans(), epoch))
	flowLayers(r, f)
	var gds, def []float64
	for _, p := range f.byName["bench.pair"] {
		var g, d int64
		for _, c := range f.children(p) {
			switch c.name {
			case "bench.gds":
				g += c.dur()
			case "bench.def":
				d += c.dur()
			}
		}
		gds, def = append(gds, float64(g)/1e3), append(def, float64(d)/1e3)
	}
	r.layer("export.gds_ms", median(gds), "ms", len(gds))
	r.layer("export.def_ms", median(def), "ms", len(def))
	// The flow runs (stages plus run self time) and the exports must
	// account for the pair's wall time; what is left is the harness.
	runs, pairs := f.durations("flow.run"), f.durations("bench.pair")
	cover := (sum(runs) + sum(gds)*1e3 + sum(def)*1e3) / sum(pairs)
	r.layer("flow.coverage_frac", cover, "ratio", len(pairs))
	if cover < 0.95 || cover > 1.0001 {
		r.fail("flow runs and exports cover %.4f of the pair time, want 0.95–1", cover)
	}
	snap := reg.Snapshot()
	flowCounters(r, func(name string) float64 { return float64(snap.Counters[name]) }, float64(len(runs)))
	return ops, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// flowCounters adds the route and STA work counts per flow run from the
// flow's registry counters (get reads one by name).
func flowCounters(r *result, get func(string) float64, runs float64) {
	if runs == 0 {
		runs = 1
	}
	committed, rerouted := get("flow.route.nets.committed"), get("flow.route.nets.rerouted")
	r.layer("route.nets_committed", committed/runs, "count", 0)
	r.layer("route.nets_rerouted", rerouted/runs, "count", 0)
	r.layer("route.reroute_ratio", ratio(rerouted, committed+rerouted), "ratio", 0)
	r.layer("route.batches", get("flow.route.batches")/runs, "count", 0)
	r.layer("sta.passes_full", get("flow.sta.passes.full")/runs, "count", 0)
	r.layer("sta.passes_incremental", get("flow.sta.passes.incremental")/runs, "count", 0)
	recomputed, skipped := get("flow.sta.insts.recomputed"), get("flow.sta.insts.skipped")
	r.layer("sta.skip_ratio", ratio(skipped, recomputed+skipped), "ratio", 0)
}

// ratio is num/base, 0 when the base is empty.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}
