package sta

import (
	"fmt"

	"m3d/internal/cell"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// BatchGraph is the corner-independent half of a batched timing pass,
// compiled once from one finished netlist: everything Timer.Analyze
// derives from topology and nominal delays, flattened into index arrays.
//
//   - The Kahn traversal (queue order, pending counts, seen flags) never
//     reads a delay value, so it is run once here. Launch instances keep
//     their fixed launch time; the remaining instances the walk resolves
//     are listed in the order it resolves them (ready), each with its
//     counted inputs as (driver instance, net) arcs in pin order.
//   - netlist.AddPin rejects a second driver, so a sink pin's arrival is
//     written exactly once, as arr[driver] + d·scale, and every output of
//     an instance carries the same value. Arrivals are therefore kept per
//     instance, and a sink's arrival is recomputed where it is read.
//   - Every net a resolved driver reaches has its netDelayParts split
//     evaluated once: the nominal arc delay and the scale lane it
//     multiplies by (the driver's tier, or a lane of ones for unscaled
//     tie-cell arcs, since d·1 == d exactly).
//   - The endpoints (DFF D pins with their setup, macro input pins) are
//     listed in Timer.buildReport's instance and pin order.
//
// Delays are fixed at compile time, so a graph is only valid while the
// netlist, its placement and its routes stay unchanged — the finished,
// read-only designs the Monte-Carlo engine (internal/vary) times. A
// BatchGraph is immutable: any number of goroutines may share one, each
// with its own BatchTimer.
type BatchGraph struct {
	// launchInst/launchT are the launch instances and their launch time.
	launchInst []int32
	launchT    []float64
	// ready lists the resolved non-launch instances in Kahn order; the
	// inputs of ready[i] are in[inOff[i]:inOff[i+1]].
	ready []int32
	inOff []int32
	in    []batchArc
	// ends are the timing endpoints in report order.
	ends []batchEnd
	// netD/netLane are each reached net's nominal arc delay and scale
	// lane, indexed by Net.ID.
	netD    []float64
	netLane []int32
	nInst   int
}

// batchArc is one timed input: the driving instance and the net it
// drives the input through.
type batchArc struct{ drv, net int32 }

// batchEnd is one timing endpoint: its arc and the setup time the
// capturing flip-flop adds (0 for macro inputs; see AnalyzeBatch).
type batchEnd struct {
	batchArc
	setup float64
}

// unitLane is the scale lane of unscaled arcs; it holds 1.0 in every
// corner.
const unitLane = int(tech.NumTiers)

// CompileBatch compiles the corner-independent timing graph of nl under
// wm (nil: pre-route estimates). It fails if the design has no timing
// endpoints, the error Timer.Analyze would return on every pass.
func CompileBatch(p *tech.PDK, nl *netlist.Netlist, wm *WireModel) (*BatchGraph, error) {
	if wm == nil {
		wm = NewWireModel(p, nil)
	}
	n := len(nl.Instances)
	pending := make([]int32, n)
	inputs := 0
	for _, inst := range nl.Instances {
		for _, pin := range inst.Pins() {
			if timedInput(pin) {
				pending[inst.ID]++
				inputs++
			}
		}
	}
	g := &BatchGraph{
		launchInst: make([]int32, 0, n),
		launchT:    make([]float64, 0, n),
		ready:      make([]int32, 0, n),
		inOff:      append(make([]int32, 0, n+1), 0),
		in:         make([]batchArc, 0, inputs),
		netD:       make([]float64, len(nl.Nets)),
		netLane:    make([]int32, len(nl.Nets)),
		nInst:      n,
	}

	// Launch points: the classification of Timer.Analyze.
	queue := make([]*netlist.Instance, 0, n)
	for _, inst := range nl.Instances {
		seq := !inst.IsMacro() && inst.Cell.Sequential
		mac := inst.IsMacro()
		tie := !mac && (inst.Cell.Kind == cell.TieHi || inst.Cell.Kind == cell.TieLo)
		if seq || mac || tie || pending[inst.ID] == 0 {
			launchT := 0.0
			if seq {
				launchT = inst.Cell.ClkQS
			}
			if mac {
				launchT = inst.Macro.AccessLatencyS
			}
			g.launchInst = append(g.launchInst, int32(inst.ID))
			g.launchT = append(g.launchT, launchT)
			queue = append(queue, inst)
			pending[inst.ID] = -1
		}
	}

	// The Kahn walk itself, recording resolution order instead of times.
	// Every output of a queued instance is seen, so only the net filters
	// of Timer.Analyze remain. pending is -1 exactly for queued instances.
	for qi := 0; qi < len(queue); qi++ {
		inst := queue[qi]
		for _, out := range inst.Pins() {
			if !out.IsOutput || out.Net == nil || out.Net.Clock {
				continue
			}
			d, tier, scaled := netDelayParts(wm, out.Net)
			g.netD[out.Net.ID] = d
			g.netLane[out.Net.ID] = int32(unitLane)
			if scaled {
				g.netLane[out.Net.ID] = int32(tier)
			}
			for _, sink := range out.Net.Sinks {
				sid := sink.Inst.ID
				if pending[sid] < 0 {
					continue
				}
				pending[sid]--
				if pending[sid] == 0 {
					pending[sid] = -1
					// Every counted input is seen once pending reaches 0,
					// so the worst-input scan reads all of them in pin
					// order.
					g.ready = append(g.ready, int32(sid))
					for _, in := range sink.Inst.Pins() {
						if timedInput(in) {
							g.in = append(g.in, batchArc{int32(in.Net.Driver.Inst.ID), int32(in.Net.ID)})
						}
					}
					g.inOff = append(g.inOff, int32(len(g.in)))
					queue = append(queue, sink.Inst)
				}
			}
		}
	}

	// Endpoints: an input is seen iff its net's driver was queued.
	for _, inst := range nl.Instances {
		seq := !inst.IsMacro() && inst.Cell.Sequential
		if !seq && !inst.IsMacro() {
			continue
		}
		for _, pin := range inst.Pins() {
			if !timedInput(pin) || pin.Net.Driver == nil || pending[pin.Net.Driver.Inst.ID] >= 0 {
				continue
			}
			e := batchEnd{batchArc: batchArc{int32(pin.Net.Driver.Inst.ID), int32(pin.Net.ID)}}
			if seq {
				e.setup = inst.Cell.SetupS
			}
			g.ends = append(g.ends, e)
		}
	}
	if len(g.ends) == 0 {
		return nil, fmt.Errorf("sta: design has no timing endpoints")
	}
	return g, nil
}

// timedInput reports whether pin is an input that carries a data
// arrival: connected and not on a clock net (the Timer's pending count).
func timedInput(pin *netlist.Pin) bool {
	return !pin.IsOutput && pin.Net != nil && !pin.Net.Clock
}

// BatchTimer prices up to MaxCorners process corners per pass over one
// shared BatchGraph. It is the per-goroutine scratch: arrivals per
// instance and corner (arr[inst*S + k], S = MaxCorners) and the per-tier
// scale lanes (scl[tier*S + k]) of the corners being priced.
//
// Corner k of one AnalyzeBatch call is bit-for-bit identical to a
// serial Timer pass under SetTierDelayScale(scales[k][:]). The graph
// replays the serial walk's order; each arrival is the same sum of the
// same operands — the driver's arrival plus the product d·scale[tier],
// rounded on its own — folded over the inputs in pin order with the
// same >= tie rule; and the endpoints are scanned in the same order with
// the same strict > compare. The Monte-Carlo variation engine
// (internal/vary) relies on this to swap K full graph walks for one
// flat pass without moving a single output bit.
//
// A BatchTimer is single-goroutine; distinct BatchTimers over the same
// BatchGraph may run concurrently.
type BatchTimer struct {
	g    *BatchGraph
	kmax int
	arr  []float64
	scl  []float64
}

// NewBatchTimer builds the scratch to price up to maxCorners corners
// per pass over g.
func NewBatchTimer(g *BatchGraph, maxCorners int) (*BatchTimer, error) {
	if maxCorners < 1 {
		return nil, fmt.Errorf("sta: batch size must be >= 1, got %d", maxCorners)
	}
	S := maxCorners
	bt := &BatchTimer{
		g: g, kmax: S,
		arr: make([]float64, g.nInst*S),
		scl: make([]float64, (unitLane+1)*S),
	}
	// Launch arrivals and the unit lane never change between passes:
	// passes write only ready instances and the tier lanes.
	for i, inst := range g.launchInst {
		lanes := bt.arr[int(inst)*S : int(inst)*S+S]
		for k := range lanes {
			lanes[k] = g.launchT[i]
		}
	}
	for k := range S {
		bt.scl[unitLane*S+k] = 1
	}
	return bt, nil
}

// MaxCorners returns the batch capacity fixed at construction.
func (bt *BatchTimer) MaxCorners() int { return bt.kmax }

// AnalyzeBatch runs one max-arrival propagation for len(scales) corners
// at once. scales[k] is corner k's per-tier delay multiplier (indexed by
// tech.Tier, the SetTierDelayScale convention); critOut[k] receives the
// corner's critical path in seconds. len(critOut) must equal len(scales)
// and len(scales) must not exceed MaxCorners. Only the critical path is
// produced — no slack, trace or Fmax — which is exactly what Monte-Carlo
// yield consumes per sample.
func (bt *BatchTimer) AnalyzeBatch(scales [][tech.NumTiers]float64, critOut []float64) error {
	K := len(scales)
	if K == 0 {
		return fmt.Errorf("sta: batch analyze needs at least one corner")
	}
	if K > bt.kmax {
		return fmt.Errorf("sta: batch of %d corners exceeds capacity %d", K, bt.kmax)
	}
	if len(critOut) != K {
		return fmt.Errorf("sta: critOut length %d != batch size %d", len(critOut), K)
	}
	g, S, arr, scl := bt.g, bt.kmax, bt.arr, bt.scl
	for k, sc := range scales {
		for t, s := range sc {
			scl[t*S+k] = s
		}
	}

	// Each ready instance's arrival is the >= fold, from 0, of its inputs'
	// arrivals in pin order. float64(d*s[k]) rounds the product on its
	// own, as the serial d *= scale does, so it cannot fuse with the add.
	for i, inst := range g.ready {
		w := arr[int(inst)*S:][:K]
		for k := range w {
			w[k] = 0
		}
		for _, a := range g.in[g.inOff[i]:g.inOff[i+1]] {
			src := arr[int(a.drv)*S:][:len(w)]
			s := scl[int(g.netLane[a.net])*S:][:len(w)]
			d := g.netD[a.net]
			for k := range w {
				if t := src[k] + float64(d*s[k]); t >= w[k] {
					w[k] = t
				}
			}
		}
	}

	// Endpoint scan with Timer.buildReport's strict >. A macro input's
	// setup is 0: x+0 differs from x only for x = −0, which, like +0,
	// never exceeds a worst that starts at +0 and only grows.
	worst := critOut
	for k := range worst {
		worst[k] = 0
	}
	for _, e := range g.ends {
		src := arr[int(e.drv)*S:][:len(worst)]
		s := scl[int(g.netLane[e.net])*S:][:len(worst)]
		d := g.netD[e.net]
		for k := range worst {
			if t := src[k] + float64(d*s[k]) + e.setup; t > worst[k] {
				worst[k] = t
			}
		}
	}
	return nil
}
