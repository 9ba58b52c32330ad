package sta

import (
	"fmt"

	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// BatchGraph is the corner-independent half of a batched timing pass,
// compiled once from one finished netlist: everything Timer.Analyze
// derives from topology and nominal delays, flattened into index arrays.
//
//   - The Kahn traversal (queue order, pending counts, seen flags) never
//     reads a delay value, so it is run once here. Launch instances
//     (launchOf, the rule the Timer seeds from) keep their fixed launch
//     time; the remaining instances the walk resolves are listed in the
//     order it resolves them, each with its counted inputs as (driver
//     slot, net) arcs in pin order.
//   - netlist.AddPin rejects a second driver, so a sink pin's arrival is
//     written exactly once, as arr[driver] + d·scale, and every output of
//     an instance carries the same value. Arrivals are therefore kept per
//     instance, and a sink's arrival is recomputed where it is read.
//   - An instance's arrivals live in its slot: its position in the walk's
//     queue, launches first and then the resolved instances in order. A
//     pass therefore writes the arrival rows front to back, and reads
//     drivers resolved shortly before; instances the walk never reaches
//     take no row.
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
	// launchT is the launch time of the launch instance in slot i.
	launchT []float64
	// The resolved instance in slot len(launchT)+i, the i-th in Kahn
	// order, has the inputs in[inOff[i]:inOff[i+1]].
	inOff []int32
	in    []batchArc
	// ends are the timing endpoints in report order.
	ends []batchEnd
	// netD/netLane are each reached net's nominal arc delay and scale
	// lane, indexed by Net.ID.
	netD    []float64
	netLane []int32
}

// batchArc is one timed input: the driving instance's slot and the net
// it drives the input through.
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
// wm (nil: pre-route estimates). Its walk starts from the launch rule
// (launchOf) that Timer.Analyze seeds from. It fails if the design has
// no timing endpoints, the error Timer.Analyze would return on every
// pass.
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
		launchT: make([]float64, 0, n),
		inOff:   append(make([]int32, 0, n+1), 0),
		in:      make([]batchArc, 0, inputs),
		netD:    make([]float64, len(nl.Nets)),
		netLane: make([]int32, len(nl.Nets)),
	}

	// Launch points: the package's launch rule, as the Timer seeds it.
	// slot[id] is the queue position of a queued instance.
	queue := make([]*netlist.Instance, 0, n)
	slot := make([]int32, n)
	for _, inst := range nl.Instances {
		if at, _, ok := launchOf(inst, pending[inst.ID]); ok {
			g.launchT = append(g.launchT, at)
			slot[inst.ID] = int32(len(queue))
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
					for _, in := range sink.Inst.Pins() {
						if timedInput(in) {
							g.in = append(g.in, batchArc{slot[in.Net.Driver.Inst.ID], int32(in.Net.ID)})
						}
					}
					g.inOff = append(g.inOff, int32(len(g.in)))
					slot[sid] = int32(len(queue))
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
			e := batchEnd{batchArc: batchArc{slot[pin.Net.Driver.Inst.ID], int32(pin.Net.ID)}}
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

// BatchTimer prices up to MaxCorners process corners per pass over one
// shared BatchGraph. It is the per-goroutine scratch: arrivals per
// instance slot and corner (arr[slot*S + k], S = MaxCorners) and the
// per-tier scale lanes (scl[tier*S + k]) of the corners being priced.
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
		arr: make([]float64, (len(g.launchT)+len(g.inOff)-1)*S),
		scl: make([]float64, (unitLane+1)*S),
	}
	// Launch arrivals and the unit lane never change between passes:
	// passes write only resolved instances and the tier lanes.
	for i, at := range g.launchT {
		lanes := bt.arr[i*S : i*S+S]
		for k := range lanes {
			lanes[k] = at
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

	// Each resolved instance's arrival is the >= fold, from 0, of its
	// inputs' arrivals in pin order. float64(d*s[k]) rounds the product on
	// its own, as the serial d *= scale does, so it cannot fuse with the
	// add. A resolved instance has at least one input (the walk resolved
	// it by counting one down), and the fold's first step from 0 is "t if
	// t >= 0, else 0" for every t, NaN and −0 included, so the first
	// input sets the lanes and only the rest are folded. Slots follow
	// Kahn order, so the rows are written front to back.
	launches := len(g.launchT)
	for i := range len(g.inOff) - 1 {
		w := arr[(launches+i)*S:][:K]
		ins := g.in[g.inOff[i]:g.inOff[i+1]]
		a := ins[0]
		src := arr[int(a.drv)*S:][:len(w)]
		s := scl[int(g.netLane[a.net])*S:][:len(w)]
		d := g.netD[a.net]
		for k := range w {
			t := src[k] + float64(d*s[k])
			if !(t >= 0) {
				t = 0
			}
			w[k] = t
		}
		for _, a := range ins[1:] {
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
