// Package sta implements static timing analysis over a placed-and-routed
// netlist: lumped-RC wire delays derived from the global routes (Elmore
// approximation), NLDM-style cell delays from the library characterization,
// topological arrival-time propagation, setup checks at every flip-flop,
// and an achieved-frequency report. A post-route drive optimization pass
// (the flow's "post-route optimization to meet power and timing") upsizes
// drivers on failing paths.
//
// Each timing question has one walk, and every walk starts from one
// launch rule (launchOf): Timer.Analyze runs the max-arrival walk
// (setup, the critical path, and the launch classes GroupEndpoints
// reads), Timer.AnalyzeHold the min-arrival walk (hold), and
// CompileBatch the Kahn walk once per design, so that a BatchTimer can
// price many process corners of the max-arrival question at once. The
// serial Timer is the BatchTimer's bit-for-bit oracle.
package sta

import (
	"fmt"
	"slices"

	"m3d/internal/netlist"
	"m3d/internal/route"
	"m3d/internal/tech"
)

// WireModel converts a net into a lumped resistance/capacitance pair. When
// routes are available it sums segment RC per layer plus via and ILV
// parasitics; otherwise it estimates from HPWL with average lower-metal RC.
type WireModel struct {
	p      *tech.PDK
	routes *route.Result
	layers []tech.Layer
	// fallback per-DBU parasitics.
	rPerDBU, cPerDBU float64

	// Per-net RC cache over the dense Net.ID space, filled lazily. Only
	// nets with committed routes are cached: their segment walk is a pure
	// function of the static routing result, while the HPWL fallback
	// tracks live pin positions and must stay uncached. The cache makes a
	// WireModel single-goroutine (like the Timer that owns it).
	rcR, rcC []float64
	rcOK     []bool
}

// NewWireModel builds a wire model; routes may be nil (pre-route estimate).
func NewWireModel(p *tech.PDK, routes *route.Result) *WireModel {
	layers := p.RoutingLayers()
	// Average of M1/M2 for the pre-route estimate.
	r := (layers[0].ROhmPerUm + layers[1].ROhmPerUm) / 2 / 1000.0
	c := (layers[0].CfFPerUm + layers[1].CfFPerUm) / 2 / 1000.0 * 1e-15
	return &WireModel{p: p, routes: routes, layers: layers, rPerDBU: r, cPerDBU: c}
}

// NetRC returns the lumped wire resistance (ohm) and capacitance (F) of n.
func (w *WireModel) NetRC(n *netlist.Net) (rOhm, cF float64) {
	if w.routes != nil {
		if n.ID < len(w.rcOK) && w.rcOK[n.ID] {
			return w.rcR[n.ID], w.rcC[n.ID]
		}
		if nr, ok := w.routes.Routes[n]; ok && len(nr.Segs) > 0 {
			for _, s := range nr.Segs {
				L := w.layers[s.LayerIdx]
				lenDBU := float64(s.A.ManhattanDist(s.B))
				rOhm += L.ROhmPerUm * lenDBU / 1000.0
				cF += L.CfFPerUm * lenDBU / 1000.0 * 1e-15
			}
			rOhm += float64(nr.Vias) * w.p.ILVResistanceOhm / 4
			cF += float64(nr.Vias) * w.p.ILVCapF / 4
			rOhm += float64(nr.ILVs) * w.p.ILVResistanceOhm
			cF += float64(nr.ILVs) * w.p.ILVCapF
			if n.ID >= len(w.rcOK) {
				grown := n.ID + 1
				if grown < 2*len(w.rcOK) {
					grown = 2 * len(w.rcOK)
				}
				w.rcR = append(w.rcR, make([]float64, grown-len(w.rcR))...)
				w.rcC = append(w.rcC, make([]float64, grown-len(w.rcC))...)
				w.rcOK = append(w.rcOK, make([]bool, grown-len(w.rcOK))...)
			}
			w.rcR[n.ID], w.rcC[n.ID] = rOhm, cF
			w.rcOK[n.ID] = true
			return rOhm, cF
		}
	}
	wl := float64(n.HPWL())
	return w.rPerDBU * wl, w.cPerDBU * wl
}

// PathPoint is one pin on the critical path.
type PathPoint struct {
	Inst    string
	Pin     string
	Arrival float64
}

// Report is the STA result.
type Report struct {
	// CriticalPathS is the worst launch-to-capture delay including setup.
	CriticalPathS float64
	// FmaxHz is 1 / CriticalPathS.
	FmaxHz float64
	// WorstSlackS is slack at the target period (negative = violated).
	WorstSlackS float64
	// TargetPeriodS echoes the constraint.
	TargetPeriodS float64
	// Endpoints is the number of timing endpoints checked.
	Endpoints int
	// CriticalPath lists the pins of the worst path, launch to capture.
	CriticalPath []PathPoint
}

// Met reports whether the target period is met.
func (r *Report) Met() bool { return r.WorstSlackS >= 0 }

// Timer runs repeated timing passes over one netlist with slice-indexed
// bookkeeping: arrival times, predecessor links, and launch classes are
// arrays over the dense Pin.ID space, and the per-instance combinational
// dependency counts (the levelization structure) are built once at
// construction and restored by copy for every pass. This replaces the
// map[*Pin]float64 / map[*Instance]*node bookkeeping that dominated STA
// allocations, and lets OptimizeDrives rerun analysis each round without
// rebuilding anything.
//
// Analyze runs the max-arrival walk (maxArrivals), which also records
// each pin's dominant launch class in cls for GroupEndpoints; AnalyzeHold
// runs the min-arrival walk over the same scratch. Both seed their walks
// from the launch rule (launchOf).
//
// A Timer is single-goroutine; the netlist topology (instances, pins,
// nets) must not change between passes. Cell pointer swaps (drive
// upsizing) are fine — cell-dependent delays are read during the pass.
type Timer struct {
	p  *tech.PDK
	nl *netlist.Netlist
	wm *WireModel

	// pendingInit is the per-instance count of connected non-clock input
	// pins, indexed by Instance.ID — the static levelization structure.
	pendingInit []int32

	// Per-pass scratch, reused across passes.
	pending []int32       // per instance: remaining inputs; -1 = resolved
	arr     []float64     // per pin: arrival time
	seen    []bool        // per pin: arrival computed
	from    []int32       // per pin: predecessor Pin.ID, -1 = launch
	cls     []launchClass // per pin: launch class of the dominant path
	queue   []*netlist.Instance

	// tierScale, when non-nil, multiplies every driven-arc delay by the
	// driver tier's entry (indexed by tech.Tier) — the per-sample corner
	// hook the Monte-Carlo variation engine (internal/vary) drives. nil
	// (the default) is nominal timing.
	tierScale []float64

	stats Stats
}

// Stats counts the Timer's analysis work since construction.
type Stats struct {
	// FullPasses counts complete max-arrival propagations (Analyze).
	FullPasses int
}

// Stats returns the Timer's accumulated work counters.
func (t *Timer) Stats() Stats { return t.stats }

// SetTierDelayScale installs per-tier multiplicative delay scales,
// indexed by tech.Tier (so scale[tech.TierCNFET] stretches every
// CNFET-driven arc). Passing nil restores nominal timing. The scale is
// copied. An all-ones scale produces bit-for-bit nominal results.
func (t *Timer) SetTierDelayScale(scale []float64) {
	if scale == nil {
		t.tierScale = nil
	} else {
		t.tierScale = append(t.tierScale[:0], scale...)
	}
}

// NewTimer builds a reusable timing engine for the netlist; wm may be
// nil (pre-route estimates).
func NewTimer(p *tech.PDK, nl *netlist.Netlist, wm *WireModel) *Timer {
	if wm == nil {
		wm = NewWireModel(p, nil)
	}
	t := &Timer{
		p: p, nl: nl, wm: wm,
		pendingInit: make([]int32, len(nl.Instances)),
		pending:     make([]int32, len(nl.Instances)),
		arr:         make([]float64, nl.NumPins()),
		seen:        make([]bool, nl.NumPins()),
		from:        make([]int32, nl.NumPins()),
		cls:         make([]launchClass, nl.NumPins()),
	}
	for _, inst := range nl.Instances {
		for _, pin := range inst.Pins() {
			if timedInput(pin) {
				t.pendingInit[inst.ID]++
			}
		}
	}
	return t
}

// timedInput reports whether pin is an input that carries a data
// arrival: connected and not on a clock net (the Timer's pending count).
func timedInput(pin *netlist.Pin) bool {
	return !pin.IsOutput && pin.Net != nil && !pin.Net.Clock
}

// launch restores the per-pass scratch and starts a fresh propagation:
// every instance the launch rule starts paths at has its outputs set to
// its launch time and class, and is queued as resolved (pending -1).
func (t *Timer) launch() {
	copy(t.pending, t.pendingInit)
	for i := range t.seen {
		t.seen[i] = false
		t.from[i] = -1
	}
	t.queue = t.queue[:0]
	for _, inst := range t.nl.Instances {
		at, class, ok := launchOf(inst, t.pending[inst.ID])
		if !ok {
			continue
		}
		for _, pin := range inst.Pins() {
			if pin.IsOutput {
				t.arr[pin.ID] = at
				t.seen[pin.ID] = true
				t.cls[pin.ID] = class
			}
		}
		t.queue = append(t.queue, inst)
		t.pending[inst.ID] = -1
	}
}

// Analyze runs STA at the given target clock period.
func Analyze(p *tech.PDK, nl *netlist.Netlist, wm *WireModel, targetPeriodS float64) (*Report, error) {
	return NewTimer(p, nl, wm).Analyze(targetPeriodS)
}

// Analyze runs max-arrival STA at the given target clock period, reusing
// the Timer's graph and scratch.
func (t *Timer) Analyze(targetPeriodS float64) (*Report, error) {
	if targetPeriodS <= 0 {
		return nil, fmt.Errorf("sta: target period must be positive, got %g", targetPeriodS)
	}
	t.maxArrivals()
	t.stats.FullPasses++
	return t.buildReport(targetPeriodS)
}

// maxArrivals is the package's only max-arrival walk: a Kahn traversal
// from the launch points that leaves every reached pin's worst arrival,
// its predecessor and its dominant path's launch class in the arr/seen/
// from/cls scratch. A sink takes a strictly later arrival (>); a
// resolved instance's outputs take its worst timed input, folded from 0
// in pin order with >=. BatchTimer.AnalyzeBatch replays the same order
// and rules over a compiled graph.
func (t *Timer) maxArrivals() {
	t.launch()
	arr, seen, from, cls, pending := t.arr, t.seen, t.from, t.cls, t.pending
	netDelay := makeNetDelay(t.wm, t.tierScale)

	for qi := 0; qi < len(t.queue); qi++ {
		inst := t.queue[qi]
		for _, out := range inst.Pins() {
			if !out.IsOutput || out.Net == nil || out.Net.Clock {
				continue
			}
			if !seen[out.ID] {
				continue
			}
			tOut := arr[out.ID]
			d := netDelay(out.Net)
			for _, sink := range out.Net.Sinks {
				tSink := tOut + d
				if !seen[sink.ID] || tSink > arr[sink.ID] {
					arr[sink.ID] = tSink
					seen[sink.ID] = true
					from[sink.ID] = int32(out.ID)
					cls[sink.ID] = cls[out.ID]
				}
				sid := sink.Inst.ID
				if pending[sid] < 0 {
					continue // launch point; D pins are endpoints only
				}
				pending[sid]--
				if pending[sid] == 0 {
					pending[sid] = -1
					// Compute output arrivals: max input arrival + cell delay.
					worstIn := 0.0
					worstFrom, worstCls := int32(-1), launchConst
					for _, in := range sink.Inst.Pins() {
						if timedInput(in) && seen[in.ID] && arr[in.ID] >= worstIn {
							worstIn = arr[in.ID]
							worstFrom, worstCls = int32(in.ID), cls[in.ID]
						}
					}
					// The cell's intrinsic and drive delay are charged on the
					// output net arc (netDelay), so the output pin launches
					// at the worst input arrival.
					for _, op := range sink.Inst.Pins() {
						if op.IsOutput {
							arr[op.ID] = worstIn
							seen[op.ID] = true
							from[op.ID] = worstFrom
							cls[op.ID] = worstCls
						}
					}
					t.queue = append(t.queue, sink.Inst)
				}
			}
		}
	}
}

// buildReport scans the timing endpoints and traces the critical path
// over the arr/seen/from scratch maxArrivals just filled.
func (t *Timer) buildReport(targetPeriodS float64) (*Report, error) {
	nl := t.nl
	arr, seen, from := t.arr, t.seen, t.from

	// Endpoints: DFF D pins (+ setup), macro input pins.
	rep := &Report{TargetPeriodS: targetPeriodS}
	var worst float64
	var worstPin *netlist.Pin
	for _, inst := range nl.Instances {
		seq := !inst.IsMacro() && inst.Cell.Sequential
		mac := inst.IsMacro()
		if !seq && !mac {
			continue
		}
		for _, pin := range inst.Pins() {
			if !timedInput(pin) || !seen[pin.ID] {
				continue
			}
			tEnd := arr[pin.ID]
			if seq {
				tEnd += inst.Cell.SetupS
			}
			rep.Endpoints++
			if tEnd > worst {
				worst = tEnd
				worstPin = pin
			}
		}
	}
	if rep.Endpoints == 0 {
		return nil, fmt.Errorf("sta: design has no timing endpoints")
	}
	rep.CriticalPathS = worst
	if worst > 0 {
		rep.FmaxHz = 1 / worst
	}
	rep.WorstSlackS = targetPeriodS - worst

	// Trace the critical path from the capture pin back along the
	// predecessor links, then reverse it to launch-to-capture order. (A
	// gate's input and output share one arrival, so the order cannot be
	// recovered by sorting on arrival.)
	if worstPin != nil {
		for id := int32(worstPin.ID); id >= 0; id = from[id] {
			pin := nl.PinByID(int(id))
			rep.CriticalPath = append(rep.CriticalPath, PathPoint{
				Inst: pin.Inst.Name, Pin: pin.Name, Arrival: arr[id],
			})
			if len(rep.CriticalPath) > 10000 {
				break
			}
		}
		slices.Reverse(rep.CriticalPath)
	}
	return rep, nil
}
