package sta

import (
	"fmt"
	"sort"

	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// PathGroup classifies a timing endpoint by its launch and capture points.
type PathGroup string

// Path groups.
const (
	GroupRegToReg   PathGroup = "reg2reg"
	GroupMacroToReg PathGroup = "macro2reg"
	GroupRegToMacro PathGroup = "reg2macro"
	GroupInToReg    PathGroup = "in2reg"
)

// GroupSummary aggregates endpoints of one path group.
type GroupSummary struct {
	Group     PathGroup
	Endpoints int
	// WorstArrivalS is the worst data arrival (including setup where the
	// endpoint is a flip-flop).
	WorstArrivalS float64
	// WorstEndpoint names the worst pin.
	WorstEndpoint string
}

// HoldReport carries min-delay (hold) analysis results.
type HoldReport struct {
	// WorstSlackS is the smallest hold slack (negative = violation).
	WorstSlackS float64
	// Violations counts endpoints with negative hold slack.
	Violations int
	// Endpoints checked.
	Endpoints int
	// WorstEndpoint names the worst pin.
	WorstEndpoint string
}

// holdTimeS is the flip-flop hold requirement. The library's DFFs are
// built with internal delay buffering, so the requirement is small; data
// must not change within this window after the clock edge.
const holdTimeS = 15e-12

// AnalyzeHold runs min-delay analysis: for every flip-flop D input, the
// shortest launch-to-D path must exceed the hold time (with an ideal,
// zero-skew clock, any positive path delay above holdTimeS passes). It
// mirrors Analyze but propagates minimum arrivals.
func AnalyzeHold(p *tech.PDK, nl *netlist.Netlist, wm *WireModel) (*HoldReport, error) {
	return NewTimer(p, nl, wm).AnalyzeHold()
}

// AnalyzeHold runs the Timer's min-arrival pass over the shared scratch.
func (t *Timer) AnalyzeHold() (*HoldReport, error) {
	t.reset()
	nl := t.nl
	arr, seen, cls, pending := t.arr, t.seen, t.cls, t.pending
	netDelay := makeNetDelay(t.wm, t.tierScale)

	for _, inst := range nl.Instances {
		if isLaunch(inst) || pending[inst.ID] == 0 {
			launchT := 0.0
			class := launchConst
			if !inst.IsMacro() && inst.Cell.Sequential {
				launchT = inst.Cell.ClkQS
				class = launchReg
			}
			if inst.IsMacro() {
				launchT = inst.Macro.AccessLatencyS
				class = launchMacro
			}
			for _, pin := range inst.Pins() {
				if pin.IsOutput {
					arr[pin.ID] = launchT
					seen[pin.ID] = true
					cls[pin.ID] = class
				}
			}
			t.queue = append(t.queue, inst)
			pending[inst.ID] = -1
		}
	}
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
				if !seen[sink.ID] || tSink < arr[sink.ID] {
					arr[sink.ID] = tSink
					seen[sink.ID] = true
					cls[sink.ID] = cls[out.ID]
				}
				sid := sink.Inst.ID
				if pending[sid] < 0 {
					continue
				}
				pending[sid]--
				if pending[sid] == 0 {
					pending[sid] = -1
					best := 0.0
					bestCls := launchConst
					first := true
					for _, in := range sink.Inst.Pins() {
						if in.IsOutput || in.Net == nil || in.Net.Clock {
							continue
						}
						if seen[in.ID] && (first || arr[in.ID] < best) {
							best = arr[in.ID]
							bestCls = cls[in.ID]
							first = false
						}
					}
					for _, op := range sink.Inst.Pins() {
						if op.IsOutput {
							arr[op.ID] = best
							seen[op.ID] = true
							cls[op.ID] = bestCls
						}
					}
					t.queue = append(t.queue, sink.Inst)
				}
			}
		}
	}

	rep := &HoldReport{WorstSlackS: 1e9}
	for _, inst := range nl.Instances {
		if inst.IsMacro() || !inst.Cell.Sequential {
			continue
		}
		for _, pin := range inst.Pins() {
			if pin.IsOutput || pin.Net == nil || pin.Net.Clock {
				continue
			}
			if !seen[pin.ID] {
				continue
			}
			// Constant-launched paths (tie cells, input stubs) carry no
			// clock-edge race and are not hold-checked.
			if cls[pin.ID] == launchConst {
				continue
			}
			rep.Endpoints++
			slack := arr[pin.ID] - holdTimeS
			if slack < rep.WorstSlackS {
				rep.WorstSlackS = slack
				rep.WorstEndpoint = inst.Name + "/" + pin.Name
			}
			if slack < 0 {
				rep.Violations++
			}
		}
	}
	if rep.Endpoints == 0 {
		return nil, fmt.Errorf("sta: no hold endpoints")
	}
	return rep, nil
}

// isLaunch reports whether an instance's outputs start timing paths.
func isLaunch(inst *netlist.Instance) bool {
	if inst.IsMacro() {
		return true
	}
	return inst.Cell.Sequential
}

// netDelayParts computes the corner-independent pieces of one net's
// driver+wire arc delay: the nominal delay d, the driver's implementing
// tier, and whether a per-tier corner scale applies to the arc at all
// (driven nets only; const-kind tie cells contribute a hard zero that no
// corner may stretch). Splitting the arc this way lets CompileBatch
// evaluate the RC model once per net, after which a BatchTimer prices
// every corner of the arc as d·scale_k[tier] — the exact operand pair
// the serial path multiplies.
func netDelayParts(wm *WireModel, n *netlist.Net) (d float64, tier tech.Tier, scaled bool) {
	rw, cw := wm.NetRC(n)
	cTotal := cw + n.SinkCapF()
	var rd, intrinsic float64
	tier = tech.TierRRAM
	if n.Driver != nil && !n.Driver.Inst.IsMacro() {
		c := n.Driver.Inst.Cell
		if isConstKind(c) {
			return 0, tier, false
		}
		rd = c.DriveResOhm
		intrinsic = c.IntrinsicDelayS
		tier = c.Tier
	} else if n.Driver != nil {
		rd = 200
	}
	d = intrinsic + 0.69*(rd*cTotal+rw*(cw/2+n.SinkCapF()))
	return d, tier, n.Driver != nil
}

// makeNetDelay builds the shared driver+wire delay function. tierScale,
// when non-nil, multiplies each driven arc by the driver's tier entry
// (indexed by tech.Tier) — the hook the Monte-Carlo variation engine
// (internal/vary) scales per-tier cell delays through. Cell-driven arcs
// scale by the cell's implementing tier; macro-driven arcs (the ILV-rich
// memory interface) scale by the RRAM tier entry. nil means nominal, and
// an all-ones scale is bit-for-bit identical to nominal.
func makeNetDelay(wm *WireModel, tierScale []float64) func(*netlist.Net) float64 {
	return func(n *netlist.Net) float64 {
		d, tier, scaled := netDelayParts(wm, n)
		if tierScale != nil && scaled {
			d *= tierScale[tier]
		}
		return d
	}
}

// GroupEndpoints classifies every timing endpoint by path group using the
// max-arrival analysis and returns per-group summaries (sorted by group).
func GroupEndpoints(p *tech.PDK, nl *netlist.Netlist, wm *WireModel, rep *Report) ([]GroupSummary, error) {
	if rep == nil {
		return nil, fmt.Errorf("sta: nil setup report")
	}
	// Re-derive worst arrival per endpoint group from a fresh analysis:
	// we only need the endpoint pins and their launch classes, which the
	// existing Analyze exposes via the critical path; for grouping we
	// rerun arrivals here in a compact form.
	groups := map[PathGroup]*GroupSummary{}
	bump := func(g PathGroup, arrival float64, name string) {
		s, ok := groups[g]
		if !ok {
			s = &GroupSummary{Group: g}
			groups[g] = s
		}
		s.Endpoints++
		if arrival > s.WorstArrivalS {
			s.WorstArrivalS = arrival
			s.WorstEndpoint = name
		}
	}
	tm := NewTimer(p, nl, wm)
	tm.arrivalsWithLaunchClass()
	for _, inst := range nl.Instances {
		seq := !inst.IsMacro() && inst.Cell.Sequential
		mac := inst.IsMacro()
		if !seq && !mac {
			continue
		}
		for _, pin := range inst.Pins() {
			if pin.IsOutput || pin.Net == nil || pin.Net.Clock {
				continue
			}
			if !tm.seen[pin.ID] {
				continue
			}
			t := tm.arr[pin.ID]
			if seq {
				t += inst.Cell.SetupS
			}
			var g PathGroup
			switch {
			case mac && tm.cls[pin.ID] == launchMacro:
				g = GroupRegToMacro // macro endpoint; launch class irrelevant label-wise
			case mac:
				g = GroupRegToMacro
			case tm.cls[pin.ID] == launchMacro:
				g = GroupMacroToReg
			case tm.cls[pin.ID] == launchConst:
				g = GroupInToReg
			default:
				g = GroupRegToReg
			}
			bump(g, t, inst.Name+"/"+pin.Name)
		}
	}
	out := make([]GroupSummary, 0, len(groups))
	for _, s := range groups {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out, nil
}
