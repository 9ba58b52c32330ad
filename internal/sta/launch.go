package sta

import (
	"m3d/internal/cell"
)

// launchClass labels where a timing path starts.
type launchClass int

const (
	launchReg launchClass = iota
	launchMacro
	launchConst
)

func isConstKind(c *cell.Cell) bool {
	return c.Kind == cell.TieHi || c.Kind == cell.TieLo
}

// arrivalsWithLaunchClass runs max-arrival propagation (like Analyze) but
// also tracks the launch class of each pin's dominant path. Results are
// left in the Timer's arr/seen/cls scratch, indexed by Pin.ID.
func (t *Timer) arrivalsWithLaunchClass() {
	t.reset()
	nl := t.nl
	arr, seen, cls, pending := t.arr, t.seen, t.cls, t.pending
	netDelay := makeNetDelay(t.wm, t.tierScale)

	for _, inst := range nl.Instances {
		launchT := -1.0
		class := launchReg
		switch {
		case inst.IsMacro():
			launchT = inst.Macro.AccessLatencyS
			class = launchMacro
		case inst.Cell.Sequential:
			launchT = inst.Cell.ClkQS
		case isConstKind(inst.Cell):
			launchT = 0
			class = launchConst
		case pending[inst.ID] == 0:
			launchT = 0
			class = launchConst
		}
		if launchT >= 0 {
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
				if !seen[sink.ID] || tSink > arr[sink.ID] {
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
					worst := 0.0
					worstCls := launchConst
					for _, in := range sink.Inst.Pins() {
						if in.IsOutput || in.Net == nil || in.Net.Clock {
							continue
						}
						if seen[in.ID] && arr[in.ID] >= worst {
							worst = arr[in.ID]
							worstCls = cls[in.ID]
						}
					}
					for _, op := range sink.Inst.Pins() {
						if op.IsOutput {
							arr[op.ID] = worst
							seen[op.ID] = true
							cls[op.ID] = worstCls
						}
					}
					t.queue = append(t.queue, sink.Inst)
				}
			}
		}
	}
}
