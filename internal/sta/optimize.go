package sta

import (
	"m3d/internal/cell"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// OptimizeResult reports the post-route optimization pass.
type OptimizeResult struct {
	// Upsized is the number of driver cells swapped to stronger drives.
	Upsized int
	// AddedAreaNM2 is the footprint growth from upsizing (the "buffer
	// area" the paper's 3D flows reduce by ~20%).
	AddedAreaNM2 int64
	// Rounds is the number of optimize+analyze iterations performed.
	Rounds int
	// Final is the report after the last round.
	Final *Report
}

// OptimizeDrives is the flow's post-route optimization: it repeatedly runs
// STA and upsizes drivers of nets whose wire delay dominates, until the
// target period is met or no further improvement is found. libs maps each
// tier to the library used for cells on that tier.
func OptimizeDrives(p *tech.PDK, nl *netlist.Netlist, wm *WireModel,
	libs map[tech.Tier]*cell.Library, targetPeriodS float64, maxRounds int) (*OptimizeResult, error) {
	return NewTimer(p, nl, wm).OptimizeDrives(libs, targetPeriodS, maxRounds)
}

// OptimizeDrives runs the upsizing loop on the Timer: the timing graph is
// built once and every round re-runs Analyze over the upsized netlist.
func (tm *Timer) OptimizeDrives(libs map[tech.Tier]*cell.Library,
	targetPeriodS float64, maxRounds int) (*OptimizeResult, error) {

	if maxRounds <= 0 {
		maxRounds = 4
	}
	res := &OptimizeResult{}
	rep, err := tm.Analyze(targetPeriodS)
	if err != nil {
		return nil, err
	}
	for round := 0; round < maxRounds; round++ {
		res.Final = rep
		res.Rounds = round + 1
		if rep.Met() {
			return res, nil
		}
		upsized, addedArea := tm.upsizeRound(libs, targetPeriodS)
		res.Upsized += upsized
		res.AddedAreaNM2 += addedArea
		if upsized == 0 {
			return res, nil
		}
		rep, err = tm.Analyze(targetPeriodS)
		if err != nil {
			return nil, err
		}
	}
	res.Final = rep
	return res, nil
}

// upsizeRound upsizes every driver whose net delay exceeds its fair share
// of the period (a cheap heuristic that matches how ECO sizing behaves)
// and returns the number of upsized nets and the footprint growth.
func (tm *Timer) upsizeRound(libs map[tech.Tier]*cell.Library,
	targetPeriodS float64) (upsized int, addedAreaNM2 int64) {

	nl, wm := tm.nl, tm.wm
	budget := targetPeriodS / 12
	for _, n := range nl.Nets {
		if n.Clock || n.Driver == nil || n.Driver.Inst.IsMacro() {
			continue
		}
		drv := n.Driver.Inst
		lib, ok := libs[drv.Tier]
		if !ok {
			continue
		}
		rw, cw := wm.NetRC(n)
		load := cw + n.SinkCapF()
		cur := drv.Cell
		delay := cur.Delay(load) + 0.69*rw*(cw/2+n.SinkCapF())
		if delay <= budget {
			continue
		}
		best := lib.UpsizeFor(cur.Kind, load, budget-0.69*rw*(cw/2+n.SinkCapF()))
		if best != nil && best.Drive > cur.Drive {
			addedAreaNM2 += best.AreaNM2 - cur.AreaNM2
			drv.Cell = best
			upsized++
		}
	}
	return upsized, addedAreaNM2
}
