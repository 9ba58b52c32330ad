package sta

import (
	"m3d/internal/cell"
	"m3d/internal/netlist"
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

// launchOf is the package's launch rule: whether inst starts timing
// paths and, if it does, at what time its outputs launch and with which
// class. Hard macros launch at their access latency, flip-flops at
// clock-to-Q, and tie cells and instances without a timed input
// (pending, the instance's count of timed inputs, is 0) at 0 as
// constants. Timer.Analyze, Timer.AnalyzeHold and CompileBatch all seed
// their walks from it.
func launchOf(inst *netlist.Instance, pending int32) (at float64, class launchClass, ok bool) {
	switch {
	case inst.IsMacro():
		return inst.Macro.AccessLatencyS, launchMacro, true
	case inst.Cell.Sequential:
		return inst.Cell.ClkQS, launchReg, true
	case isConstKind(inst.Cell), pending == 0:
		return 0, launchConst, true
	}
	return 0, 0, false
}
