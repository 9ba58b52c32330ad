// Package cts implements clock tree synthesis: it replaces the synthesis
// netlist's single ideal clock net with a buffered H-tree — recursive
// geometric bisection of the clock sinks, one clock buffer per subtree,
// fanout-capped leaf nets — and reports the tree's depth, buffer count,
// estimated skew, and clock power contributors.
//
// The flow runs CTS after placement (sink locations are known) and before
// routing, exactly as a commercial flow orders it.
package cts

import (
	"fmt"
	"sort"

	"m3d/internal/cell"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/sta"
	"m3d/internal/tech"
)

// The tree's fixed recipe.
const (
	// maxLeafFanout is the sink count one leaf buffer may drive: bisection
	// stops there, so the tree's depth follows the sink count alone.
	maxLeafFanout = 16
	// bufferDrive is the drive of every inserted clock buffer; one size
	// at every level keeps the branches' delays alike.
	bufferDrive = 4
)

// Report summarizes the synthesized tree.
type Report struct {
	// Sinks is the number of clocked pins served.
	Sinks int
	// Buffers is the number of inserted clock buffers.
	Buffers int
	// Levels is the tree depth (root to leaf).
	Levels int
	// WirelengthDBU is the total HPWL of the tree's nets.
	WirelengthDBU int64
	// MaxSkewS estimates skew as the spread of root-to-leaf Elmore delays.
	MaxSkewS float64
	// BufferAreaNM2 is the area added by clock buffers.
	BufferAreaNM2 int64
}

// Synthesize rebuilds the clock distribution of nl: every sink currently
// on the root clock net is re-parented under a balanced buffered tree.
// The inserted buffers are placed at their subtree centroids (legalization
// can follow). lib provides the clock buffer cells.
func Synthesize(p *tech.PDK, nl *netlist.Netlist, lib *cell.Library) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("cts: invalid PDK: %w", err)
	}
	root := findRootClock(nl)
	if root == nil {
		return nil, fmt.Errorf("cts: netlist has no clock net")
	}
	if root.Driver == nil {
		return nil, fmt.Errorf("cts: clock net %q has no driver", root.Name)
	}
	sinks := append([]*netlist.Pin(nil), root.Sinks...)
	if len(sinks) == 0 {
		return nil, fmt.Errorf("cts: clock net %q has no sinks", root.Name)
	}

	// Detach all sinks from the root; the tree will re-drive them.
	root.Sinks = nil

	rep := &Report{Sinks: len(sinks)}
	bufCell, ok := lib.Pick(cell.ClkBuf, bufferDrive)
	if !ok {
		return nil, fmt.Errorf("cts: library has no CLKBUF_X%d", bufferDrive)
	}

	// Recursive bisection. Each call wires `parent` (a clock net) to the
	// given sinks, inserting a buffer when the group exceeds the leaf
	// fanout.
	var build func(parent *netlist.Net, group []*netlist.Pin, level int) error
	maxLevel := 0
	build = func(parent *netlist.Net, group []*netlist.Pin, level int) error {
		if level > maxLevel {
			maxLevel = level
		}
		if len(group) <= maxLeafFanout {
			for _, s := range group {
				s.Net = parent
				parent.Sinks = append(parent.Sinks, s)
			}
			return nil
		}
		// Split along the longer bounding-box axis.
		lo, hi := bbox(group)
		byX := hi.X-lo.X >= hi.Y-lo.Y
		sort.SliceStable(group, func(i, j int) bool {
			a, b := group[i].Loc(), group[j].Loc()
			if byX {
				return a.X < b.X
			}
			return a.Y < b.Y
		})
		mid := len(group) / 2
		for _, half := range [][]*netlist.Pin{group[:mid], group[mid:]} {
			if len(half) == 0 {
				continue
			}
			// Buffer for this subtree at the half's centroid.
			buf := nl.AddCell(fmt.Sprintf("ctsbuf_L%d_%d", level, len(nl.Instances)), bufCell)
			buf.Pos = centroid(half)
			rep.Buffers++
			rep.BufferAreaNM2 += bufCell.AreaNM2
			nl.MustPin(buf, "A", false, bufCell.InputCapF, parent)
			sub := nl.AddNet(fmt.Sprintf("ctsnet_L%d_%d", level, len(nl.Nets)), 2.0)
			sub.Clock = true
			nl.MustPin(buf, "Y", true, 0, sub)
			if err := build(sub, half, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(root, sinks, 0); err != nil {
		return nil, err
	}
	rep.Levels = maxLevel + 1

	// Wirelength and skew over the finished tree.
	wm := sta.NewWireModel(p, nil)
	var minD, maxD float64
	first := true
	var walk func(n *netlist.Net, acc float64)
	walk = func(n *netlist.Net, acc float64) {
		rep.WirelengthDBU += n.HPWL()
		rw, cw := wm.NetRC(n)
		d := acc
		if n.Driver != nil && !n.Driver.Inst.IsMacro() {
			d += n.Driver.Inst.Cell.Delay(cw+n.SinkCapF()) + 0.69*rw*(cw/2+n.SinkCapF())
		}
		leaf := true
		for _, s := range n.Sinks {
			if s.Inst.Cell != nil && s.Inst.Cell.Kind == cell.ClkBuf && !s.IsOutput {
				// Descend through the buffer's output net.
				for _, op := range s.Inst.Pins() {
					if op.IsOutput && op.Net != nil {
						walk(op.Net, d)
						leaf = false
					}
				}
			}
		}
		if leaf {
			if first || d < minD {
				minD = d
			}
			if first || d > maxD {
				maxD = d
			}
			first = false
		}
	}
	walk(root, 0)
	if !first {
		rep.MaxSkewS = maxD - minD
	}
	return rep, nil
}

func findRootClock(nl *netlist.Netlist) *netlist.Net {
	for _, n := range nl.Nets {
		if n.Clock {
			return n
		}
	}
	return nil
}

func bbox(pins []*netlist.Pin) (lo, hi geom.Point) {
	lo = pins[0].Loc()
	hi = lo
	for _, p := range pins[1:] {
		l := p.Loc()
		if l.X < lo.X {
			lo.X = l.X
		}
		if l.Y < lo.Y {
			lo.Y = l.Y
		}
		if l.X > hi.X {
			hi.X = l.X
		}
		if l.Y > hi.Y {
			hi.Y = l.Y
		}
	}
	return lo, hi
}

func centroid(pins []*netlist.Pin) geom.Point {
	var sx, sy int64
	for _, p := range pins {
		l := p.Loc()
		sx += l.X
		sy += l.Y
	}
	n := int64(len(pins))
	return geom.Pt(sx/n, sy/n)
}
