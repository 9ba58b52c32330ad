package gds

import (
	"fmt"
	"io"

	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/route"
	"m3d/internal/tech"
)

// dieOutlineLayer is the GDS layer for the die boundary.
const dieOutlineLayer = 0

// WriteDesign streams a placed-and-routed design to w as a GDSII library
// named after the netlist, holding one structure, TOP: the die outline,
// every instance as a boundary on its tier's device layer (macros with
// datatype 1), and, when routes are given, every routed segment as a path
// on its metal layer. This is the flow's final "GDS" deliverable
// (Fig. 4b). Records go from the design to w through one reused buffer,
// so the export allocates the same few objects whatever the design's
// size.
func WriteDesign(w io.Writer, p *tech.PDK, nl *netlist.Netlist, die geom.Rect, routes *route.Result) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("gds: invalid PDK: %w", err)
	}
	if nl.Name == "" {
		return fmt.Errorf("gds: library needs a name")
	}
	rw := newRecordWriter(w)
	rw.beginLib(nl.Name, userUnitPerDBU, metersPerDBU)
	rw.beginStruct("TOP")
	if err := rw.rect(dieOutlineLayer, 0, die); err != nil {
		return err
	}

	for _, inst := range nl.Instances {
		b := inst.Bounds(p)
		if b.Empty() {
			continue
		}
		dt := int16(0)
		if inst.IsMacro() {
			dt = 1 // macros distinguishable by datatype
		}
		if err := rw.rect(deviceLayer(p, inst.Tier), dt, b); err != nil {
			return err
		}
	}

	if routes != nil {
		metals := p.RoutingLayers()
		// Iterate nets in netlist order, not map order: the stream's
		// element order (and therefore the GDS bytes) must be a pure
		// function of the design.
		for _, n := range nl.Nets {
			nr, ok := routes.Routes[n]
			if !ok {
				continue
			}
			for _, s := range nr.Segs {
				if s.A == s.B {
					continue // via; omitted from stream for size
				}
				L := metals[s.LayerIdx]
				xy := [2]geom.Point{s.A, s.B}
				if err := rw.path(L.GDSLayer, 0, int32(L.Pitch/2), xy[:]); err != nil {
					return err
				}
			}
		}
	}
	rw.empty(recENDSTR)
	return rw.finish()
}

// deviceLayer is the GDS layer of tier t's device layer, or the die
// outline's layer when the stack has none.
func deviceLayer(p *tech.PDK, t tech.Tier) int16 {
	for _, l := range p.Stack {
		if l.Kind == tech.LayerDevice && l.Tier == t {
			return l.GDSLayer
		}
	}
	return dieOutlineLayer
}
