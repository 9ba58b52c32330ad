// Package netlist provides the gate-level design database shared by the
// synthesis, floorplanning, placement, routing, timing, and power stages:
// standard-cell and hard-macro instances connected by nets.
//
// Positions are filled in by floorplanning (macros) and placement (cells);
// tiers are filled in by the M3D tier-assignment step. A freshly synthesized
// netlist has every movable instance at the origin on TierSiCMOS.
package netlist

import (
	"fmt"

	"m3d/internal/cell"
	"m3d/internal/geom"
	"m3d/internal/tech"
)

// Blockage is a keep-out rectangle contributed by a macro, expressed
// relative to the macro origin. Tier identifies which device tier's
// placement it blocks.
type Blockage struct {
	Tier tech.Tier
	Rect geom.Rect
}

// MacroRef describes a hard macro master (RRAM bank, SRAM buffer, ...).
// Geometry is fixed; Blockages list the per-tier keep-outs the macro imposes
// when placed (the paper's "partial blockage" of RRAM arrays vs "full
// blockage" of peripherals).
type MacroRef struct {
	Kind          string
	Width, Height int64
	// PinCapF is the input capacitance seen on each macro port.
	PinCapF float64
	// Blockages are placement keep-outs relative to the macro origin.
	Blockages []Blockage
	// LeakageW is the macro's static power.
	LeakageW float64
	// AccessEnergyJ is the per-access dynamic energy (one port event).
	AccessEnergyJ float64
	// AccessLatencyS is the clock-to-data latency of macro output ports
	// (e.g. the RRAM array read latency); used as the launch time of macro
	// outputs in timing analysis.
	AccessLatencyS float64
}

// Area returns the macro footprint in nm².
func (m *MacroRef) Area() int64 { return m.Width * m.Height }

// Instance is one placed object: either a standard cell (Cell != nil) or a
// hard macro (Macro != nil), never both.
type Instance struct {
	ID   int
	Name string

	Cell  *cell.Cell
	Macro *MacroRef

	// Fixed instances are pre-placed by floorplanning and cannot move.
	Fixed bool
	// Tier is the device tier the instance is assigned to.
	Tier tech.Tier
	// Pos is the lower-left corner of the instance.
	Pos geom.Point
	// Group is the 1-based index of the compute sub-system the instance
	// belongs to; 0 means ungrouped. Floorplanning derives one placement
	// region per group and placement keeps each group inside it.
	Group int

	pins []*Pin
}

// IsMacro reports whether the instance is a hard macro.
func (inst *Instance) IsMacro() bool { return inst.Macro != nil }

// Width returns the instance width in DBU given the PDK site geometry.
func (inst *Instance) Width(p *tech.PDK) int64 {
	if inst.IsMacro() {
		return inst.Macro.Width
	}
	return int64(inst.Cell.Sites) * p.SiteWidth
}

// Height returns the instance height in DBU.
func (inst *Instance) Height(p *tech.PDK) int64 {
	if inst.IsMacro() {
		return inst.Macro.Height
	}
	return p.RowHeight
}

// Bounds returns the instance rectangle at its current position.
func (inst *Instance) Bounds(p *tech.PDK) geom.Rect {
	return geom.Rect{
		Lo: inst.Pos,
		Hi: geom.Pt(inst.Pos.X+inst.Width(p), inst.Pos.Y+inst.Height(p)),
	}
}

// AreaNM2 returns the instance footprint area.
func (inst *Instance) AreaNM2(p *tech.PDK) int64 {
	return inst.Width(p) * inst.Height(p)
}

// Pins returns the instance's pins in creation order.
func (inst *Instance) Pins() []*Pin { return inst.pins }

// Pin is one connection point of an instance.
type Pin struct {
	// ID is the pin's dense index in netlist creation order; slice-based
	// stages (STA arrival arrays, router scratch) key on it instead of
	// hashing pointers.
	ID       int
	Inst     *Instance
	Name     string
	IsOutput bool
	// CapF is the pin input capacitance (0 for outputs).
	CapF float64
	// Offset is the pin location relative to the instance origin.
	Offset geom.Point
	Net    *Net
}

// Loc returns the pin's absolute location.
func (p *Pin) Loc() geom.Point { return p.Inst.Pos.Add(p.Offset) }

// Net connects one driver pin to zero or more sink pins.
type Net struct {
	ID     int
	Name   string
	Driver *Pin
	Sinks  []*Pin
	// Clock marks clock-tree nets (excluded from signal routing metrics,
	// toggling every cycle in power analysis).
	Clock bool
	// Activity is the switching activity factor (transitions per cycle).
	Activity float64
}

// Pins returns driver plus sinks.
func (n *Net) Pins() []*Pin {
	out := make([]*Pin, 0, 1+len(n.Sinks))
	if n.Driver != nil {
		out = append(out, n.Driver)
	}
	return append(out, n.Sinks...)
}

// SinkCapF returns the total sink pin capacitance on the net.
func (n *Net) SinkCapF() float64 {
	var c float64
	for _, s := range n.Sinks {
		c += s.CapF
	}
	return c
}

// HPWL returns the half-perimeter wirelength of the bounding box of the
// net's pin locations, 0 for fewer than two pins: the placement
// wirelength estimate and the placer's cost function. It is the
// placement hot loop, so the box grows over the driver and sinks without
// building a point slice.
func (n *Net) HPWL() int64 {
	var lo, hi geom.Point
	count := 0
	grow := func(p *Pin) {
		at := p.Loc()
		if count == 0 {
			lo, hi = at, at
		} else {
			if at.X < lo.X {
				lo.X = at.X
			}
			if at.X > hi.X {
				hi.X = at.X
			}
			if at.Y < lo.Y {
				lo.Y = at.Y
			}
			if at.Y > hi.Y {
				hi.Y = at.Y
			}
		}
		count++
	}
	if n.Driver != nil {
		grow(n.Driver)
	}
	for _, s := range n.Sinks {
		grow(s)
	}
	if count < 2 {
		return 0
	}
	return (hi.X - lo.X) + (hi.Y - lo.Y)
}

// Netlist is the design database.
type Netlist struct {
	Name      string
	Instances []*Instance
	Nets      []*Net

	// pins holds every pin in creation order, indexed by Pin.ID.
	pins []*Pin
}

// NumPins returns the total pin count; Pin.ID values are dense in
// [0, NumPins).
func (nl *Netlist) NumPins() int { return len(nl.pins) }

// PinByID returns the pin with the given dense ID.
func (nl *Netlist) PinByID(id int) *Pin { return nl.pins[id] }

// New creates an empty netlist.
func New(name string) *Netlist {
	return &Netlist{Name: name}
}

// AddCell appends a standard-cell instance.
func (nl *Netlist) AddCell(name string, c *cell.Cell) *Instance {
	inst := &Instance{
		ID:   len(nl.Instances),
		Name: name,
		Cell: c,
		Tier: c.Tier,
	}
	nl.Instances = append(nl.Instances, inst)
	return inst
}

// AddMacro appends a hard-macro instance on the given tier.
func (nl *Netlist) AddMacro(name string, m *MacroRef, tier tech.Tier) *Instance {
	inst := &Instance{
		ID:    len(nl.Instances),
		Name:  name,
		Macro: m,
		Tier:  tier,
		Fixed: true,
	}
	nl.Instances = append(nl.Instances, inst)
	return inst
}

// AddNet creates a named net with the given activity factor.
func (nl *Netlist) AddNet(name string, activity float64) *Net {
	n := &Net{ID: len(nl.Nets), Name: name, Activity: activity}
	nl.Nets = append(nl.Nets, n)
	return n
}

// AddPin attaches a new pin to inst and connects it to net. Output pins
// become the net driver; a second driver is refused with an error and
// the netlist is left unchanged.
func (nl *Netlist) AddPin(inst *Instance, name string, isOutput bool, capF float64, net *Net) (*Pin, error) {
	if isOutput && net != nil && net.Driver != nil {
		return nil, fmt.Errorf("netlist: net %q already driven by %s/%s",
			net.Name, net.Driver.Inst.Name, net.Driver.Name)
	}
	p := &Pin{
		ID:       len(nl.pins),
		Inst:     inst,
		Name:     name,
		IsOutput: isOutput,
		CapF:     capF,
		Net:      net,
	}
	nl.pins = append(nl.pins, p)
	inst.pins = append(inst.pins, p)
	if net != nil {
		if isOutput {
			net.Driver = p
		} else {
			net.Sinks = append(net.Sinks, p)
		}
	}
	return p, nil
}

// MustPin is AddPin that panics on multiple drivers; for generator code
// whose structure guarantees single drivers.
func (nl *Netlist) MustPin(inst *Instance, name string, isOutput bool, capF float64, net *Net) *Pin {
	p, err := nl.AddPin(inst, name, isOutput, capF, net)
	if err != nil {
		panic(err)
	}
	return p
}

// Stats summarizes a netlist.
type Stats struct {
	Cells        int
	Macros       int
	Nets         int
	FloatingNets int // nets with no driver or no sink
	Sequential   int
	CellAreaNM2  map[tech.Tier]int64
	MacroAreaNM2 int64
	TotalPins    int
}

// ComputeStats gathers summary statistics.
func (nl *Netlist) ComputeStats(p *tech.PDK) Stats {
	s := Stats{CellAreaNM2: make(map[tech.Tier]int64)}
	for _, inst := range nl.Instances {
		if inst.IsMacro() {
			s.Macros++
			s.MacroAreaNM2 += inst.AreaNM2(p)
		} else {
			s.Cells++
			s.CellAreaNM2[inst.Tier] += inst.AreaNM2(p)
			if inst.Cell.Sequential {
				s.Sequential++
			}
		}
		s.TotalPins += len(inst.pins)
	}
	s.Nets = len(nl.Nets)
	for _, n := range nl.Nets {
		if n.Driver == nil || len(n.Sinks) == 0 {
			s.FloatingNets++
		}
	}
	return s
}

// Check verifies structural sanity: every net has exactly one driver and at
// least one sink, every pin belongs to its instance, and IDs are dense.
func (nl *Netlist) Check() error {
	for i, inst := range nl.Instances {
		if inst.ID != i {
			return fmt.Errorf("netlist: instance %q ID %d at position %d", inst.Name, inst.ID, i)
		}
		if (inst.Cell == nil) == (inst.Macro == nil) {
			return fmt.Errorf("netlist: instance %q must be exactly one of cell or macro", inst.Name)
		}
		for _, p := range inst.pins {
			if p.Inst != inst {
				return fmt.Errorf("netlist: pin %s/%s back-pointer broken", inst.Name, p.Name)
			}
			if p.ID < 0 || p.ID >= len(nl.pins) || nl.pins[p.ID] != p {
				return fmt.Errorf("netlist: pin %s/%s ID %d not dense", inst.Name, p.Name, p.ID)
			}
		}
	}
	for i, n := range nl.Nets {
		if n.ID != i {
			return fmt.Errorf("netlist: net %q ID %d at position %d", n.Name, n.ID, i)
		}
		if n.Driver == nil {
			return fmt.Errorf("netlist: net %q has no driver", n.Name)
		}
		if !n.Driver.IsOutput {
			return fmt.Errorf("netlist: net %q driver %s is not an output", n.Name, n.Driver.Name)
		}
		if len(n.Sinks) == 0 {
			return fmt.Errorf("netlist: net %q has no sinks", n.Name)
		}
		for _, s := range n.Sinks {
			if s.IsOutput {
				return fmt.Errorf("netlist: net %q sink %s/%s is an output", n.Name, s.Inst.Name, s.Name)
			}
			if s.Net != n {
				return fmt.Errorf("netlist: net %q sink back-pointer broken", n.Name)
			}
		}
	}
	return nil
}

// TotalHPWL sums the half-perimeter wirelength over all signal nets.
func (nl *Netlist) TotalHPWL() int64 {
	var wl int64
	for _, n := range nl.Nets {
		if !n.Clock {
			wl += n.HPWL()
		}
	}
	return wl
}

// CellsOn returns the standard-cell instances assigned to the given tier.
func (nl *Netlist) CellsOn(t tech.Tier) []*Instance {
	var out []*Instance
	for _, inst := range nl.Instances {
		if !inst.IsMacro() && inst.Tier == t {
			out = append(out, inst)
		}
	}
	return out
}

// MovableCells returns all non-fixed standard-cell instances.
func (nl *Netlist) MovableCells() []*Instance {
	var out []*Instance
	for _, inst := range nl.Instances {
		if !inst.IsMacro() && !inst.Fixed {
			out = append(out, inst)
		}
	}
	return out
}

// MacroInstances returns all hard-macro instances.
func (nl *Netlist) MacroInstances() []*Instance {
	var out []*Instance
	for _, inst := range nl.Instances {
		if inst.IsMacro() {
			out = append(out, inst)
		}
	}
	return out
}
