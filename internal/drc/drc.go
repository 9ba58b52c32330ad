// Package drc is the full-chip sign-off audit run at the end of the flow:
// structural netlist checks, placement legality on every device tier
// (place.Audit's rules: die containment, row/site alignment, cell
// overlap, blockage keep-outs), and routing-geometry checks (segment
// alignment to the global-routing grid, via/ILV sanity, capacity
// overflow). It complements the in-stage checks by validating the
// assembled design as a whole and returning a violation list instead of
// failing on the first problem.
package drc

import (
	"fmt"

	"m3d/internal/floorplan"
	"m3d/internal/netlist"
	"m3d/internal/place"
	"m3d/internal/route"
	"m3d/internal/tech"
)

// Kind classifies a violation.
type Kind string

// Violation kinds. A cell breaking one of place's legality rules is
// reported under the kind of the rule's name.
const (
	KindNetlist   Kind = "netlist"
	KindOffDie         = Kind(place.OffDie)
	KindOffGrid        = Kind(place.OffGrid)
	KindOverlap        = Kind(place.Overlap)
	KindBlockage       = Kind(place.Blocked)
	KindRouteGeom Kind = "route-geometry"
	KindOverflow  Kind = "route-overflow"
	KindDangling  Kind = "dangling-route"
)

// Violation is one audit finding.
type Violation struct {
	Kind Kind
	// Object names the offending instance or net.
	Object string
	// Detail is a human-readable description.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Kind, v.Object, v.Detail)
}

// Report is the audit result.
type Report struct {
	Violations []Violation
	// Checked counts audited objects per category.
	CheckedInstances, CheckedNets, CheckedSegs int
}

// Clean reports whether the design passed.
func (r *Report) Clean() bool { return len(r.Violations) == 0 }

// ByKind counts violations per kind.
func (r *Report) ByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, v := range r.Violations {
		out[v.Kind]++
	}
	return out
}

func (r *Report) add(k Kind, obj, format string, args ...interface{}) {
	r.Violations = append(r.Violations, Violation{
		Kind: k, Object: obj, Detail: fmt.Sprintf(format, args...),
	})
}

// maxViolations bounds the report size on badly broken designs.
const maxViolations = 1000

// Audit runs the full-chip checks. routes may be nil (pre-route audit).
func Audit(fp *floorplan.Floorplan, nl *netlist.Netlist, routes *route.Result) (*Report, error) {
	if fp == nil || nl == nil {
		return nil, fmt.Errorf("drc: nil floorplan or netlist")
	}
	rep := &Report{}

	// 1. Structural netlist.
	if err := nl.Check(); err != nil {
		rep.add(KindNetlist, nl.Name, "%v", err)
	}

	// 2. Placement, per tier, by place's legality rules.
	p := fp.PDK
	for _, tier := range []tech.Tier{tech.TierSiCMOS, tech.TierCNFET} {
		vs, checked := place.Audit(fp, nl, tier)
		rep.CheckedInstances += checked
		for _, v := range vs {
			rep.Violations = append(rep.Violations, Violation{Kind: Kind(v.Rule), Object: v.Cell.Name, Detail: v.Detail})
		}
	}
	// Macros: containment and pairwise overlap. Macros on *different*
	// device tiers may legally share XY (an SRAM buffer under an M3D RRAM
	// array); same-tier overlap is a violation.
	macros := nl.MacroInstances()
	for i, m := range macros {
		rep.CheckedInstances++
		b := m.Bounds(p)
		if !fp.Die.ContainsRect(b) {
			rep.add(KindOffDie, m.Name, "macro %v outside die %v", b, fp.Die)
		}
		for _, other := range macros[i+1:] {
			if m.Tier == other.Tier && b.Overlaps(other.Bounds(p)) {
				rep.add(KindOverlap, m.Name, "overlaps macro %s on tier %v", other.Name, m.Tier)
			}
		}
	}

	// 3. Routing geometry.
	if routes != nil {
		auditRoutes(rep, nl, routes)
	}

	if len(rep.Violations) > maxViolations {
		rep.Violations = rep.Violations[:maxViolations]
	}
	return rep, nil
}

func auditRoutes(rep *Report, nl *netlist.Netlist, routes *route.Result) {
	pitch := routes.GCellPitch
	for _, n := range nl.Nets {
		nr, ok := routes.Routes[n]
		if !ok {
			continue
		}
		rep.CheckedNets++
		if nr.Failed {
			rep.add(KindDangling, n.Name, "net has unrouted connections")
		}
		for _, s := range nr.Segs {
			rep.CheckedSegs++
			d := s.A.ManhattanDist(s.B)
			switch {
			case d == 0: // via
			case d == pitch && (s.A.X == s.B.X || s.A.Y == s.B.Y):
				// unit gcell step, axis aligned — fine
			default:
				rep.add(KindRouteGeom, n.Name,
					"segment %v-%v on layer %d is not a unit grid step (pitch %d)",
					s.A, s.B, s.LayerIdx, pitch)
			}
		}
	}
	if routes.OverflowEdges > 0 {
		rep.add(KindOverflow, "global", "%d routing edges above capacity", routes.OverflowEdges)
	}
}
