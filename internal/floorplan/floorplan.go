// Package floorplan implements the floorplanning stage of the RTL-to-GDS
// flow: die sizing, hard-macro placement (shelf packing with halos), the
// per-tier keep-out bookkeeping that placement and routing consume, and
// one placement region per instance group (see Region).
//
// The per-tier blockage model is where the 2D-vs-M3D difference enters the
// flow: a 2D-style RRAM bank blocks the Si tier under its whole footprint,
// while an M3D-style bank blocks only its peripheral strip there (the array
// blocks the CNFET tier instead), freeing Si area for logic.
package floorplan

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// MacroHalo is the keep-out margin around placed macros in DBU.
const MacroHalo = 2000

// Floorplan is the die plus all placement keep-outs per device tier.
type Floorplan struct {
	PDK *tech.PDK
	Die geom.Rect
	// blockages are absolute keep-out rectangles per tier.
	blockages map[tech.Tier][]geom.Rect
	// regions[g-1] is group g's placement region; empty = the die.
	regions []geom.Rect
}

// Region returns the placement region of instance group g (see
// netlist.Instance.Group): the tile PackMacros3D derived from the
// group's shelf-packed macros. Ungrouped instances (g = 0) and groups
// without such a macro get the die.
func (f *Floorplan) Region(g int) geom.Rect {
	if g >= 1 && g <= len(f.regions) && !f.regions[g-1].Empty() {
		return f.regions[g-1]
	}
	return f.Die
}

// New creates an empty floorplan on the given die.
func New(p *tech.PDK, die geom.Rect) (*Floorplan, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("floorplan: invalid PDK: %w", err)
	}
	if die.Empty() {
		return nil, fmt.Errorf("floorplan: empty die %v", die)
	}
	return &Floorplan{
		PDK:       p,
		Die:       die,
		blockages: make(map[tech.Tier][]geom.Rect),
	}, nil
}

// AddBlockage records an absolute keep-out on a tier (clipped to the die).
func (f *Floorplan) AddBlockage(tier tech.Tier, r geom.Rect) {
	c := r.Intersect(f.Die)
	if !c.Empty() {
		f.blockages[tier] = append(f.blockages[tier], c)
	}
}

// Blockages returns the keep-outs recorded for a tier.
func (f *Floorplan) Blockages(tier tech.Tier) []geom.Rect {
	return f.blockages[tier]
}

// PlaceMacro fixes a macro instance at the given lower-left corner and
// records its per-tier blockages (with halo).
func (f *Floorplan) PlaceMacro(inst *netlist.Instance, at geom.Point) error {
	if !inst.IsMacro() {
		return fmt.Errorf("floorplan: %s is not a macro", inst.Name)
	}
	inst.Pos = at
	inst.Fixed = true
	b := inst.Bounds(f.PDK)
	if !f.Die.ContainsRect(b) {
		return fmt.Errorf("floorplan: macro %s at %v exceeds die %v", inst.Name, b, f.Die)
	}
	for _, blk := range inst.Macro.Blockages {
		abs := blk.Rect.Translate(at).Inset(-MacroHalo)
		f.AddBlockage(blk.Tier, abs)
	}
	return nil
}

// PackMacros3D places macros tier-aware: primary macros (those blocking
// the Si tier under their full footprint — 2D-style banks, or any macro
// when no stacking is possible) are shelf-packed; secondary Si macros
// (SRAM buffers) are then fitted into whatever Si area remains free —
// including *under* M3D-style RRAM arrays, the paper's freed space —
// by scanning candidate positions against the per-tier keep-outs.
//
// The shelf-packed macros also fix the group regions (tileRegions), and
// a grouped secondary macro is scanned inside its group's region first,
// then over the whole die if the region has no legal spot.
func (f *Floorplan) PackMacros3D(insts []*netlist.Instance) error {
	var primary, secondary []*netlist.Instance
	for _, inst := range insts {
		if inst.Tier == tech.TierSiCMOS && !blocksFullFootprint(f.PDK, inst, tech.TierCNFET) {
			// A Si-tier macro that leaves the CNFET tier open can stack
			// under BEOL arrays.
			secondary = append(secondary, inst)
		} else if inst.Tier == tech.TierSiCMOS {
			// Si macro blocking everything: still try stacking via scan.
			secondary = append(secondary, inst)
		} else {
			primary = append(primary, inst)
		}
	}
	if err := f.PackMacros(primary); err != nil {
		return err
	}
	f.regions = f.tileRegions(primary)
	// Track same-tier macro footprints (macros on one device tier must not
	// overlap in XY even when blockage maps would allow it).
	placedByTier := map[tech.Tier][]geom.Rect{}
	for _, inst := range primary {
		placedByTier[inst.Tier] = append(placedByTier[inst.Tier], inst.Bounds(f.PDK).Inset(-MacroHalo))
	}
	for _, inst := range secondary {
		at, ok := f.scanFree(inst, f.Region(inst.Group), placedByTier)
		if !ok {
			at, ok = f.scanFree(inst, f.Die, placedByTier)
		}
		if !ok {
			return fmt.Errorf("floorplan: no legal position for macro %s (%d x %d) on die %v",
				inst.Name, inst.Width(f.PDK), inst.Height(f.PDK), f.Die)
		}
		if err := f.PlaceMacro(inst, at); err != nil {
			return err
		}
		placedByTier[inst.Tier] = append(placedByTier[inst.Tier], inst.Bounds(f.PDK).Inset(-MacroHalo))
	}
	return nil
}

// tileRegions derives one region per group from the group's first
// shelf-packed macro (its bank) by tiling the die so that every such
// group gets an equal share of the free Si area. Banks on one shelf
// (the same lower edge) share a horizontal band whose share is their
// number; inside a band each group gets a column, in its bank's
// left-to-right order. Boundaries snap to the row or site grid, and the
// outer bands and columns run to the die edges. A group without a bank
// gets an empty rect (Region then returns the die).
func (f *Floorplan) tileRegions(packed []*netlist.Instance) []geom.Rect {
	bank := map[int]geom.Point{}
	shelves := map[int64][]int{}
	var ys []int64
	n := 0
	for _, inst := range packed {
		g := inst.Group
		if _, seen := bank[g]; g < 1 || seen {
			continue
		}
		bank[g] = inst.Pos
		n = max(n, g)
		if len(shelves[inst.Pos.Y]) == 0 {
			ys = append(ys, inst.Pos.Y)
		}
		shelves[inst.Pos.Y] = append(shelves[inst.Pos.Y], g)
	}
	if n == 0 {
		return nil
	}
	slices.Sort(ys)
	shares := make([]int, len(ys))
	for s, y := range ys {
		shares[s] = len(shelves[y])
	}
	die := f.Die
	bands := f.split(die.Lo.Y, die.Hi.Y, f.PDK.RowHeight, shares, func(y int64) geom.Rect {
		return geom.R(die.Lo.X, die.Lo.Y, die.Hi.X, y)
	})

	regions := make([]geom.Rect, n)
	for s, y := range ys {
		groups := shelves[y]
		sort.Slice(groups, func(i, j int) bool { return bank[groups[i]].X < bank[groups[j]].X })
		y0, y1 := bands[s], bands[s+1]
		equal := make([]int, len(groups))
		for i := range equal {
			equal[i] = 1
		}
		cols := f.split(die.Lo.X, die.Hi.X, f.PDK.SiteWidth, equal, func(x int64) geom.Rect {
			return geom.R(die.Lo.X, y0, x, y1)
		})
		for i, g := range groups {
			regions[g-1] = geom.R(cols[i], y0, cols[i+1], y1)
		}
	}
	return regions
}

// split cuts [lo, hi) at multiples of pitch from lo into len(shares)
// consecutive intervals whose free Si areas are in proportion to shares;
// upTo(v) is the area from lo to v. It returns the len(shares)+1
// boundaries, lo first and hi last.
func (f *Floorplan) split(lo, hi, pitch int64, shares []int, upTo func(v int64) geom.Rect) []int64 {
	total := 0
	for _, s := range shares {
		total += s
	}
	whole := f.freeIn(upTo(hi))
	cuts := []int64{lo}
	acc := 0
	for _, s := range shares[:len(shares)-1] {
		acc += s
		want := whole * int64(acc) / int64(total)
		// The smallest grid step whose free area reaches want.
		n := sort.Search(int((hi-lo)/pitch), func(i int) bool { return f.freeIn(upTo(lo+int64(i)*pitch)) >= want })
		cuts = append(cuts, lo+int64(n)*pitch)
	}
	return append(cuts, hi)
}

// freeIn returns the area of r not covered by Si-tier keep-outs.
func (f *Floorplan) freeIn(r geom.Rect) int64 {
	free := r.Area()
	for _, b := range f.blockages[tech.TierSiCMOS] {
		free -= b.Intersect(r).Area()
	}
	return free
}

// blocksFullFootprint reports whether the macro's blockages cover its whole
// footprint on the given tier.
func blocksFullFootprint(p *tech.PDK, inst *netlist.Instance, tier tech.Tier) bool {
	foot := geom.R(0, 0, inst.Macro.Width, inst.Macro.Height)
	var covered int64
	for _, b := range inst.Macro.Blockages {
		if b.Tier == tier {
			covered += b.Rect.Intersect(foot).Area()
		}
	}
	return covered >= foot.Area()
}

// scanFree finds the first legal spot for a macro inside area, scanning
// rows of candidates from its lower-left corner: every blockage tier
// free, no same-tier macro overlap, inside the die.
func (f *Floorplan) scanFree(inst *netlist.Instance, area geom.Rect, placedByTier map[tech.Tier][]geom.Rect) (geom.Point, bool) {
	p := f.PDK
	w := inst.Width(p) + MacroHalo
	h := inst.Height(p) + MacroHalo
	stepX := w / 2
	if stepX < p.SiteWidth {
		stepX = p.SiteWidth
	}
	stepY := h / 2
	if stepY < p.RowHeight {
		stepY = p.RowHeight
	}
	for y := area.Lo.Y; y+h <= area.Hi.Y; y += stepY {
		for x := area.Lo.X; x+w <= area.Hi.X; x += stepX {
			at := geom.Pt(x+MacroHalo/2, y+MacroHalo/2)
			foot := geom.Rect{Lo: at, Hi: at.Add(geom.Pt(inst.Width(p), inst.Height(p)))}
			ok := true
			for _, b := range inst.Macro.Blockages {
				if !f.IsFree(b.Tier, b.Rect.Translate(at)) {
					ok = false
					break
				}
			}
			if ok {
				for _, r := range placedByTier[inst.Tier] {
					if r.Overlaps(foot) {
						ok = false
						break
					}
				}
			}
			if ok {
				return at, true
			}
		}
	}
	return geom.Point{}, false
}

// PackMacros shelf-packs the given macro instances into the die from the
// bottom-left, tallest-first, and records their blockages. It returns an
// error if they do not fit.
func (f *Floorplan) PackMacros(insts []*netlist.Instance) error {
	sorted := append([]*netlist.Instance(nil), insts...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Height(f.PDK) > sorted[j].Height(f.PDK)
	})
	x, y := f.Die.Lo.X, f.Die.Lo.Y
	var shelfH int64
	for _, inst := range sorted {
		w := inst.Width(f.PDK) + MacroHalo
		h := inst.Height(f.PDK) + MacroHalo
		if x+w > f.Die.Hi.X { // new shelf
			x = f.Die.Lo.X
			y += shelfH
			shelfH = 0
		}
		if x+w > f.Die.Hi.X || y+h > f.Die.Hi.Y {
			return fmt.Errorf("floorplan: macro %s (%d x %d) does not fit on die %v",
				inst.Name, inst.Width(f.PDK), inst.Height(f.PDK), f.Die)
		}
		if err := f.PlaceMacro(inst, geom.Pt(x, y)); err != nil {
			return err
		}
		x += w
		if h > shelfH {
			shelfH = h
		}
	}
	return nil
}

// blockedGrid rasterizes a tier's blockages into an occupancy grid where
// each cell holds the blocked area fraction.
func (f *Floorplan) blockedGrid(tier tech.Tier, pitch int64) *geom.Grid {
	g := geom.NewGrid(f.Die, pitch)
	for _, r := range f.blockages[tier] {
		g.AddRect(r, float64(r.Area()))
	}
	// Normalize to fractions of cell area.
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			ca := float64(g.CellRect(ix, iy).Area())
			if ca > 0 {
				v := g.At(ix, iy) / ca
				if v > 1 {
					v = 1
				}
				g.Set(ix, iy, v)
			}
		}
	}
	return g
}

// FreeAreaNM2 returns the approximate placeable area on a tier: die area
// minus blocked area (overlapping blockages may be double-counted; macro
// packing keeps them disjoint).
func (f *Floorplan) FreeAreaNM2(tier tech.Tier) int64 {
	free := f.Die.Area()
	g := f.blockedGrid(tier, f.gridPitch())
	var blocked float64
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			blocked += g.At(ix, iy) * float64(g.CellRect(ix, iy).Area())
		}
	}
	free -= int64(blocked)
	if free < 0 {
		free = 0
	}
	return free
}

func (f *Floorplan) gridPitch() int64 {
	p := f.Die.W() / 64
	if p < f.PDK.RowHeight {
		p = f.PDK.RowHeight
	}
	return p
}

// IsFree reports whether r is fully inside the die and overlaps no blockage
// on the tier.
func (f *Floorplan) IsFree(tier tech.Tier, r geom.Rect) bool {
	if !f.Die.ContainsRect(r) {
		return false
	}
	for _, b := range f.blockages[tier] {
		if b.Overlaps(r) {
			return false
		}
	}
	return true
}

// DensityGrid returns the blocked-fraction grid for a tier at the default
// pitch, for use as a placement density map.
func (f *Floorplan) DensityGrid(tier tech.Tier) *geom.Grid {
	return f.blockedGrid(tier, f.gridPitch())
}

// Rows enumerates the standard-cell rows of the die (full-width stripes of
// RowHeight). Placement legalization snaps cells to these.
type Row struct {
	Y      int64
	X0, X1 int64
}

// Rows returns the die's placement rows.
func (f *Floorplan) Rows() []Row {
	var rows []Row
	for y := f.Die.Lo.Y; y+f.PDK.RowHeight <= f.Die.Hi.Y; y += f.PDK.RowHeight {
		rows = append(rows, Row{Y: y, X0: f.Die.Lo.X, X1: f.Die.Hi.X})
	}
	return rows
}

// SizeDie computes a die rectangle (origin at 0,0) that fits the netlist's
// standard cells at the given utilization plus its macros, at the given
// aspect (width/height).
func SizeDie(p *tech.PDK, nl *netlist.Netlist, utilization, aspect float64) (geom.Rect, error) {
	if utilization <= 0 || utilization > 1 {
		return geom.Rect{}, fmt.Errorf("floorplan: utilization %g out of (0,1]", utilization)
	}
	if aspect <= 0 {
		aspect = 1
	}
	st := nl.ComputeStats(p)
	var cellArea int64
	for _, a := range st.CellAreaNM2 {
		cellArea += a
	}
	total := float64(cellArea)/utilization + float64(st.MacroAreaNM2)*1.1
	w := int64(math.Sqrt(total * aspect))
	h := int64(total / float64(w))
	// Snap to row/site geometry.
	w = (w/p.SiteWidth + 1) * p.SiteWidth
	h = (h/p.RowHeight + 1) * p.RowHeight
	return geom.R(0, 0, w, h), nil
}
