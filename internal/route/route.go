// Package route implements 3D global routing over the M3D metal stack: a
// capacitated grid-cell (GCell) graph spanning the six routing layers,
// congestion-aware A* maze routing that grows each net as a tree from its
// driver, and negotiated rip-up-and-reroute. Crossings between the lower
// metals (M1–M4, below the RRAM/CNFET layers) and the upper metals
// (M5–M6) consume inter-layer vias (ILVs), whose per-GCell capacity
// derives from the PDK's ILV pitch — the resource the paper's Obs. 8
// identifies as critical.
package route

import (
	"m3d/internal/floorplan"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// Options carries what a run varies in the router.
type Options struct {
	// IncludeClock routes clock nets too — set after clock tree synthesis,
	// when the clock is a real buffered network rather than an ideal net.
	IncludeClock bool
}

// The router's fixed recipe: every flow run routes with these.
const (
	// gcellsX is the target grid width in GCells; 48 matches the placer's
	// density bins (die/48), so congestion and density maps align.
	gcellsX = 48
	// maxRipupRounds bounds negotiated rerouting: past the first round,
	// each round removes only a few percent of the overflow at Fig. 2
	// scale (Result.RipupHistory records every round).
	maxRipupRounds = 3
	// maxFanout is the largest routed net, in pins (driver included):
	// larger nets are resets and unbuffered clocks, treated as ideal
	// networks.
	maxFanout = 64
)

// Seg is one routed segment on a layer between two GCell centers (absolute
// coordinates). Vertical segments (layer changes) have A == B.
type Seg struct {
	LayerIdx int // index into PDK.RoutingLayers()
	A, B     geom.Point
}

// NetRoute is the routing result for one net.
type NetRoute struct {
	Net    *netlist.Net
	Segs   []Seg
	WLdbu  int64 // total wire length
	Vias   int   // intra-stack vias
	ILVs   int   // vias crossing the lower/upper metal boundary
	Failed bool  // the final routing left a sink unconnected
}

// Result is the full routing report.
type Result struct {
	Routes map[*netlist.Net]*NetRoute
	// TotalWLdbu is the total routed wirelength.
	TotalWLdbu int64
	// TotalVias / TotalILVs count via usage.
	TotalVias, TotalILVs int
	// OverflowEdges counts edges above capacity after the final round.
	OverflowEdges int
	// SkippedNets counts nets excluded (clock / high fanout).
	SkippedNets int
	// FailedNets counts nets with at least one unconnected sink.
	FailedNets int
	// RipupHistory records the over-capacity edge count observed at the
	// start of each negotiation round; the final entry is 0 when the
	// router converged before exhausting its rip-up rounds.
	RipupHistory []int
	// WLByLayer is wirelength per routing layer.
	WLByLayer []int64
	// GCellPitch is the routing grid pitch used (DBU); segments step
	// between gcell centers at this pitch.
	GCellPitch int64
	// Congestion maps each gcell to its worst usage/capacity ratio across
	// layers (>1 = overflow), for hot-spot inspection.
	Congestion *geom.Grid
}

// grid is the routing graph.
type grid struct {
	p      *tech.PDK
	die    geom.Rect
	layers []tech.Layer
	nx, ny int
	pitch  int64
	// boundary is the routing-layer index of the topmost lower metal (M4);
	// via edges from it to the next layer cross the RRAM/CNFET stack and
	// consume ILVs.
	boundary int

	// capacities and usage per edge family.
	capH, capV   []int32 // per-layer track capacity per gcell edge
	capUp        []int32 // via capacity per gcell between layer l and l+1
	useH, useV   []int32 // [l][y][x]
	useUp        []int32
	histH, histV []float64 // negotiated-congestion history
	histUp       []float64
}

func (g *grid) idx(l, x, y int) int { return (l*g.ny+y)*g.nx + x }

func (g *grid) nNodes() int { return len(g.layers) * g.nx * g.ny }

func newGrid(f *floorplan.Floorplan) *grid {
	p := f.PDK
	layers := p.RoutingLayers()
	die := f.Die
	nx := gcellsX
	pitch := die.W() / int64(nx)
	if pitch < 4*p.RowHeight {
		pitch = 4 * p.RowHeight
		nx = int(die.W()/pitch) + 1
	}
	ny := int(die.H()/pitch) + 1

	g := &grid{
		p: p, die: die, layers: layers,
		nx: nx, ny: ny, pitch: pitch,
		boundary: -1,
	}
	// The boundary between lower and upper metals is the last routing layer
	// whose stack tier is SiCMOS.
	for i, L := range layers {
		if L.Tier == tech.TierSiCMOS {
			g.boundary = i
		}
	}

	n := len(layers) * nx * ny
	g.capH = make([]int32, n)
	g.capV = make([]int32, n)
	g.capUp = make([]int32, n)
	g.useH = make([]int32, n)
	g.useV = make([]int32, n)
	g.useUp = make([]int32, n)
	g.histH = make([]float64, n)
	g.histV = make([]float64, n)
	g.histUp = make([]float64, n)

	for li, L := range layers {
		tracks := int32(pitch / L.Pitch)
		if tracks < 1 {
			tracks = 1
		}
		// Derate: ~30% of tracks are reserved for the power mesh and local
		// pin escapes.
		tracks = tracks * 7 / 10
		if tracks < 1 {
			tracks = 1
		}
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := g.idx(li, x, y)
				if L.Dir == tech.DirHorizontal {
					g.capH[i] = tracks
				} else {
					g.capV[i] = tracks
				}
				if li < len(layers)-1 {
					if li == g.boundary {
						// ILV boundary: capacity from the ILV pitch, minus
						// what the RRAM arrays consume (applied below).
						per := (pitch / p.ILVPitch) * (pitch / p.ILVPitch) / 8
						if per < 1 {
							per = 1
						}
						g.capUp[i] = int32(per)
					} else {
						g.capUp[i] = tracks * 2
					}
				}
			}
		}
	}

	// RRAM array footprints consume nearly all ILVs beneath them (every bit
	// cell uses m vias): zero out ILV capacity under CNFET-tier blockages.
	for _, blk := range f.Blockages(tech.TierCNFET) {
		x0, y0 := g.cellOf(blk.Lo)
		x1, y1 := g.cellOf(geom.Pt(blk.Hi.X-1, blk.Hi.Y-1))
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				g.capUp[g.idx(g.boundary, x, y)] = 0
			}
		}
	}
	return g
}

func (g *grid) cellOf(p geom.Point) (int, int) {
	x := int((p.X - g.die.Lo.X) / g.pitch)
	y := int((p.Y - g.die.Lo.Y) / g.pitch)
	if x < 0 {
		x = 0
	}
	if x >= g.nx {
		x = g.nx - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.ny {
		y = g.ny - 1
	}
	return x, y
}

func (g *grid) center(x, y int) geom.Point {
	return geom.Pt(
		g.die.Lo.X+int64(x)*g.pitch+g.pitch/2,
		g.die.Lo.Y+int64(y)*g.pitch+g.pitch/2,
	)
}

// pinLayer maps an instance to its routing access layer.
func (g *grid) pinLayer(inst *netlist.Instance) int {
	if inst.IsMacro() {
		// Macro ports present on M4 (top lower metal).
		return g.boundary
	}
	if inst.Tier == tech.TierCNFET {
		// Upper-tier cells access the first upper metal.
		return g.boundary + 1
	}
	return 0 // M1
}
