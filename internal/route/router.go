package route

import (
	"fmt"
	"sort"

	"m3d/internal/floorplan"
	"m3d/internal/geom"
	"m3d/internal/netlist"
)

// routedNet keeps the committed paths of one net for rip-up.
type routedNet struct {
	net   *netlist.Net
	paths [][]int
	// failed counts the sinks its latest routing left unconnected.
	failed int
	// hpwl is the net's HPWL at route time, precomputed once so the
	// work-list ordering does not recompute it O(n log n) times.
	hpwl int64
}

// sinkRef pairs a sink pin with its precomputed driver distance for the
// nearest-first ordering inside routeNet.
type sinkRef struct {
	pin  *netlist.Pin
	dist int64
}

// Route globally routes all signal nets of the placed netlist. Clock nets
// and nets above the fanout threshold are idealized (skipped). The router
// runs an initial pass plus negotiated rip-up-and-reroute rounds on
// overflowing nets, routing one net at a time in work-list order.
func Route(f *floorplan.Floorplan, nl *netlist.Netlist, opt Options) (*Result, error) {
	res, _, err := routeWork(f, nl, opt)
	return res, err
}

// routeWork is Route, also returning the routed work list.
func routeWork(f *floorplan.Floorplan, nl *netlist.Netlist, opt Options) (*Result, []*routedNet, error) {
	opt = opt.withDefaults()
	g := newGrid(f, opt)
	if g.boundary < 0 {
		return nil, nil, fmt.Errorf("route: stack has no lower-metal boundary")
	}

	res := &Result{
		Routes:     make(map[*netlist.Net]*NetRoute),
		WLByLayer:  make([]int64, len(g.layers)),
		GCellPitch: g.pitch,
	}

	var work []*routedNet
	for _, n := range nl.Nets {
		if (n.Clock && !opt.IncludeClock) || len(n.Sinks)+1 > opt.MaxFanout ||
			n.Driver == nil || len(n.Sinks) == 0 {
			res.SkippedNets++
			continue
		}
		work = append(work, &routedNet{net: n, hpwl: n.HPWL()})
	}
	// Short nets first: they lock in the cheap resources, long nets then
	// negotiate around them.
	sort.SliceStable(work, func(i, j int) bool {
		return work[i].hpwl < work[j].hpwl
	})

	s := &searcher{g: g}
	for _, rn := range work {
		rn.paths, rn.failed = s.routeNet(rn.net, rn.paths[:0])
	}

	// Negotiated rip-up and reroute.
	for round := 0; round < opt.MaxRipupRounds; round++ {
		ov := g.overflowCount(true)
		res.RipupHistory = append(res.RipupHistory, ov)
		if ov == 0 {
			break
		}
		for _, rn := range work {
			bad := false
			for _, path := range rn.paths {
				if g.pathOverflows(path) {
					bad = true
					break
				}
			}
			if !bad {
				continue
			}
			for _, path := range rn.paths {
				g.commitPathUsage(path, -1)
			}
			rn.paths, rn.failed = s.routeNet(rn.net, rn.paths[:0])
		}
	}

	finalize(g, f, work, res)
	return res, work, nil
}

// routeNet routes one net from scratch by growing a tree from the driver,
// nearest sink first: the first sink is searched from the driver, every
// later one from the whole tree so far, and a sink already on the tree
// needs no path. Each found path is committed to the grid before the next
// sink is routed and appended to dst, which is returned along with the
// count of unroutable sinks.
func (s *searcher) routeNet(n *netlist.Net, dst [][]int) ([][]int, int) {
	g := s.g
	failed := 0
	dx, dy := g.cellOf(n.Driver.Loc())
	src := g.idx(g.pinLayer(n.Driver.Inst), dx, dy)
	sinks := s.sinkScratch[:0]
	dloc := n.Driver.Loc()
	for _, sk := range n.Sinks {
		sinks = append(sinks, sinkRef{pin: sk, dist: sk.Loc().ManhattanDist(dloc)})
	}
	sort.SliceStable(sinks, func(i, j int) bool {
		return sinks[i].dist < sinks[j].dist
	})
	s.sinkScratch = sinks
	s.plantTree(src)
	for _, sr := range sinks {
		sx, sy := g.cellOf(sr.pin.Loc())
		d := g.idx(g.pinLayer(sr.pin.Inst), sx, sy)
		if s.isOnTree(d) {
			continue
		}
		path := s.astar(src, d)
		if path == nil {
			failed++
			continue
		}
		g.commitPathUsage(path, +1)
		s.growTree(path)
		dst = append(dst, path)
	}
	return dst, failed
}

// finalize converts the committed paths into the Result's accounting.
func finalize(g *grid, f *floorplan.Floorplan, work []*routedNet, res *Result) {
	for _, rn := range work {
		nr := &NetRoute{Net: rn.net, Failed: rn.failed > 0}
		for _, path := range rn.paths {
			segs, wl, vias, ilvs := g.describe(path)
			nr.Segs = append(nr.Segs, segs...)
			nr.WLdbu += wl
			nr.Vias += vias
			nr.ILVs += ilvs
		}
		if nr.Failed {
			res.FailedNets++
		}
		res.Routes[rn.net] = nr
		res.TotalWLdbu += nr.WLdbu
		res.TotalVias += nr.Vias
		res.TotalILVs += nr.ILVs
		for _, s := range nr.Segs {
			if s.A != s.B {
				res.WLByLayer[s.LayerIdx] += s.A.ManhattanDist(s.B)
			}
		}
	}
	res.OverflowEdges = g.overflowCount(false)
	res.Congestion = g.congestionGrid(f)
}

// congestionGrid summarizes per-gcell routing utilization: for each cell,
// the maximum usage/capacity ratio across layers and edge families.
func (g *grid) congestionGrid(f *floorplan.Floorplan) *geom.Grid {
	out := geom.NewGrid(f.Die, g.pitch)
	for l := 0; l < len(g.layers); l++ {
		for y := 0; y < g.ny && y < out.NY; y++ {
			for x := 0; x < g.nx && x < out.NX; x++ {
				i := g.idx(l, x, y)
				worst := out.At(x, y)
				check := func(use, capacity int32) {
					if capacity <= 0 {
						return
					}
					if u := float64(use) / float64(capacity); u > worst {
						worst = u
					}
				}
				check(g.useH[i], g.capH[i])
				check(g.useV[i], g.capV[i])
				check(g.useUp[i], g.capUp[i])
				out.Set(x, y, worst)
			}
		}
	}
	return out
}

// commitPathUsage applies only the usage deltas of a path (no segment
// generation).
func (g *grid) commitPathUsage(path []int, delta int32) {
	g.applyPath(path, delta, nil)
}

// describe converts a committed path into segments and counts without
// changing usage.
func (g *grid) describe(path []int) (segs []Seg, wl int64, vias, ilvs int) {
	out := &pathDescr{}
	g.applyPath(path, 0, out)
	return out.segs, out.wl, out.vias, out.ilvs
}

type pathDescr struct {
	segs []Seg
	wl   int64
	vias int
	ilvs int
}

// applyPath walks a path once, applying a usage delta and/or collecting a
// description.
func (g *grid) applyPath(path []int, delta int32, d *pathDescr) {
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		la, xya := g.split(a)
		lb, xyb := g.split(b)
		xa, ya := xya%g.nx, xya/g.nx
		xb, yb := xyb%g.nx, xyb/g.nx
		switch {
		case la != lb:
			lo := la
			if lb < lo {
				lo = lb
			}
			if delta != 0 {
				g.useUp[g.idx(lo, xa, ya)] += delta
			}
			if d != nil {
				d.vias++
				if lo == g.boundary {
					d.ilvs++
				}
				d.segs = append(d.segs, Seg{LayerIdx: lb, A: g.center(xa, ya), B: g.center(xa, ya)})
			}
		case xa != xb:
			lo := xa
			if xb < lo {
				lo = xb
			}
			if delta != 0 {
				g.useH[g.idx(la, lo, ya)] += delta
			}
			if d != nil {
				d.wl += g.pitch
				d.segs = append(d.segs, Seg{LayerIdx: la, A: g.center(xa, ya), B: g.center(xb, yb)})
			}
		default:
			lo := ya
			if yb < lo {
				lo = yb
			}
			if delta != 0 {
				g.useV[g.idx(la, xa, lo)] += delta
			}
			if d != nil {
				d.wl += g.pitch
				d.segs = append(d.segs, Seg{LayerIdx: la, A: g.center(xa, ya), B: g.center(xb, yb)})
			}
		}
	}
}
