package place

import (
	"fmt"
	"math/rand"

	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// PartitionOptions tunes M3D tier assignment.
type PartitionOptions struct {
	// CapNM2 is the available placement area per tier; cells are balanced
	// under these caps.
	CapNM2 map[tech.Tier]int64
	// Seed makes partitioning deterministic.
	Seed int64
}

// partitionPasses bounds the improvement sweeps; the search also stops at
// the first sweep that moves no cell.
const partitionPasses = 8

// PartitionResult reports the tier assignment quality.
type PartitionResult struct {
	// CutNets is the number of signal nets spanning both tiers — each cut
	// consumes ILVs.
	CutNets int
	// AreaNM2 is the assigned cell area per tier.
	AreaNM2 map[tech.Tier]int64
	// Moved is the number of cells assigned to the upper tier.
	Moved int
}

// AssignTiers partitions the movable cells of nl between TierSiCMOS and
// TierCNFET with a Fiduccia–Mattheyses-style local search: it minimizes the
// number of tier-crossing nets subject to the per-tier area capacities.
//
// The paper's case-study M3D design keeps all logic in Si (the CNFET tier
// holds only RRAM access FETs inside the macros); this pass supports the
// "full CMOS on upper layers" extension the paper's conclusion points to,
// and the folding-style M3D baselines of refs [3-4].
func AssignTiers(nl *netlist.Netlist, p *tech.PDK, opt PartitionOptions) (PartitionResult, error) {
	capSi, okSi := opt.CapNM2[tech.TierSiCMOS]
	capCn, okCn := opt.CapNM2[tech.TierCNFET]
	if !okSi || !okCn {
		return PartitionResult{}, fmt.Errorf("place: partition needs capacities for both tiers")
	}
	cells := nl.MovableCells()
	var total int64
	for _, c := range cells {
		total += c.AreaNM2(p)
	}
	if total > capSi+capCn {
		return PartitionResult{}, fmt.Errorf("place: design area %d exceeds tier capacities %d", total, capSi+capCn)
	}

	area := map[tech.Tier]int64{tech.TierSiCMOS: 0, tech.TierCNFET: 0}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Initial assignment: fill Si to its share, overflow to CNFET, in a
	// shuffled order so connected clusters are not split systematically.
	order := rng.Perm(len(cells))
	for _, i := range order {
		c := cells[i]
		a := c.AreaNM2(p)
		if area[tech.TierSiCMOS]+a <= capSi {
			c.Tier = tech.TierSiCMOS
			area[tech.TierSiCMOS] += a
		} else if area[tech.TierCNFET]+a <= capCn {
			c.Tier = tech.TierCNFET
			area[tech.TierCNFET] += a
		} else {
			return PartitionResult{}, fmt.Errorf("place: cell %s does not fit either tier", c.Name)
		}
	}

	gain := func(c *netlist.Instance) int {
		// Cut-count change if c switches tiers: for each small net, count
		// pins on each side (excluding c).
		g := 0
		for _, pin := range c.Pins() {
			net := pin.Net
			if net == nil || net.Clock || len(net.Sinks)+1 > maxFanoutForForces {
				continue
			}
			same, other := 0, 0
			for _, q := range net.Pins() {
				if q.Inst == c {
					continue
				}
				qt := q.Inst.Tier
				if q.Inst.IsMacro() {
					qt = tech.TierSiCMOS // macro ports anchor at their Si periphery
				}
				if qt == c.Tier {
					same++
				} else {
					other++
				}
			}
			if same == 0 && other > 0 {
				g++ // net becomes uncut
			}
			if other == 0 && same > 0 {
				g-- // net becomes cut
			}
		}
		return g
	}

	for pass := 0; pass < partitionPasses; pass++ {
		improved := false
		for _, i := range rng.Perm(len(cells)) {
			c := cells[i]
			g := gain(c)
			if g <= 0 {
				continue
			}
			from, to := c.Tier, tech.TierCNFET
			if from == tech.TierCNFET {
				to = tech.TierSiCMOS
			}
			a := c.AreaNM2(p)
			capTo := capCn
			if to == tech.TierSiCMOS {
				capTo = capSi
			}
			if area[to]+a > capTo {
				continue
			}
			c.Tier = to
			area[from] -= a
			area[to] += a
			improved = true
		}
		if !improved {
			break
		}
	}

	res := PartitionResult{
		CutNets: CutNets(nl),
		AreaNM2: area,
	}
	for _, c := range cells {
		if c.Tier == tech.TierCNFET {
			res.Moved++
		}
	}
	return res, nil
}

// CutNets counts signal nets whose pins span both device tiers.
func CutNets(nl *netlist.Netlist) int {
	cut := 0
	for _, n := range nl.Nets {
		if n.Clock {
			continue
		}
		si, cn := false, false
		for _, pin := range n.Pins() {
			if pin.Inst.IsMacro() {
				si = true
				continue
			}
			switch pin.Inst.Tier {
			case tech.TierSiCMOS:
				si = true
			case tech.TierCNFET:
				cn = true
			}
		}
		if si && cn {
			cut++
		}
	}
	return cut
}
