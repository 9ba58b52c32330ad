package place

import (
	"math/rand"
	"testing"

	"m3d/internal/cell"
	"m3d/internal/floorplan"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/synth"
	"m3d/internal/tech"
)

const mm = int64(1_000_000)

type fixture struct {
	p   *tech.PDK
	lib *cell.Library
	nl  *netlist.Netlist
	fp  *floorplan.Floorplan
}

// newFixture builds a small systolic design on a die sized for it.
func newFixture(t testing.TB, rows, cols int) *fixture {
	t.Helper()
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	b := synth.NewBuilder("dut", lib)
	b.Systolic("cs", synth.SystolicSpec{
		Rows: rows, Cols: cols, ActBits: 4, WeightBits: 4, AccBits: 12, Activity: 0.2,
	})
	if err := b.NL.Check(); err != nil {
		t.Fatal(err)
	}
	die, err := floorplan.SizeDie(p, b.NL, 0.6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(p, die)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{p: p, lib: lib, nl: b.NL, fp: fp}
}

func TestGlobalPlacementLegal(t *testing.T) {
	fx := newFixture(t, 2, 2)
	res, err := Global(fx.fp, fx.nl, tech.TierSiCMOS, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells == 0 {
		t.Fatal("nothing placed")
	}
	if err := CheckLegal(fx.fp, fx.nl, tech.TierSiCMOS); err != nil {
		t.Fatalf("placement not legal: %v", err)
	}
	if res.HPWL <= 0 {
		t.Error("HPWL should be positive")
	}
}

// TestPlacementBeatsRandom: global placement must beat a random legal
// placement of the same design, a seeded uniform scatter over the die
// followed by Legalize.
func TestPlacementBeatsRandom(t *testing.T) {
	rnd := newFixture(t, 2, 2)
	rng := rand.New(rand.NewSource(1))
	die := rnd.fp.Die
	for _, c := range rnd.nl.MovableCells() {
		c.Pos = geom.Pt(die.Lo.X+rng.Int63n(die.W()), die.Lo.Y+rng.Int63n(die.H()))
	}
	if err := Legalize(rnd.fp, rnd.nl, tech.TierSiCMOS); err != nil {
		t.Fatal(err)
	}
	random := rnd.nl.TotalHPWL()

	fx := newFixture(t, 2, 2)
	res, err := Global(fx.fp, fx.nl, tech.TierSiCMOS, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL >= random {
		t.Errorf("global placement HPWL %d should beat a random legal placement's %d", res.HPWL, random)
	}
}

func TestPlacementDeterministic(t *testing.T) {
	a := newFixture(t, 1, 2)
	b := newFixture(t, 1, 2)
	ra, err := Global(a.fp, a.nl, tech.TierSiCMOS, 7)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Global(b.fp, b.nl, tech.TierSiCMOS, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ra.HPWL != rb.HPWL {
		t.Errorf("same seed, different HPWL: %d vs %d", ra.HPWL, rb.HPWL)
	}
}

func TestPlacementAvoidsBlockages(t *testing.T) {
	fx := newFixture(t, 2, 2)
	// Block the left half of the die on Si.
	die := fx.fp.Die
	fx.fp.AddBlockage(tech.TierSiCMOS, geom.R(die.Lo.X, die.Lo.Y, die.Center().X, die.Hi.Y))
	if _, err := Global(fx.fp, fx.nl, tech.TierSiCMOS, 3); err != nil {
		// Half the die may genuinely be too small at 60% target util; grow it.
		bigger := geom.R(0, 0, die.W()*2, die.H())
		fp2, ferr := floorplan.New(fx.p, bigger)
		if ferr != nil {
			t.Fatal(ferr)
		}
		fp2.AddBlockage(tech.TierSiCMOS, geom.R(0, 0, die.W(), die.H()))
		if _, err := Global(fp2, fx.nl, tech.TierSiCMOS, 3); err != nil {
			t.Fatal(err)
		}
		fx.fp = fp2
	}
	if err := CheckLegal(fx.fp, fx.nl, tech.TierSiCMOS); err != nil {
		t.Fatalf("placement violates blockage: %v", err)
	}
}

func TestLegalizeOverflowFails(t *testing.T) {
	fx := newFixture(t, 2, 2)
	// A die far too small for the design.
	tiny, err := floorplan.New(fx.p, geom.R(0, 0, 20*fx.p.SiteWidth, 2*fx.p.RowHeight))
	if err != nil {
		t.Fatal(err)
	}
	if err := Legalize(tiny, fx.nl, tech.TierSiCMOS); err == nil {
		t.Error("legalizing into a tiny die should fail")
	}
}

func TestCheckLegalCatchesViolations(t *testing.T) {
	fx := newFixture(t, 1, 1)
	if _, err := Global(fx.fp, fx.nl, tech.TierSiCMOS, 1); err != nil {
		t.Fatal(err)
	}
	cells := fx.nl.MovableCells()
	// Off-row.
	saved := cells[0].Pos
	cells[0].Pos.Y++
	if err := CheckLegal(fx.fp, fx.nl, tech.TierSiCMOS); err == nil {
		t.Error("off-row cell not caught")
	}
	cells[0].Pos = saved
	// Overlap.
	saved1 := cells[1].Pos
	cells[1].Pos = cells[0].Pos
	if err := CheckLegal(fx.fp, fx.nl, tech.TierSiCMOS); err == nil {
		t.Error("overlap not caught")
	}
	cells[1].Pos = saved1
}

func TestAssignTiersBalancesAndReducesCut(t *testing.T) {
	fx := newFixture(t, 2, 2)
	var total int64
	for _, c := range fx.nl.MovableCells() {
		total += c.AreaNM2(fx.p)
	}
	caps := map[tech.Tier]int64{
		tech.TierSiCMOS: total * 6 / 10,
		tech.TierCNFET:  total * 6 / 10,
	}
	res, err := AssignTiers(fx.nl, fx.p, PartitionOptions{CapNM2: caps, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved == 0 {
		t.Error("with 60/60 caps some cells must land on the upper tier")
	}
	if res.AreaNM2[tech.TierSiCMOS] > caps[tech.TierSiCMOS] ||
		res.AreaNM2[tech.TierCNFET] > caps[tech.TierCNFET] {
		t.Error("capacity violated")
	}
	if res.CutNets != CutNets(fx.nl) {
		t.Error("reported cut differs from recount")
	}
	// Local search should do much better than a seeded random split of
	// the same cells under the same caps.
	fx2 := newFixture(t, 2, 2)
	rng := rand.New(rand.NewSource(1))
	area := map[tech.Tier]int64{}
	for _, c := range fx2.nl.MovableCells() {
		tier, other := tech.TierSiCMOS, tech.TierCNFET
		if rng.Intn(2) == 1 {
			tier, other = other, tier
		}
		if a := c.AreaNM2(fx2.p); area[tier]+a > caps[tier] {
			tier = other
		}
		c.Tier = tier
		area[tier] += c.AreaNM2(fx2.p)
	}
	if area[tech.TierSiCMOS] > caps[tech.TierSiCMOS] || area[tech.TierCNFET] > caps[tech.TierCNFET] {
		t.Fatalf("random split broke the caps: %v over %v", area, caps)
	}
	if random := CutNets(fx2.nl); res.CutNets >= random {
		t.Errorf("local-search cut %d not below a random split's cut %d", res.CutNets, random)
	}
}

func TestAssignTiersCapacityErrors(t *testing.T) {
	fx := newFixture(t, 1, 1)
	if _, err := AssignTiers(fx.nl, fx.p, PartitionOptions{Seed: 1}); err == nil {
		t.Error("missing capacities should fail")
	}
	caps := map[tech.Tier]int64{tech.TierSiCMOS: 1, tech.TierCNFET: 1}
	if _, err := AssignTiers(fx.nl, fx.p, PartitionOptions{CapNM2: caps, Seed: 1}); err == nil {
		t.Error("too-small capacities should fail")
	}
}

func TestAllOnSiWhenCapacityAllows(t *testing.T) {
	fx := newFixture(t, 1, 1)
	var total int64
	for _, c := range fx.nl.MovableCells() {
		total += c.AreaNM2(fx.p)
	}
	caps := map[tech.Tier]int64{tech.TierSiCMOS: total * 2, tech.TierCNFET: total * 2}
	res, err := AssignTiers(fx.nl, fx.p, PartitionOptions{CapNM2: caps, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With all cells fitting in Si and a connectivity-driven objective, the
	// cut should collapse to (near) zero: everything merges onto one tier.
	if res.CutNets > len(fx.nl.Nets)/20 {
		t.Errorf("cut %d of %d nets is too high for an unconstrained partition", res.CutNets, len(fx.nl.Nets))
	}
}

func TestTwoTierPlacementLegalBothTiers(t *testing.T) {
	fx := newFixture(t, 2, 2)
	var total int64
	for _, c := range fx.nl.MovableCells() {
		total += c.AreaNM2(fx.p)
	}
	caps := map[tech.Tier]int64{tech.TierSiCMOS: total * 6 / 10, tech.TierCNFET: total * 6 / 10}
	if _, err := AssignTiers(fx.nl, fx.p, PartitionOptions{CapNM2: caps, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	for _, tier := range []tech.Tier{tech.TierSiCMOS, tech.TierCNFET} {
		if _, err := Global(fx.fp, fx.nl, tier, 2); err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
		if err := CheckLegal(fx.fp, fx.nl, tier); err != nil {
			t.Fatalf("tier %v not legal: %v", tier, err)
		}
	}
}

// BenchmarkPlaceGlobal is the global-placement baseline on the 8×8
// systolic fixture (≈6.3k movable cells). scripts/benchdiff.sh tracks
// it against the base commit.
func BenchmarkPlaceGlobal(b *testing.B) {
	fx := newFixture(b, 8, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Global(fx.fp, fx.nl, tech.TierSiCMOS, 1); err != nil {
			b.Fatal(err)
		}
	}
}
