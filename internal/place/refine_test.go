package place

import (
	"testing"

	"m3d/internal/tech"
)

func TestRefineImprovesHPWL(t *testing.T) {
	fx := newFixture(t, 2, 2)
	if _, err := Global(fx.fp, fx.nl, tech.TierSiCMOS, 5); err != nil {
		t.Fatal(err)
	}
	res, err := Refine(fx.fp, fx.nl, tech.TierSiCMOS, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted == 0 {
		t.Fatal("annealer accepted no moves")
	}
	if res.HPWLAfter >= res.HPWLBefore {
		t.Errorf("refinement did not improve: %d -> %d", res.HPWLBefore, res.HPWLAfter)
	}
	// Legality preserved.
	if err := CheckLegal(fx.fp, fx.nl, tech.TierSiCMOS); err != nil {
		t.Fatalf("refinement broke legality: %v", err)
	}
}

func TestRefineDeterministic(t *testing.T) {
	run := func() int64 {
		fx := newFixture(t, 1, 2)
		if _, err := Global(fx.fp, fx.nl, tech.TierSiCMOS, 3); err != nil {
			t.Fatal(err)
		}
		res, err := Refine(fx.fp, fx.nl, tech.TierSiCMOS, 9)
		if err != nil {
			t.Fatal(err)
		}
		return res.HPWLAfter
	}
	if run() != run() {
		t.Error("refinement not deterministic")
	}
}

func TestRefineTrivialCases(t *testing.T) {
	fx := newFixture(t, 1, 1)
	// No placement yet: cells all at origin — still runs and keeps counts
	// consistent.
	res, err := Refine(fx.fp, fx.nl, tech.TierCNFET, 1) // empty tier
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWLBefore != res.HPWLAfter {
		t.Error("empty tier must be a no-op")
	}
}
