package flow

import (
	"reflect"
	"testing"

	"m3d/internal/exec"
	"m3d/internal/macro"
	"m3d/internal/tech"
)

func runManySpecs() []SoCSpec {
	tiny := SoCSpec{
		ArrayRows: 2, ArrayCols: 2,
		RRAMCapBits:    2 << 20,
		BankWordBits:   64,
		GlobalSRAMBits: 64 << 10,
		Seed:           1,
	}
	second := tiny
	second.Style = macro.Style3D
	second.NumCS = 2
	second.Banks = 2
	third := tiny
	third.Seed = 7
	return []SoCSpec{tiny, second, third}
}

// stripDB clears the retained design database (fresh pointer graphs per
// run, so never DeepEqual across runs) leaving the reported metrics.
func stripDB(r *Result) *Result {
	c := *r
	c.pdk, c.nl, c.routes = nil, nil, nil
	return &c
}

// TestRunManyMatchesSerial proves the batched flow is equivalent to
// serial Run calls at pool widths 1, 2, and 8: same specs, same seeds,
// deep-equal reports in spec order.
func TestRunManyMatchesSerial(t *testing.T) {
	p := tech.Default130()
	specs := runManySpecs()

	want := make([]*Result, len(specs))
	for i, s := range specs {
		r, err := Run(p, s)
		if err != nil {
			t.Fatalf("serial spec %d: %v", i, err)
		}
		want[i] = stripDB(r)
	}

	for _, width := range []int{1, 2, 8} {
		got, err := RunMany(p, specs, exec.WithWorkers(width))
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(got) != len(want) {
			t.Fatalf("width %d: %d results, want %d", width, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(stripDB(got[i]), want[i]) {
				t.Errorf("width %d: spec %d result differs from serial Run", width, i)
			}
		}
	}
}

func TestRunManyPropagatesError(t *testing.T) {
	p := tech.Default130()
	bad := runManySpecs()[0]
	bad.TargetClockHz = -1 // withDefaults keeps it; sta will receive a negative period
	bad.RRAMCapBits = -5   // invalid macro capacity
	specs := []SoCSpec{runManySpecs()[0], bad}
	if _, err := RunMany(p, specs, exec.WithWorkers(2)); err == nil {
		t.Fatal("expected error from invalid spec")
	}
}
