package synth

import (
	"testing"

	"m3d/internal/cell"
	"m3d/internal/tech"
)

func newTB(t *testing.T) *Builder {
	t.Helper()
	lib, err := cell.NewLibrary(tech.Default130(), tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	return NewBuilder("t", lib)
}

func TestBuilderClock(t *testing.T) {
	b := newTB(t)
	if b.Clk == nil || !b.Clk.Clock {
		t.Fatal("builder must provide a clock net")
	}
	// Attach one FF so the clock net has a sink, then the netlist closes.
	d := b.Input("d", 0.1)
	q := b.Register("r", Bus{d}, 0.1)
	b.SinkBus("o", q)
	if err := b.NL.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestInputAndSinkClose(t *testing.T) {
	b := newTB(t)
	in := b.InputBus("x", 4, 0.2)
	if len(in) != 4 {
		t.Fatalf("bus width %d", len(in))
	}
	b.SinkBus("y", in)
	if err := b.NL.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestAdderStructure(t *testing.T) {
	b := newTB(t)
	x := b.InputBus("x", 8, 0.3)
	y := b.InputBus("y", 8, 0.3)
	sum := b.Adder("add", x, y, 0.3)
	if len(sum) != 9 {
		t.Fatalf("8-bit adder must produce 9 bits, got %d", len(sum))
	}
	b.SinkBus("s", sum)
	if err := b.NL.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	st := b.NL.ComputeStats(tech.Default130())
	// 7 FA stages of 2 gates + 2 gates for bit 0 = 16 combinational gates
	// minimum, plus IO stubs.
	if st.Cells < 16 {
		t.Errorf("adder too small: %d cells", st.Cells)
	}
}

func TestAdderWidthMismatchPanics(t *testing.T) {
	b := newTB(t)
	x := b.InputBus("x", 4, 0.3)
	y := b.InputBus("y", 5, 0.3)
	defer func() {
		if recover() == nil {
			t.Error("width mismatch should panic")
		}
	}()
	b.Adder("bad", x, y, 0.3)
}

func TestMultiplierCloses(t *testing.T) {
	b := newTB(t)
	x := b.InputBus("x", 8, 0.3)
	y := b.InputBus("y", 8, 0.3)
	p := b.Multiplier("mul", x, y, 0.3)
	if len(p) != 16 {
		t.Fatalf("8x8 multiplier should give 16 product bits, got %d", len(p))
	}
	b.SinkBus("p", p)
	if err := b.NL.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestMACCloses(t *testing.T) {
	b := newTB(t)
	act := b.InputBus("a", 8, 0.3)
	psum := b.InputBus("p", 24, 0.3)
	res := b.MAC("pe", act, psum, 8, 0.3)
	if len(res.ActOut) != 8 || len(res.PSumOut) != 24 {
		t.Fatalf("MAC bus widths wrong: act %d psum %d", len(res.ActOut), len(res.PSumOut))
	}
	b.SinkBus("ao", res.ActOut)
	b.SinkBus("po", res.PSumOut)
	if err := b.NL.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestSystolicArray(t *testing.T) {
	b := newTB(t)
	b.Systolic("cs", SystolicSpec{
		Rows: 2, Cols: 2, ActBits: 8, WeightBits: 8, AccBits: 24, Activity: 0.25,
	})
	if err := b.NL.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	st := b.NL.ComputeStats(tech.Default130())
	// Each 8x8 MAC with 24b accumulator is a few hundred cells; 4 PEs.
	if st.Cells < 800 {
		t.Errorf("2x2 array suspiciously small: %d cells", st.Cells)
	}
	if st.Sequential < 4*(8+8+24) {
		t.Errorf("sequential count %d below register minimum", st.Sequential)
	}
}

func TestSystolicScalesQuadratically(t *testing.T) {
	count := func(rows, cols int) int {
		b := newTB(t)
		b.Systolic("cs", SystolicSpec{Rows: rows, Cols: cols, ActBits: 8, WeightBits: 8, AccBits: 24, Activity: 0.25})
		return len(b.NL.Instances)
	}
	c2 := count(2, 2)
	c4 := count(4, 4)
	ratio := float64(c4) / float64(c2)
	if ratio < 3.2 || ratio > 4.8 {
		t.Errorf("4x4 vs 2x2 instance ratio = %.2f, want ≈4", ratio)
	}
}

func TestFSMCloses(t *testing.T) {
	b := newTB(t)
	b.FSM("ctl", 8, 3)
	if err := b.NL.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestBankPeriphCloses(t *testing.T) {
	b := newTB(t)
	b.BankPeriph("bank0", 16)
	if err := b.NL.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	st := b.NL.ComputeStats(tech.Default130())
	if st.Cells < 60 {
		t.Errorf("bank peripheral logic too small: %d cells", st.Cells)
	}
}

func TestUniqueInstanceNames(t *testing.T) {
	b := newTB(t)
	b.Systolic("cs", SystolicSpec{Rows: 2, Cols: 1, ActBits: 4, WeightBits: 4, AccBits: 12, Activity: 0.2})
	seen := make(map[string]bool, len(b.NL.Instances))
	for _, inst := range b.NL.Instances {
		if seen[inst.Name] {
			t.Fatalf("duplicate instance name %q", inst.Name)
		}
		seen[inst.Name] = true
	}
}

func TestAllSequentialOnClock(t *testing.T) {
	b := newTB(t)
	b.Systolic("cs", SystolicSpec{Rows: 1, Cols: 2, ActBits: 4, WeightBits: 4, AccBits: 12, Activity: 0.2})
	for _, inst := range b.NL.Instances {
		if inst.IsMacro() || !inst.Cell.Sequential {
			continue
		}
		onClk := false
		for _, p := range inst.Pins() {
			if p.Net == b.Clk {
				onClk = true
			}
		}
		if !onClk {
			t.Fatalf("sequential cell %s not on the clock", inst.Name)
		}
	}
}
