// Package synth stands in for RTL synthesis (the paper uses Synopsys DC):
// it elaborates the accelerator's RTL-level components — MAC processing
// elements, systolic arrays, registers, controllers, memory-bank peripheral
// logic — directly into gate-level netlists mapped onto the cell library.
//
// The generators produce structurally realistic logic (array multipliers
// built from partial-product gates and carry-save adders, ripple
// accumulators, register pipelines, nearest-neighbour systolic links), so
// downstream placement, routing, timing, and power see representative net
// topologies and cell populations.
package synth

import (
	"fmt"

	"m3d/internal/cell"
	"m3d/internal/netlist"
)

// Builder wraps a netlist under construction with its target library and a
// running name scope for unique instance names.
type Builder struct {
	NL  *netlist.Netlist
	Lib *cell.Library
	// Clk is the clock net all sequential cells attach to.
	Clk *netlist.Net

	seq  int
	zero *netlist.Net
}

// NewBuilder starts building into a fresh netlist with a clock net driven
// by a root clock buffer.
func NewBuilder(name string, lib *cell.Library) *Builder {
	nl := netlist.New(name)
	b := &Builder{NL: nl, Lib: lib}
	clk := nl.AddNet("clk", 2.0) // two transitions per cycle
	clk.Clock = true
	root := nl.AddCell("clkroot", lib.MustPick(cell.ClkBuf, 8))
	nl.MustPin(root, "Y", true, 0, clk)
	// The root buffer's input: tie cell keeps the netlist closed.
	tie := nl.AddCell("clksrc", lib.MustPick(cell.TieHi, 1))
	src := nl.AddNet("clksrc_n", 0)
	nl.MustPin(tie, "Y", true, 0, src)
	nl.MustPin(root, "A", false, root.Cell.InputCapF, src)
	b.Clk = clk
	return b
}

func (b *Builder) uname(prefix string) string {
	b.seq++
	return fmt.Sprintf("%s_%d", prefix, b.seq)
}

// net creates a fresh signal net with a default activity factor.
func (b *Builder) net(prefix string, act float64) *netlist.Net {
	return b.NL.AddNet(b.uname(prefix), act)
}

// gate instantiates a cell of kind k at the given drive, connects inputs,
// and returns the output net it drives.
func (b *Builder) gate(prefix string, k cell.Kind, drive int, act float64, inputs ...*netlist.Net) *netlist.Net {
	c := b.Lib.MustPick(k, drive)
	inst := b.NL.AddCell(b.uname(prefix), c)
	names := []string{"A", "B", "C", "D"}
	for i, in := range inputs {
		b.NL.MustPin(inst, names[i], false, c.InputCapF, in)
	}
	out := b.net(prefix+"_y", act)
	b.NL.MustPin(inst, "Y", true, 0, out)
	return out
}

// dff instantiates a flip-flop clocked by b.Clk with data input d, returning
// the Q net.
func (b *Builder) dff(prefix string, d *netlist.Net, act float64) *netlist.Net {
	c := b.Lib.MustPick(cell.DFF, 1)
	inst := b.NL.AddCell(b.uname(prefix), c)
	b.NL.MustPin(inst, "D", false, c.InputCapF, d)
	b.NL.MustPin(inst, "CK", false, c.InputCapF*0.8, b.Clk)
	q := b.net(prefix+"_q", act)
	b.NL.MustPin(inst, "Q", true, 0, q)
	return q
}

// Input creates a primary-input stub: a buffer driven by a tie cell, so the
// netlist remains structurally closed. Returns the usable input net.
func (b *Builder) Input(prefix string, act float64) *netlist.Net {
	tie := b.NL.AddCell(b.uname(prefix+"_pad"), b.Lib.MustPick(cell.TieLo, 1))
	raw := b.net(prefix+"_pad_n", act)
	b.NL.MustPin(tie, "Y", true, 0, raw)
	return b.gate(prefix+"_ibuf", cell.Buf, 2, act, raw)
}

// Sink terminates a net in a register so it is observed (keeps Check happy
// and models output capture).
func (b *Builder) Sink(prefix string, n *netlist.Net) {
	b.dffSinkOnly(prefix, n)
}

func (b *Builder) dffSinkOnly(prefix string, d *netlist.Net) {
	c := b.Lib.MustPick(cell.DFF, 1)
	inst := b.NL.AddCell(b.uname(prefix+"_of"), c)
	b.NL.MustPin(inst, "D", false, c.InputCapF, d)
	b.NL.MustPin(inst, "CK", false, c.InputCapF*0.8, b.Clk)
	// Q is intentionally trimmed (register observes the net; its output
	// feeds chip IO modeled elsewhere). Netlist.Check requires driven,
	// sunk nets — a Q with no net is fine (pin unconnected).
}

// Bus is an ordered set of nets (LSB first).
type Bus []*netlist.Net

// InputBus creates n primary-input stubs.
func (b *Builder) InputBus(prefix string, n int, act float64) Bus {
	out := make(Bus, n)
	for i := range out {
		out[i] = b.Input(fmt.Sprintf("%s%d", prefix, i), act)
	}
	return out
}

// SinkBus terminates every net of a bus.
func (b *Builder) SinkBus(prefix string, bus Bus) {
	for i, n := range bus {
		b.Sink(fmt.Sprintf("%s%d", prefix, i), n)
	}
}

// Register builds an n-bit register stage and returns the Q bus.
func (b *Builder) Register(prefix string, d Bus, act float64) Bus {
	q := make(Bus, len(d))
	for i, n := range d {
		q[i] = b.dff(fmt.Sprintf("%s%d", prefix, i), n, act)
	}
	return q
}

// FullAdd builds a full adder returning (sum, carry). The library FA cell
// computes the three-input parity; the carry is a majority gate — both
// functionally exact, so generated datapaths simulate correctly.
func (b *Builder) FullAdd(prefix string, a, c, ci *netlist.Net, act float64) (sum, co *netlist.Net) {
	sum = b.gate(prefix+"_s", cell.FullAdder, 1, act, a, c, ci)
	co = b.gate(prefix+"_c", cell.Maj3, 1, act*0.9, a, c, ci)
	return sum, co
}

// Adder builds an n-bit ripple-carry adder; returns the sum bus (n+1 bits
// including carry out).
func (b *Builder) Adder(prefix string, x, y Bus, act float64) Bus {
	if len(x) != len(y) {
		panic(fmt.Sprintf("synth: adder width mismatch %d vs %d", len(x), len(y)))
	}
	n := len(x)
	out := make(Bus, 0, n+1)
	carry := b.gate(prefix+"_c0", cell.And2, 1, act, x[0], y[0])
	out = append(out, b.gate(prefix+"_s0", cell.Xor2, 1, act, x[0], y[0]))
	for i := 1; i < n; i++ {
		s, c := b.FullAdd(fmt.Sprintf("%s_b%d", prefix, i), x[i], y[i], carry, act)
		out = append(out, s)
		carry = c
	}
	return append(out, carry)
}

// Zero returns the builder's constant-0 net (a shared TieLo), created on
// first use.
func (b *Builder) Zero() *netlist.Net {
	if b.zero == nil {
		tie := b.NL.AddCell(b.uname("const0"), b.Lib.MustPick(cell.TieLo, 1))
		b.zero = b.net("zero", 0)
		b.NL.MustPin(tie, "Y", true, 0, b.zero)
	}
	return b.zero
}

// Multiplier builds an unsigned aBits×bBits array multiplier (partial
// products + ripple-carry rows with an exact carry chain) and returns the
// full-width product bus (len(a)+len(bb) bits).
func (b *Builder) Multiplier(prefix string, a, bb Bus, act float64) Bus {
	n := len(a)
	// Row 0 seeds the running sum.
	acc := make(Bus, n)
	for i := range a {
		acc[i] = b.gate(fmt.Sprintf("%s_pp0_%d", prefix, i), cell.And2, 1, act, a[i], bb[0])
	}
	product := Bus{acc[0]}
	acc = append(acc[1:], b.Zero()) // running sum stays n wide

	for j := 1; j < len(bb); j++ {
		var carry *netlist.Net
		next := make(Bus, 0, n)
		for i := 0; i < n; i++ {
			pp := b.gate(fmt.Sprintf("%s_pp%d_%d", prefix, j, i), cell.And2, 1, act, a[i], bb[j])
			if carry == nil {
				next = append(next, b.gate(fmt.Sprintf("%s_r%d_s%d", prefix, j, i), cell.Xor2, 1, act, acc[i], pp))
				carry = b.gate(fmt.Sprintf("%s_r%d_c%d", prefix, j, i), cell.And2, 1, act, acc[i], pp)
				continue
			}
			s, c := b.FullAdd(fmt.Sprintf("%s_r%d_b%d", prefix, j, i), acc[i], pp, carry, act)
			next = append(next, s)
			carry = c
		}
		product = append(product, next[0])
		acc = append(next[1:], carry)
	}
	return append(product, acc...)
}

// MACResult describes a generated processing element.
type MACResult struct {
	// ActOut is the registered activation forwarded to the next PE.
	ActOut Bus
	// PSumOut is the registered partial-sum output.
	PSumOut Bus
}

// MAC builds one weight-stationary processing element: a weight register,
// an activation pass-through register, a wBits×aBits multiplier, and an
// accBits accumulator. The weight-load port is an input stub.
func (b *Builder) MAC(prefix string, actIn, psumIn Bus, wBits int, act float64) MACResult {
	wIn := make(Bus, wBits)
	for i := range wIn {
		wIn[i] = b.Input(fmt.Sprintf("%s_w%d", prefix, i), 0.01)
	}
	return b.MACWithWeights(prefix, actIn, psumIn, wIn, act)
}

// MACWithWeights is MAC with an explicit weight-load bus (used by
// testbenches that drive the weights).
func (b *Builder) MACWithWeights(prefix string, actIn, psumIn, wIn Bus, act float64) MACResult {
	// Stationary weight register (loaded rarely; low activity).
	wReg := b.Register(prefix+"_wr", wIn, 0.01)

	actReg := b.Register(prefix+"_ar", actIn, act)
	prod := b.Multiplier(prefix+"_mul", actReg, wReg, act)
	// Align the unsigned product to the accumulator width (zero-extend).
	accW := len(psumIn)
	sumIn := make(Bus, accW)
	for i := range sumIn {
		if i < len(prod) {
			sumIn[i] = prod[i]
		} else {
			sumIn[i] = b.Zero()
		}
	}
	// Upper product bits beyond the accumulator width are observed so the
	// netlist stays closed (they model saturation/overflow flags).
	for i := accW; i < len(prod); i++ {
		b.Sink(fmt.Sprintf("%s_povf%d", prefix, i), prod[i])
	}
	total := b.Adder(prefix+"_acc", sumIn, psumIn, act)
	for i := accW; i < len(total); i++ {
		b.Sink(fmt.Sprintf("%s_covf%d", prefix, i), total[i])
	}
	psumReg := b.Register(prefix+"_pr", total[:accW], act)
	return MACResult{ActOut: actReg, PSumOut: psumReg}
}

// SystolicSpec sizes a systolic array.
type SystolicSpec struct {
	Rows, Cols int
	ActBits    int
	WeightBits int
	AccBits    int
	// Activity is the datapath switching activity.
	Activity float64
}

// Systolic builds a Rows×Cols weight-stationary systolic array: activations
// stream left-to-right, partial sums top-to-bottom, exactly the case-study
// CS organization.
func (b *Builder) Systolic(prefix string, spec SystolicSpec) {
	// Activation inputs per row, partial-sum seeds per column.
	psums := make([]Bus, spec.Cols)
	for c := 0; c < spec.Cols; c++ {
		psums[c] = b.InputBus(fmt.Sprintf("%s_ps_c%d_", prefix, c), spec.AccBits, 0.05)
	}
	for r := 0; r < spec.Rows; r++ {
		actBus := b.InputBus(fmt.Sprintf("%s_act_r%d_", prefix, r), spec.ActBits, spec.Activity)
		for c := 0; c < spec.Cols; c++ {
			res := b.MAC(fmt.Sprintf("%s_pe_r%dc%d", prefix, r, c), actBus, psums[c], spec.WeightBits, spec.Activity)
			actBus = res.ActOut
			psums[c] = res.PSumOut
		}
		b.SinkBus(fmt.Sprintf("%s_act_out_r%d_", prefix, r), actBus)
	}
	for c := 0; c < spec.Cols; c++ {
		b.SinkBus(fmt.Sprintf("%s_ps_out_c%d_", prefix, c), psums[c])
	}
}

// FSM builds a control finite-state machine with the given state-register
// width and a blob of next-state/output logic proportional to complexity.
func (b *Builder) FSM(prefix string, stateBits, complexity int) {
	state := make(Bus, stateBits)
	for i := range state {
		state[i] = b.Input(fmt.Sprintf("%s_st%d", prefix, i), 0.15)
	}
	cur := b.Register(prefix+"_sr", state, 0.15)
	// Next-state logic: layered random-ish gate network over the state.
	sig := cur
	for l := 0; l < complexity; l++ {
		next := make(Bus, len(sig))
		for i := range sig {
			j := (i + l + 1) % len(sig)
			k := cell.Nand2
			switch (i + l) % 4 {
			case 1:
				k = cell.Nor2
			case 2:
				k = cell.Aoi22
			case 3:
				k = cell.Mux2
			}
			if k == cell.Aoi22 {
				m := (i + l + 3) % len(sig)
				q := (i + l + 5) % len(sig)
				next[i] = b.gate(fmt.Sprintf("%s_l%d_g%d", prefix, l, i), k, 1, 0.15, sig[i], sig[j], sig[m], sig[q])
			} else if k == cell.Mux2 {
				m := (i + l + 3) % len(sig)
				next[i] = b.gate(fmt.Sprintf("%s_l%d_g%d", prefix, l, i), k, 1, 0.15, sig[i], sig[j], sig[m])
			} else {
				next[i] = b.gate(fmt.Sprintf("%s_l%d_g%d", prefix, l, i), k, 1, 0.15, sig[i], sig[j])
			}
		}
		sig = next
	}
	b.SinkBus(prefix+"_out", sig)
}

// BankPeriph builds the Si CMOS peripheral logic for one RRAM bank: address
// decoder, word/bit-line control, and an access sequencer. This logic stays
// on the Si tier in both 2D and M3D designs (the paper leaves power-hungry
// peripherals in Si CMOS — Obs. 2).
func (b *Builder) BankPeriph(prefix string, addrBits int) {
	addr := b.InputBus(prefix+"_a", addrBits, 0.2)
	reg := b.Register(prefix+"_ar", addr, 0.2)
	// Decoder tree: pairwise ANDs, log-depth.
	level := reg
	for len(level) > 1 {
		next := make(Bus, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, b.gate(fmt.Sprintf("%s_dec%d", prefix, i), cell.And2, 2, 0.2, level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	b.Sink(prefix+"_wl", level[0])
	b.FSM(prefix+"_seq", 6, 2)
}
