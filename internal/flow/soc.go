package flow

import (
	"fmt"

	"m3d/internal/cell"
	"m3d/internal/macro"
	"m3d/internal/netlist"
	"m3d/internal/synth"
	"m3d/internal/tech"
)

// Datapath precisions of every CS's systolic array: 8-bit activations
// and weights into 24-bit accumulators.
const actBits, weightBits, accBits = 8, 8, 24

// socParts records what the SoC generator produced, for area accounting
// and floorplanning.
type socParts struct {
	nl    *netlist.Netlist
	banks []*macro.RRAMBank
	srams []*macro.SRAM
	// bankInsts / sramInsts are the macro instances, in order.
	bankInsts, sramInsts []*netlist.Instance
	// csAreaNM2 is the standard-cell area of one CS (average).
	csAreaNM2 int64
}

// buildSoC elaborates the accelerator SoC netlist per the spec: NumCS
// systolic computing sub-systems, per-CS SRAM buffer macros, RRAM bank
// macros in the requested style, per-bank Si peripheral logic, and a top
// controller.
//
// When every CS has its own bank (Banks == NumCS), CS k and bank k form
// group k+1 (netlist.Instance.Group): the CS's cells, its buffer macro
// and that macro's interface logic, the bank and its peripheral logic.
// The clock root, the top controller and the constant-0 tie every CS
// shares stay ungrouped. With any other bank count nothing is grouped.
func buildSoC(p *tech.PDK, lib *cell.Library, spec SoCSpec) (*socParts, error) {
	b := synth.NewBuilder(fmt.Sprintf("soc_%s", spec.Style), lib)
	parts := &socParts{nl: b.NL}
	grouped := spec.Banks == spec.NumCS
	group := func(first, g int) {
		if grouped {
			for _, inst := range b.NL.Instances[first:] {
				inst.Group = g
			}
		}
	}

	// Computing sub-systems.
	var totalCSArea int64
	for cs := 0; cs < spec.NumCS; cs++ {
		first := len(b.NL.Instances)
		b.Systolic(fmt.Sprintf("cs%d", cs), synth.SystolicSpec{
			Rows: spec.ArrayRows, Cols: spec.ArrayCols,
			ActBits: actBits, WeightBits: weightBits, AccBits: accBits,
			Activity: 0.25,
		})
		b.FSM(fmt.Sprintf("cs%d_ctl", cs), 8, 3)
		for _, inst := range b.NL.Instances[first:] {
			totalCSArea += inst.AreaNM2(p)
		}

		// Per-CS activation buffer macro.
		sram, err := macro.NewSRAM(p, macro.SRAMSpec{
			CapacityBits: spec.GlobalSRAMBits,
			WordBits:     actBits * spec.ArrayRows,
		})
		if err != nil {
			return nil, fmt.Errorf("flow: CS %d SRAM: %w", cs, err)
		}
		parts.srams = append(parts.srams, sram)
		inst := b.NL.AddMacro(fmt.Sprintf("cs%d_buf", cs), sram.Ref, tech.TierSiCMOS)
		parts.sramInsts = append(parts.sramInsts, inst)
		connectMacro(b, inst, actBits*spec.ArrayRows/2)
		group(first, cs+1)
	}
	// The constant-0 tie is created inside CS 0, but every CS uses it.
	b.Zero().Driver.Inst.Group = 0
	parts.csAreaNM2 = totalCSArea / int64(spec.NumCS)

	// RRAM banks with Si peripheral/controller logic.
	banks, err := macro.BankSet(p, spec.RRAMCapBits, spec.Banks, spec.BankWordBits, spec.Style)
	if err != nil {
		return nil, fmt.Errorf("flow: banks: %w", err)
	}
	parts.banks = banks
	for i, bank := range banks {
		first := len(b.NL.Instances)
		inst := b.NL.AddMacro(fmt.Sprintf("bank%d", i), bank.Ref, tech.TierRRAM)
		parts.bankInsts = append(parts.bankInsts, inst)
		b.BankPeriph(fmt.Sprintf("bank%d_p", i), 16)
		connectMacro(b, inst, 16)
		group(first, i+1)
	}

	// Top-level control.
	b.FSM("top_ctl", 12, 4)

	if err := b.NL.Check(); err != nil {
		return nil, fmt.Errorf("flow: SoC netlist: %w", err)
	}
	return parts, nil
}

// connectMacro wires a macro instance into the netlist with nPins
// representative data/address connections (driver buffers into the macro,
// macro data out into capture registers).
func connectMacro(b *synth.Builder, inst *netlist.Instance, nPins int) {
	if nPins < 2 {
		nPins = 2
	}
	lib := b.Lib
	for i := 0; i < nPins/2; i++ {
		// Input to the macro.
		src := b.Input(fmt.Sprintf("%s_a%d", inst.Name, i), 0.2)
		b.NL.MustPin(inst, fmt.Sprintf("A%d", i), false, inst.Macro.PinCapF, src)
	}
	for i := 0; i < nPins/2; i++ {
		// Output from the macro into a capture register.
		n := b.NL.AddNet(fmt.Sprintf("%s_q%d", inst.Name, i), 0.2)
		b.NL.MustPin(inst, fmt.Sprintf("Q%d", i), true, 0, n)
		ff := b.NL.AddCell(fmt.Sprintf("%s_cap%d", inst.Name, i), lib.MustPick(cell.DFF, 1))
		b.NL.MustPin(ff, "D", false, ff.Cell.InputCapF, n)
		b.NL.MustPin(ff, "CK", false, ff.Cell.InputCapF*0.8, b.Clk)
	}
}
