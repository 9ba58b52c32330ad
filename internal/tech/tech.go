// Package tech models the foundry monolithic-3D (M3D) process design kit
// used throughout this project: the 130 nm vertical stack-up of Fig. 4a in
// the paper (Si CMOS FEOL, lower BEOL metals, a BEOL RRAM layer, a BEOL
// CNFET layer, and upper metals), inter-layer via (ILV) geometry and
// parasitics, per-layer wire parasitics, and the device models (Si FET,
// CNFET, RRAM cell) from which the cell library and macro generators are
// characterized.
//
// The real PDK is proprietary; this package substitutes a parameterized
// model that exposes exactly the knobs the paper sweeps: CNFET drive
// derating / width relaxation δ (Case 1), ILV pitch β (Case 2), and the
// number of interleaved compute+memory tier pairs Y (Case 3).
//
// All lengths are in database units (DBU) with 1 DBU = 1 nm.
package tech

import "fmt"

// Tier identifies a device tier in the M3D stack.
type Tier int

const (
	// TierSiCMOS is the bottom FEOL silicon tier (logic, memory peripherals).
	TierSiCMOS Tier = iota
	// TierRRAM is the BEOL resistive-RAM memory layer.
	TierRRAM
	// TierCNFET is the BEOL carbon-nanotube FET layer (memory access
	// transistors, optionally logic).
	TierCNFET

	// NumTiers is the number of device tiers in the stack — the length
	// of per-tier parameter arrays (e.g. the variation corner scales).
	NumTiers
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierSiCMOS:
		return "SiCMOS"
	case TierRRAM:
		return "RRAM"
	case TierCNFET:
		return "CNFET"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// LayerKind classifies a layer in the stack-up.
type LayerKind int

const (
	// LayerDevice hosts transistors or memory cells.
	LayerDevice LayerKind = iota
	// LayerRouting is a metal routing layer.
	LayerRouting
	// LayerVia connects adjacent layers (cut layer).
	LayerVia
)

// RouteDir is the preferred routing direction of a metal layer.
type RouteDir int

const (
	// DirHorizontal prefers horizontal wires.
	DirHorizontal RouteDir = iota
	// DirVertical prefers vertical wires.
	DirVertical
)

// Layer describes one layer of the M3D stack-up.
type Layer struct {
	Name  string
	Kind  LayerKind
	Tier  Tier // the device tier this layer belongs to / sits above
	Index int  // position in the stack, 0 = substrate side

	// Routing-layer properties.
	Dir       RouteDir
	Pitch     int64   // track pitch in DBU
	ROhmPerUm float64 // wire resistance, ohm per micron
	CfFPerUm  float64 // wire capacitance, fF per micron

	// GDS stream numbers for layout export.
	GDSLayer, GDSDatatype int16
}

// FET models a field-effect transistor family (Si CMOS or CNFET).
type FET struct {
	Name string
	Tier Tier
	// MinWidth is the minimum drawn gate width in DBU.
	MinWidth int64
	// IonUAPerUm is the on-current per micron of width, µA/µm. CNFETs in
	// the foundry M3D process are newly introduced and achieve lower drive
	// than idealized projections; the paper's Case 1 sweeps this derating.
	IonUAPerUm float64
	// CgFFPerUm is the gate capacitance per micron of width, fF/µm.
	CgFFPerUm float64
	// IoffNAPerUm is the off (leakage) current per micron of width, nA/µm.
	IoffNAPerUm float64
	// FootprintNM2PerUm is the layout footprint cost per micron of width,
	// nm² per µm of gate width (diffusion + gate + contacts).
	FootprintNM2PerUm float64
}

// EffectiveResistance returns the switching resistance (ohm) of a FET of
// width w DBU driving at supply vdd.
func (f FET) EffectiveResistance(vdd float64, w int64) float64 {
	if w <= 0 {
		w = f.MinWidth
	}
	wUm := float64(w) / 1000.0
	ionA := f.IonUAPerUm * wUm * 1e-6
	if ionA <= 0 {
		return 1e12
	}
	// R_eff ≈ Vdd / I_on with the usual 3/4 switching-trajectory factor.
	return 0.75 * vdd / ionA
}

// GateCapF returns the gate capacitance (F) of a FET of width w DBU.
func (f FET) GateCapF(w int64) float64 {
	if w <= 0 {
		w = f.MinWidth
	}
	return f.CgFFPerUm * (float64(w) / 1000.0) * 1e-15
}

// RRAMCell models the BEOL resistive-RAM bit cell.
type RRAMCell struct {
	// ReadEnergyPJPerBit / WriteEnergyPJPerBit are access energies.
	ReadEnergyPJPerBit  float64
	WriteEnergyPJPerBit float64
	// ReadLatencyNs is the array read latency.
	ReadLatencyNs float64
	// ViasPerCell is m in the paper's Case 2: the number of vertical ILVs
	// each cell needs down to its access transistor (WL, BL, SL).
	ViasPerCell int
	// BitsPerCell is the multi-level-cell density (ref [11]'s
	// four-bits-per-memory 1T8R RRAM stores 4 bits per access device).
	BitsPerCell int
	// LRSOhm / HRSOhm are the low/high resistive state resistances.
	LRSOhm, HRSOhm float64
}

// Variation models inter-tier process variation of the M3D stack: the
// newly-introduced BEOL devices (CNFETs, fine-pitch ILVs) vary more than
// the mature Si FEOL, and the upper CNFET tier additionally suffers a
// systematic threshold-voltage shift (Musavvir et al., "Inter-Tier
// Process Variation-Aware Monolithic 3D NoC Architectures"). All sigma
// fields are relative 1σ fractions of the nominal quantity; the zero
// value is the nominal, variation-free process. The JSON names are the
// /v1/yield wire form.
type Variation struct {
	// SiDriveSigma is the FEOL Si CMOS drive-current spread (relative 1σ
	// of delay on Si-tier cells).
	SiDriveSigma float64 `json:"si_drive_sigma,omitempty"`
	// CNFETDriveSigma is the BEOL CNFET drive-current spread (relative 1σ
	// of delay on CNFET-tier cells); BEOL devices sit above several
	// deposition steps and vary more than the FEOL.
	CNFETDriveSigma float64 `json:"cnfet_drive_sigma,omitempty"`
	// CNFETVtShift is the systematic upper-tier Vt shift, expressed as a
	// mean relative delay penalty on CNFET-tier cells (0.05 = 5% slower
	// on average, before the random component).
	CNFETVtShift float64 `json:"cnfet_vt_shift,omitempty"`
	// ILVRSpread is the inter-layer-via resistance spread (relative 1σ);
	// it loads the ILV-rich memory-interface (RRAM-tier) arcs.
	ILVRSpread float64 `json:"ilv_r_spread,omitempty"`
	// TierCorr is the correlation ρ ∈ [0, 1] between the tiers' random
	// components: 0 draws every tier independently, 1 collapses the stack
	// to one fully-correlated process corner.
	TierCorr float64 `json:"tier_corr,omitempty"`
}

// maxVariationSigma bounds the relative spreads: beyond 50% the linear
// delay-scale model (1 + σ·z) loses physical meaning.
const maxVariationSigma = 0.5

// IsZero reports whether v is the nominal (variation-free) process.
func (v Variation) IsZero() bool { return v == (Variation{}) }

// Validate checks the variation parameter ranges.
func (v Variation) Validate() error {
	check := func(name string, s float64) error {
		if s < 0 || s > maxVariationSigma {
			return fmt.Errorf("tech: %s %g outside [0, %g]", name, s, maxVariationSigma)
		}
		return nil
	}
	if err := check("SiDriveSigma", v.SiDriveSigma); err != nil {
		return err
	}
	if err := check("CNFETDriveSigma", v.CNFETDriveSigma); err != nil {
		return err
	}
	if err := check("ILVRSpread", v.ILVRSpread); err != nil {
		return err
	}
	if v.CNFETVtShift < 0 || v.CNFETVtShift > 1 {
		return fmt.Errorf("tech: CNFETVtShift %g outside [0, 1]", v.CNFETVtShift)
	}
	if v.TierCorr < 0 || v.TierCorr > 1 {
		return fmt.Errorf("tech: TierCorr %g outside [0, 1]", v.TierCorr)
	}
	return nil
}

// DefaultVariation returns the stock inter-tier variation corner used
// when a caller enables variation analysis without overriding the
// parameters: a mature FEOL, a noticeably wider BEOL CNFET spread with a
// 5% systematic Vt-shift slowdown, a 10% ILV resistance spread, and
// half-correlated tiers.
func DefaultVariation() Variation {
	return Variation{
		SiDriveSigma:    0.03,
		CNFETDriveSigma: 0.08,
		CNFETVtShift:    0.05,
		ILVRSpread:      0.10,
		TierCorr:        0.5,
	}
}

// PDK is the full process model. Construct one with Default130 and refine it
// with the With* options; the zero value is not usable.
type PDK struct {
	Name   string
	NodeNM int64 // lithography node (130 for this PDK)
	// VDD is the core supply voltage.
	VDD float64

	// Stack is the layer stack-up in order from the substrate.
	Stack []Layer

	// RowHeight is the standard-cell row height in DBU.
	RowHeight int64
	// SiteWidth is the placement site width in DBU.
	SiteWidth int64

	// ILVPitch is the inter-layer via pitch β in DBU. Fine-pitch ILVs
	// (<100 nm class, here 130 nm drawn) are the enabler the paper's
	// Obs. 8 studies.
	ILVPitch int64
	// ILVResistanceOhm / ILVCapF are per-ILV parasitics.
	ILVResistanceOhm float64
	ILVCapF          float64

	// SiFET / CNFET are the two transistor families. CNFETWidthRelax is δ
	// from Case 1: the width (and therefore footprint) relaxation applied
	// to BEOL memory access FETs relative to the ideal minimum device.
	SiFET           FET
	CNFET           FET
	CNFETWidthRelax float64

	RRAM RRAMCell

	// Variation carries the inter-tier process variation parameters; the
	// zero value (the Default130 setting) is the nominal process. The
	// nominal models ignore it — only the Monte-Carlo variation engine
	// (internal/vary) and its callers sample it.
	Variation Variation

	// Thermal stack parameters for Eq. 17: RthetaSink is R0 (heat-sink /
	// package resistance to ambient, K/W) and RthetaPerTier is the
	// resistance added by each additional interleaved compute+memory tier
	// pair, K/W.
	RthetaSink    float64
	RthetaPerTier float64
	// MaxTempRiseK is the allowed junction temperature rise (~60 K,
	// Obs. 10).
	MaxTempRiseK float64
}

// Default130 returns the 130 nm foundry M3D PDK model: Si CMOS FEOL, four
// lower routing metals (usable under the RRAM arrays), the BEOL RRAM layer,
// the BEOL CNFET layer, and two upper routing metals, with fine-pitch ILVs.
func Default130() *PDK {
	p := &PDK{
		Name:   "m3d130",
		NodeNM: 130,
		VDD:    1.2,

		RowHeight: 3690, // 9 tracks × 410 nm M1 pitch
		SiteWidth: 410,

		ILVPitch:         130,
		ILVResistanceOhm: 8.0,
		ILVCapF:          0.05e-15,

		SiFET: FET{
			Name:              "si_nmos",
			Tier:              TierSiCMOS,
			MinWidth:          300,
			IonUAPerUm:        600,
			CgFFPerUm:         1.6,
			IoffNAPerUm:       0.3,
			FootprintNM2PerUm: 390000, // 0.39 µm of pitch per µm width at 130 nm
		},
		CNFET: FET{
			Name:              "cnfet",
			Tier:              TierCNFET,
			MinWidth:          300,
			IonUAPerUm:        360, // newly-introduced BEOL device: ~0.6× Si drive
			CgFFPerUm:         1.2,
			IoffNAPerUm:       0.6,
			FootprintNM2PerUm: 390000,
		},
		CNFETWidthRelax: 1.0,

		RRAM: RRAMCell{
			ReadEnergyPJPerBit:  0.4,
			WriteEnergyPJPerBit: 2.5,
			ReadLatencyNs:       10,
			ViasPerCell:         3,
			BitsPerCell:         4,
			LRSOhm:              10e3,
			HRSOhm:              1e6,
		},

		RthetaSink:    2.0,
		RthetaPerTier: 0.6,
		MaxTempRiseK:  60,
	}
	p.Stack = defaultStack()
	return p
}

func defaultStack() []Layer {
	mk := func(idx int, name string, kind LayerKind, tier Tier, dir RouteDir, pitch int64, r, c float64, gds int16) Layer {
		return Layer{
			Name: name, Kind: kind, Tier: tier, Index: idx,
			Dir: dir, Pitch: pitch, ROhmPerUm: r, CfFPerUm: c,
			GDSLayer: gds,
		}
	}
	return []Layer{
		mk(0, "FEOL", LayerDevice, TierSiCMOS, DirHorizontal, 0, 0, 0, 1),
		mk(1, "M1", LayerRouting, TierSiCMOS, DirHorizontal, 410, 0.45, 0.20, 11),
		mk(2, "V1", LayerVia, TierSiCMOS, DirHorizontal, 410, 0, 0, 12),
		mk(3, "M2", LayerRouting, TierSiCMOS, DirVertical, 410, 0.45, 0.20, 13),
		mk(4, "V2", LayerVia, TierSiCMOS, DirHorizontal, 410, 0, 0, 14),
		mk(5, "M3", LayerRouting, TierSiCMOS, DirHorizontal, 460, 0.35, 0.21, 15),
		mk(6, "V3", LayerVia, TierSiCMOS, DirHorizontal, 460, 0, 0, 16),
		mk(7, "M4", LayerRouting, TierSiCMOS, DirVertical, 460, 0.35, 0.21, 17),
		mk(8, "ILV_RRAM", LayerVia, TierRRAM, DirHorizontal, 130, 0, 0, 20),
		mk(9, "RRAM", LayerDevice, TierRRAM, DirHorizontal, 0, 0, 0, 21),
		mk(10, "ILV_CNT", LayerVia, TierCNFET, DirHorizontal, 130, 0, 0, 30),
		mk(11, "CNFET", LayerDevice, TierCNFET, DirHorizontal, 0, 0, 0, 31),
		mk(12, "M5", LayerRouting, TierCNFET, DirHorizontal, 920, 0.12, 0.24, 41),
		mk(13, "V5", LayerVia, TierCNFET, DirHorizontal, 920, 0, 0, 42),
		mk(14, "M6", LayerRouting, TierCNFET, DirVertical, 920, 0.12, 0.24, 43),
	}
}

// RoutingLayers returns the metal layers, bottom-up.
func (p *PDK) RoutingLayers() []Layer {
	var out []Layer
	for _, l := range p.Stack {
		if l.Kind == LayerRouting {
			out = append(out, l)
		}
	}
	return out
}

// LayerByName returns the named layer.
func (p *PDK) LayerByName(name string) (Layer, bool) {
	for _, l := range p.Stack {
		if l.Name == name {
			return l, true
		}
	}
	return Layer{}, false
}

// Clone returns a deep copy of the PDK that can be mutated independently.
func (p *PDK) Clone() *PDK {
	out := *p
	out.Stack = append([]Layer(nil), p.Stack...)
	return &out
}

// WithCNFETDerate returns a copy whose CNFET on-current is scaled by f
// (f < 1 weakens the BEOL devices).
func (p *PDK) WithCNFETDerate(f float64) *PDK {
	out := p.Clone()
	out.CNFET.IonUAPerUm *= f
	return out
}

// WithCNFETWidthRelax returns a copy with Case 1's width relaxation δ
// applied: BEOL memory access FETs are drawn δ× wider to recover drive,
// growing the M3D bit-cell footprint proportionally.
func (p *PDK) WithCNFETWidthRelax(delta float64) *PDK {
	if delta < 1 {
		delta = 1
	}
	out := p.Clone()
	out.CNFETWidthRelax = delta
	return out
}

// WithVariation returns a copy with the inter-tier variation parameters
// installed (see Variation; the zero value restores the nominal process).
func (p *PDK) WithVariation(v Variation) *PDK {
	out := p.Clone()
	out.Variation = v
	return out
}

// WithILVPitchScale returns a copy with Case 2's via-pitch scale β applied
// to both ILV cut layers.
func (p *PDK) WithILVPitchScale(beta float64) *PDK {
	if beta < 1 {
		beta = 1
	}
	out := p.Clone()
	out.ILVPitch = int64(float64(p.ILVPitch) * beta)
	for i := range out.Stack {
		if out.Stack[i].Kind == LayerVia && (out.Stack[i].Tier == TierRRAM || out.Stack[i].Tier == TierCNFET) {
			out.Stack[i].Pitch = out.ILVPitch
		}
	}
	return out
}

// BitcellArea2D returns the area (DBU² = nm²) of one RRAM bit cell in the 2D
// baseline, where the access transistor is a Si FET directly under the cell:
// the cell is limited by the Si access device footprint and the via pitch.
func (p *PDK) BitcellArea2D() int64 {
	fet := accessFETFootprint(p.SiFET, 1.0)
	via := viaLimitedCellArea(p)
	if via > fet {
		return via
	}
	return fet
}

// BitcellArea3D returns the area (nm²) of one RRAM bit cell in the M3D
// design, where the access transistor is a CNFET above the cell with width
// relaxation δ (Case 1); the footprint under the array in the Si tier is
// zero, but the array itself grows with δ and with the via pitch β (Case 2).
func (p *PDK) BitcellArea3D() int64 {
	fet := accessFETFootprint(p.CNFET, p.CNFETWidthRelax)
	via := viaLimitedCellArea(p)
	if via > fet {
		return via
	}
	return fet
}

// arrayLayoutEff is the area efficiency of access transistors inside a
// memory array relative to random logic layout: array FETs share
// diffusions, word lines, and contacts, so the per-device footprint is
// well below the logic-cell cost. With this factor the baseline bit cell
// is via-pitch-limited (m·β² > FET footprint at δ=1), matching the paper's
// Case 2 premise that "memory cell area is via-pitch limited".
const arrayLayoutEff = 0.4

// accessFETFootprint is the layout footprint of a single memory access
// transistor of the given family at width relax·MinWidth.
func accessFETFootprint(f FET, relax float64) int64 {
	wUm := relax * float64(f.MinWidth) / 1000.0
	return int64(f.FootprintNM2PerUm * wUm * arrayLayoutEff)
}

// viaLimitedCellArea is the paper's Case 2 bound: m·β² per cell.
func viaLimitedCellArea(p *PDK) int64 {
	return int64(p.RRAM.ViasPerCell) * p.ILVPitch * p.ILVPitch
}

// Validate checks internal consistency of the PDK model.
func (p *PDK) Validate() error {
	if p.NodeNM <= 0 {
		return fmt.Errorf("tech: node must be positive, got %d", p.NodeNM)
	}
	if p.VDD <= 0 {
		return fmt.Errorf("tech: VDD must be positive, got %g", p.VDD)
	}
	if p.RowHeight <= 0 || p.SiteWidth <= 0 {
		return fmt.Errorf("tech: row height / site width must be positive")
	}
	if p.ILVPitch <= 0 {
		return fmt.Errorf("tech: ILV pitch must be positive")
	}
	if p.CNFETWidthRelax < 1 {
		return fmt.Errorf("tech: CNFET width relax δ=%g must be ≥ 1", p.CNFETWidthRelax)
	}
	if len(p.Stack) == 0 {
		return fmt.Errorf("tech: empty layer stack")
	}
	for i, l := range p.Stack {
		if l.Index != i {
			return fmt.Errorf("tech: layer %q index %d != position %d", l.Name, l.Index, i)
		}
		if l.Kind == LayerRouting && l.Pitch <= 0 {
			return fmt.Errorf("tech: routing layer %q needs a positive pitch", l.Name)
		}
	}
	if err := p.Variation.Validate(); err != nil {
		return err
	}
	if p.RRAM.ViasPerCell <= 0 {
		return fmt.Errorf("tech: RRAM ViasPerCell must be positive")
	}
	if p.RRAM.BitsPerCell <= 0 {
		return fmt.Errorf("tech: RRAM BitsPerCell must be positive")
	}
	return nil
}

// RRAMAreaPerBit2D returns the 2D-baseline array area per stored bit
// (cell area over the multi-level-cell density), in nm².
func (p *PDK) RRAMAreaPerBit2D() float64 {
	return float64(p.BitcellArea2D()) / float64(p.RRAM.BitsPerCell)
}

// RRAMAreaPerBit3D returns the M3D array area per stored bit in nm².
func (p *PDK) RRAMAreaPerBit3D() float64 {
	return float64(p.BitcellArea3D()) / float64(p.RRAM.BitsPerCell)
}
