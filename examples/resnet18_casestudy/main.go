// The Sec. II physical-design case study end-to-end: run the RTL-to-GDS
// flow for the 2D baseline and the iso-footprint M3D design (at a reduced
// scale so it finishes in tens of seconds), print the Fig. 2-style
// comparison and the Table I per-layer benefits, and write both layouts
// as GDSII.
package main

import (
	"fmt"
	"log"
	"os"

	"m3d"
)

func main() {
	log.SetFlags(0)
	pdk := m3d.Default130()

	// Table I (architectural model, full scale).
	rows, err := m3d.Table1(pdk)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table I: ResNet-18 layer-by-layer M3D benefits")
	fmt.Printf("%-12s %8s %8s %8s\n", "Layer", "Speedup", "Energy", "EDP")
	for _, r := range rows {
		fmt.Printf("%-12s %7.2fx %7.2fx %7.2fx\n", r.Name, r.Speedup, 1/r.EnergyRatio, r.EDPBenefit)
	}
	fmt.Println()

	// Physical flow at reduced scale (2x2 PEs per CS, 2 CSs, 2 MB RRAM):
	// the identical flow, small enough for an example run.
	log.Println("running the reduced-scale physical-design flow (this takes ~1 min)...")
	cmp, err := m3d.RunCaseStudyFlow(pdk, 2, 2, 2<<20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPhysical case study (iso-footprint %0.3f mm2):\n",
		float64(cmp.TwoD.Die.Area())/1e12)
	fmt.Printf("  2D : %6d cells, fmax %5.1f MHz, power %6.2f mW, free Si %0.3f mm2\n",
		cmp.TwoD.Cells, cmp.TwoD.FmaxHz/1e6, cmp.TwoD.Power.TotalW*1e3,
		float64(cmp.TwoD.Area.FreeSiNM2)/1e12)
	fmt.Printf("  M3D: %6d cells, fmax %5.1f MHz, power %6.2f mW, free Si %0.3f mm2\n",
		cmp.M3D.Cells, cmp.M3D.FmaxHz/1e6, cmp.M3D.Power.TotalW*1e3,
		float64(cmp.M3D.Area.FreeSiNM2)/1e12)
	fmt.Printf("  freed Si: %.1f%% of the die;  upper-tier power: %.2f%%;  peak density ratio: %.3f\n",
		100*cmp.FreedSiFrac, 100*cmp.UpperTierPowerFrac, cmp.PeakDensityRatio)

	// Write the M3D layout as GDS, from the retained design of a run.
	spec := m3d.SoCSpec{
		Style: m3d.Style3D, NumCS: 2, Banks: 2,
		ArrayRows: 2, ArrayCols: 2,
		RRAMCapBits: 2 << 20, GlobalSRAMBits: 64 << 10,
		Die: cmp.TwoD.Die, Seed: 1,
	}
	res, err := m3d.RunFlow(pdk, spec)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create("m3d_casestudy.gds")
	if err != nil {
		log.Fatal(err)
	}
	if err := res.WriteGDS(f); err != nil {
		log.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote m3d_casestudy.gds (%d bytes)\n", st.Size())
}
