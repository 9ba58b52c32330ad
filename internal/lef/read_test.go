package lef

import (
	"bytes"
	"strings"
	"testing"

	"m3d/internal/cell"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

func TestReadTechRoundTrip(t *testing.T) {
	p := tech.Default130()
	var buf bytes.Buffer
	if err := WriteTech(&buf, p); err != nil {
		t.Fatal(err)
	}
	parsed, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read(WriteTech): %v", err)
	}
	if parsed.DatabaseUnits != 1000 {
		t.Errorf("database units = %d, want 1000", parsed.DatabaseUnits)
	}
	var wantRouting, wantCut int
	for _, l := range p.Stack {
		switch l.Kind {
		case tech.LayerRouting:
			wantRouting++
		case tech.LayerVia:
			wantCut++
		}
	}
	var routing, cut int
	for _, l := range parsed.Layers {
		switch l.Type {
		case "ROUTING":
			routing++
			if l.PitchUM <= 0 {
				t.Errorf("layer %s: non-positive pitch %g", l.Name, l.PitchUM)
			}
			if l.Direction != "HORIZONTAL" && l.Direction != "VERTICAL" {
				t.Errorf("layer %s: bad direction %q", l.Name, l.Direction)
			}
		case "CUT":
			cut++
		}
	}
	if routing != wantRouting || cut != wantCut {
		t.Errorf("layers: %d routing, %d cut; want %d, %d", routing, cut, wantRouting, wantCut)
	}
	if len(parsed.Sites) != 1 || parsed.Sites[0].Name != "core" {
		t.Fatalf("sites: %+v", parsed.Sites)
	}
	if parsed.Sites[0].WidthUM <= 0 || parsed.Sites[0].HeightUM <= 0 {
		t.Errorf("site size: %+v", parsed.Sites[0])
	}
}

func TestReadCellsRoundTrip(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCells(&buf, p, lib); err != nil {
		t.Fatal(err)
	}
	parsed, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read(WriteCells): %v", err)
	}
	if len(parsed.Macros) != len(lib.Cells()) {
		t.Fatalf("parsed %d macros, library has %d cells", len(parsed.Macros), len(lib.Cells()))
	}
	for _, m := range parsed.Macros {
		if m.Class != "CORE" {
			t.Errorf("cell %s: class %q", m.Name, m.Class)
		}
		if m.WidthUM <= 0 || m.HeightUM <= 0 {
			t.Errorf("cell %s: size %g×%g", m.Name, m.WidthUM, m.HeightUM)
		}
		var outs int
		for _, pin := range m.Pins {
			if pin.Direction == "OUTPUT" {
				outs++
			}
		}
		if outs != 1 {
			t.Errorf("cell %s: %d output pins", m.Name, outs)
		}
	}
}

func TestReadMacrosRoundTrip(t *testing.T) {
	refs := []*netlist.MacroRef{
		{Kind: "RRAM_BANK", Width: 42_000, Height: 36_500},
		{Kind: "SRAM_BUF", Width: 12_000, Height: 8_000},
		{Kind: "RRAM_BANK", Width: 42_000, Height: 36_500}, // duplicate kind: emitted once
		nil,
	}
	var buf bytes.Buffer
	if err := WriteMacros(&buf, refs); err != nil {
		t.Fatal(err)
	}
	parsed, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read(WriteMacros): %v", err)
	}
	if len(parsed.Macros) != 2 {
		t.Fatalf("parsed %d macros, want 2: %+v", len(parsed.Macros), parsed.Macros)
	}
	got := map[string][2]float64{}
	for _, m := range parsed.Macros {
		if m.Class != "BLOCK" {
			t.Errorf("macro %s: class %q, want BLOCK", m.Name, m.Class)
		}
		got[m.Name] = [2]float64{m.WidthUM, m.HeightUM}
	}
	if got["RRAM_BANK"] != [2]float64{42.0, 36.5} {
		t.Errorf("RRAM_BANK size = %v", got["RRAM_BANK"])
	}
	if got["SRAM_BUF"] != [2]float64{12.0, 8.0} {
		t.Errorf("SRAM_BUF size = %v", got["SRAM_BUF"])
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"LAYER M1\nTYPE ROUTING ;\n",           // unterminated layer
		"MACRO X\n",                            // unterminated macro
		"MACRO X\n  PIN A\n",                   // unterminated pin
		"PIN A\nEND A\n",                       // pin outside macro
		"LAYER M1\n  PITCH zzz ;\nEND M1\n",    // bad number
		"MACRO X\n  SIZE 1.0 2.0 ;\nEND X\n",   // malformed SIZE
		"UNITS\n  DATABASE MICRONS nope ;\n",   // bad units
		"LAYER M1\nLAYER M2\nEND M2\nEND M1\n", // nested layer
		"MACRO A\nMACRO B\nEND B\nEND A\n",     // nested macro
		"MACRO A\n PIN X\n PIN Y\nEND A\n",     // nested pin
		"LAYER M1\n  RESISTANCE RPERSQ x ;\n",  // bad resistance
		"MACRO A\n  SIZE 1 BY nope ;\nEND A\n", // bad size operand
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}
