package liberty

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"m3d/internal/cell"
	"m3d/internal/tech"
)

func TestReadRoundTrip(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, p, lib); err != nil {
		t.Fatal(err)
	}
	parsed, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read(Write): %v", err)
	}
	if parsed.Name != lib.Name {
		t.Errorf("library name %q, want %q", parsed.Name, lib.Name)
	}
	if math.Abs(parsed.NomVoltage-p.VDD) > 0.005 {
		t.Errorf("nom_voltage %g, want %g", parsed.NomVoltage, p.VDD)
	}
	cells := lib.Cells()
	if len(parsed.Cells) != len(cells) {
		t.Fatalf("parsed %d cells, library has %d", len(parsed.Cells), len(cells))
	}
	byName := map[string]ParsedCell{}
	for _, c := range parsed.Cells {
		byName[c.Name] = c
	}
	for _, c := range cells {
		pc, ok := byName[c.Name]
		if !ok {
			t.Errorf("cell %s missing from parse", c.Name)
			continue
		}
		wantArea := float64(c.AreaNM2) / 1e6
		if math.Abs(pc.AreaUM2-wantArea) > 0.0005 {
			t.Errorf("cell %s: area %g, want %g", c.Name, pc.AreaUM2, wantArea)
		}
		wantLeak := c.LeakageW * 1e6
		if math.Abs(pc.LeakageUW-wantLeak) > 0.0005*math.Max(1, wantLeak) {
			t.Errorf("cell %s: leakage %g, want %g", c.Name, pc.LeakageUW, wantLeak)
		}
		var outs, ins int
		for _, pin := range pc.Pins {
			switch pin.Direction {
			case "output":
				outs++
				if pin.Function == "" {
					t.Errorf("cell %s pin %s: empty function", c.Name, pin.Name)
				}
			case "input":
				ins++
				if pin.CapacitancePF <= 0 {
					t.Errorf("cell %s pin %s: non-positive capacitance", c.Name, pin.Name)
				}
			default:
				t.Errorf("cell %s pin %s: direction %q", c.Name, pin.Name, pin.Direction)
			}
		}
		if outs != 1 {
			t.Errorf("cell %s: %d output pins", c.Name, outs)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"library (a) {\n",                  // unterminated library
		"library (a) {\n  cell (x) {\n}\n", // unterminated cell
		"}\n",                              // unbalanced close
		"library (a) {\n  nom_voltage : volts;\n}\n",          // bad number
		"library (a) {\n  library (b) {\n  }\n}\n",            // nested library
		"cell (x) {\n  cell (y) {\n  }\n}\n",                  // nested cell
		"cell (x) {\n  pin (a) {\n    pin (b) {\n  }\n}\n}\n", // nested pin
		"pin (a) {\n}\n",                  // pin outside cell
		"cell (x) {\n  area : wide;\n}\n", // bad area
		"cell (x) {\n  pin (a) {\n    capacitance : big;\n  }\n}\n", // bad cap
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}
