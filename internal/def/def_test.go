package def

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"m3d/internal/cell"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

func smallDesign(t *testing.T) (*tech.PDK, *netlist.Netlist, geom.Rect) {
	t.Helper()
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	nl := netlist.New("dump")
	a := nl.AddCell("u1", lib.MustPick(cell.Inv, 1))
	b := nl.AddCell("u2", lib.MustPick(cell.Nand2, 2))
	m := nl.AddMacro("bank0", &netlist.MacroRef{Kind: "rram", Width: 50_000, Height: 40_000}, tech.TierRRAM)
	n := nl.AddNet("n1", 0.2)
	nl.MustPin(a, "Y", true, 0, n)
	nl.MustPin(b, "A", false, b.Cell.InputCapF, n)
	a.Pos = geom.Pt(1000, 2000)
	b.Pos = geom.Pt(10_000, 3690)
	m.Pos = geom.Pt(100_000, 0)
	return p, nl, geom.R(0, 0, 200_000, 200_000)
}

func TestWriteFormat(t *testing.T) {
	_, nl, die := smallDesign(t)
	var buf bytes.Buffer
	if err := Write(&buf, nl, die); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"VERSION 5.8 ;",
		"DESIGN dump ;",
		"DIEAREA ( 0 0 ) ( 200000 200000 ) ;",
		"COMPONENTS 3 ;",
		"- u1 INV_X1 + PLACED ( 1000 2000 ) N ;",
		"- bank0 rram + FIXED ( 100000 0 ) N ;",
		"NETS 1 ;",
		"( u1 Y ) ( u2 A )",
		"END DESIGN",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRoundTripApply(t *testing.T) {
	p, nl, die := smallDesign(t)
	var buf bytes.Buffer
	if err := Write(&buf, nl, die); err != nil {
		t.Fatal(err)
	}
	parsed, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Design != "dump" || parsed.Die != die {
		t.Fatalf("header wrong: %+v", parsed)
	}
	if len(parsed.Placements) != 3 || parsed.NetCount != 1 {
		t.Fatalf("parsed %d placements / %d nets", len(parsed.Placements), parsed.NetCount)
	}
	// Scramble positions, then re-apply.
	for _, inst := range nl.Instances {
		inst.Pos = geom.Pt(0, 0)
	}
	placed, err := Apply(nl, parsed, p)
	if err != nil {
		t.Fatal(err)
	}
	if placed != 3 {
		t.Fatalf("placed = %d", placed)
	}
	if nl.Instances[0].Pos != geom.Pt(1000, 2000) {
		t.Error("u1 position not restored")
	}
	if !nl.Instances[2].Fixed {
		t.Error("macro fixedness not restored")
	}
}

func TestApplyErrors(t *testing.T) {
	p, nl, die := smallDesign(t)
	parsed := &Parsed{
		Design: "dump",
		Die:    die,
		Placements: []Placement{
			{Name: "ghost", Pos: geom.Pt(0, 0)},
		},
	}
	if _, err := Apply(nl, parsed, p); err == nil {
		t.Error("unknown instance should fail")
	}
	parsed.Placements = []Placement{{Name: "u1", Pos: geom.Pt(500_000, 0)}}
	if _, err := Apply(nl, parsed, p); err == nil {
		t.Error("off-die placement should fail")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"VERSION 5.8 ;\nDESIGN d ;\nDIEAREA ( 0 0 ) ;\n",
		"VERSION 5.8 ;\nDESIGN d ;\nCOMPONENTS 1 ;\n- u1 INV_X1 ;\nEND COMPONENTS\n",
	}
	for i, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestIdent(t *testing.T) {
	ident := func(s string) string { return string(appendIdent(nil, s)) }
	if ident("") != "_" {
		t.Error("empty ident")
	}
	if ident("a b.c") != "a_b_c" {
		t.Errorf("ident = %q", ident("a b.c"))
	}
	if ident("bus[3]/x") != "bus[3]/x" {
		t.Errorf("ident clobbered legal chars: %q", ident("bus[3]/x"))
	}
	// A rune maps to one '_' however many bytes encode it, and so does
	// each byte of invalid UTF-8: the rule strings.Map applies.
	oracle := func(s string) string {
		if s == "" {
			return "_"
		}
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '_', r == '[', r == ']', r == '/':
				return r
			default:
				return '_'
			}
		}, s)
	}
	for _, s := range []string{"µm", "a\xffb", "日本/x[0]", "\xe6\x97", "tab\there", "ok_[1]/Z9"} {
		if got, want := ident(s), oracle(s); got != want {
			t.Errorf("ident(%q) = %q, want %q", s, got, want)
		}
	}
}

// TestWriteAllocs bounds the DEF writer's allocations: every line is built
// in one reused buffer, so a hundredfold larger design must not allocate
// more.
func TestWriteAllocs(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	inv := lib.MustPick(cell.Inv, 1)
	for _, n := range []int{10, 1000} {
		nl := netlist.New("synthetic")
		insts := make([]*netlist.Instance, n)
		for i := range insts {
			insts[i] = nl.AddCell(fmt.Sprintf("u%d", i), inv)
			insts[i].Pos = geom.Pt(int64(i%100)*2000, int64(i/100)*4000)
		}
		for i, inst := range insts {
			net := nl.AddNet(fmt.Sprintf("n%d", i), 0.1)
			nl.MustPin(inst, "Y", true, 0, net)
			nl.MustPin(insts[(i+1)%n], "A", false, inv.InputCapF, net)
		}
		die := geom.R(0, 0, 400_000, 400_000)
		allocs := testing.AllocsPerRun(5, func() {
			if err := Write(io.Discard, nl, die); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("%d instances: Write made %.0f allocations, want at most 16", n, allocs)
		}
	}
}
