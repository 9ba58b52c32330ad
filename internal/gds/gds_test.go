package gds

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"m3d/internal/cell"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/route"
	"m3d/internal/tech"
)

// TestWriteDesignRouteStreamDeterministic pins the route-stream ordering:
// the Routes table is a Go map, so the export must iterate nets in
// netlist order for the GDS bytes to be a pure function of the design.
// With map-order iteration this fails with overwhelming probability at
// 24 nets.
func TestWriteDesignRouteStreamDeterministic(t *testing.T) {
	p := tech.Default130()
	nl := netlist.New("chip")
	metals := len(p.RoutingLayers())
	res := &route.Result{Routes: map[*netlist.Net]*route.NetRoute{}}
	for i := 0; i < 24; i++ {
		n := nl.AddNet("n", 0.1)
		res.Routes[n] = &route.NetRoute{Net: n, Segs: []route.Seg{{
			LayerIdx: i % metals,
			A:        geom.Pt(int64(i)*1000, 0),
			B:        geom.Pt(int64(i)*1000, 5000),
		}}}
	}
	die := geom.R(0, 0, 500_000, 500_000)
	encode := func() []byte {
		var buf bytes.Buffer
		if err := WriteDesign(&buf, p, nl, die, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := encode()
	for i := 0; i < 5; i++ {
		if !bytes.Equal(encode(), first) {
			t.Fatal("GDS route stream not byte-deterministic across exports")
		}
	}
}

func TestGDSRealRoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, 0.001, 1e-9, 123456.789, -0.0625, 1e-3}
	for _, v := range vals {
		got := gdsRealToFloat64(float64ToGDSReal(v))
		if v == 0 {
			if got != 0 {
				t.Errorf("0 round trip = %g", got)
			}
			continue
		}
		if rel := math.Abs(got-v) / math.Abs(v); rel > 1e-12 {
			t.Errorf("real %g round-tripped to %g (rel err %g)", v, got, rel)
		}
	}
}

func TestGDSRealRoundTripProperty(t *testing.T) {
	f := func(mant int32, scale uint8) bool {
		v := float64(mant) * math.Pow(10, float64(int(scale)%24-12))
		got := gdsRealToFloat64(float64ToGDSReal(v))
		if v == 0 {
			return got == 0
		}
		return math.Abs(got-v)/math.Abs(v) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	lib := NewLibrary("testlib")
	s := lib.AddStruct("TOP")
	s.Elements = append(s.Elements,
		RectBoundary(11, 0, geom.R(0, 0, 1000, 2000)),
		&Boundary{Layer: 21, Datatype: 1, XY: []geom.Point{
			geom.Pt(0, 0), geom.Pt(500, 0), geom.Pt(250, 400),
		}},
		&Path{Layer: 13, Width: 205, XY: []geom.Point{geom.Pt(0, 0), geom.Pt(9000, 0)}},
	)
	var buf bytes.Buffer
	if err := lib.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Stream must start with a HEADER record of version 600.
	b := buf.Bytes()
	if b[2] != recHEADER || b[4] != 0x02 || b[5] != 0x58 {
		t.Errorf("bad header bytes: % x", b[:6])
	}

	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "testlib" {
		t.Errorf("library name = %q", got.Name)
	}
	if math.Abs(got.MetersPerDBU-1e-9)/1e-9 > 1e-12 {
		t.Errorf("meters per DBU = %g", got.MetersPerDBU)
	}
	if len(got.Structs) != 1 || got.Structs[0].Name != "TOP" {
		t.Fatalf("structs wrong: %+v", got.Structs)
	}
	els := got.Structs[0].Elements
	if len(els) != 3 {
		t.Fatalf("elements = %d, want 3", len(els))
	}
	rb, ok := els[0].(*Boundary)
	if !ok || rb.Layer != 11 || len(rb.XY) != 4 {
		t.Errorf("first element wrong: %+v", els[0])
	}
	tri, ok := els[1].(*Boundary)
	if !ok || tri.Layer != 21 || tri.Datatype != 1 || len(tri.XY) != 3 {
		t.Errorf("triangle wrong: %+v", els[1])
	}
	path, ok := els[2].(*Path)
	if !ok || path.Layer != 13 || path.Width != 205 || len(path.XY) != 2 {
		t.Errorf("path wrong: %+v", els[2])
	}
}

func TestEncodeValidation(t *testing.T) {
	lib := &Library{} // no name
	var buf bytes.Buffer
	if err := lib.Encode(&buf); err == nil {
		t.Error("unnamed library should fail")
	}
	lib = NewLibrary("x")
	s := lib.AddStruct("s")
	s.Elements = append(s.Elements, &Boundary{Layer: 1, XY: []geom.Point{geom.Pt(0, 0)}})
	if err := lib.Encode(&buf); err == nil {
		t.Error("degenerate boundary should fail")
	}
	lib2 := NewLibrary("y")
	s2 := lib2.AddStruct("s")
	s2.Elements = append(s2.Elements, &Path{Layer: 1, XY: []geom.Point{geom.Pt(0, 0)}})
	if err := lib2.Encode(&buf); err == nil {
		t.Error("one-point path should fail")
	}
	lib3 := NewLibrary("z")
	s3 := lib3.AddStruct("s")
	s3.Elements = append(s3.Elements, RectBoundary(1, 0, geom.R(0, 0, int64(math.MaxInt32)+10, 5)))
	if err := lib3.Encode(&buf); err == nil {
		t.Error("out-of-range coordinate should fail")
	}
}

func TestDeterministicOutput(t *testing.T) {
	build := func() []byte {
		lib := NewLibrary("det")
		s := lib.AddStruct("TOP")
		s.Elements = append(s.Elements, RectBoundary(5, 0, geom.R(1, 2, 3, 4)))
		var buf bytes.Buffer
		if err := lib.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Error("GDS output not byte-deterministic")
	}
}

func TestWriteDesign(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	nl := netlist.New("chip")
	inv := nl.AddCell("i", lib.MustPick(cell.Inv, 1))
	inv.Pos = geom.Pt(1000, 1000)
	m := &netlist.MacroRef{Kind: "rram", Width: 100_000, Height: 100_000}
	bank := nl.AddMacro("bank", m, tech.TierRRAM)
	bank.Pos = geom.Pt(200_000, 0)

	die := geom.R(0, 0, 500_000, 500_000)
	var buf bytes.Buffer
	if err := WriteDesign(&buf, p, nl, die, nil); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// die + cell + macro = 3 boundaries.
	if len(back.Structs[0].Elements) != 3 {
		t.Fatalf("elements = %d, want 3", len(back.Structs[0].Elements))
	}
	// The macro must be on the RRAM device layer with datatype 1.
	found := false
	for _, e := range back.Structs[0].Elements {
		if b, ok := e.(*Boundary); ok && b.Layer == 21 && b.Datatype == 1 {
			found = true
		}
	}
	if !found {
		t.Error("macro boundary not on RRAM layer / datatype 1")
	}
}

// TestWriteDesignMatchesLibrary checks the streaming export against the
// same layout built element by element and written by Library.Encode:
// the two paths share one record writer and must agree byte for byte.
func TestWriteDesignMatchesLibrary(t *testing.T) {
	p, nl, die, routes := syntheticDesign(t, 50)
	var streamed, built bytes.Buffer
	if err := WriteDesign(&streamed, p, nl, die, routes); err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(nl.Name)
	top := lib.AddStruct("TOP")
	top.Elements = append(top.Elements, RectBoundary(dieOutlineLayer, 0, die))
	for _, inst := range nl.Instances {
		top.Elements = append(top.Elements, RectBoundary(deviceLayer(p, inst.Tier), 0, inst.Bounds(p)))
	}
	metals := p.RoutingLayers()
	for _, n := range nl.Nets {
		for _, s := range routes.Routes[n].Segs {
			L := metals[s.LayerIdx]
			top.Elements = append(top.Elements, &Path{
				Layer: L.GDSLayer, Width: int32(L.Pitch / 2), XY: []geom.Point{s.A, s.B},
			})
		}
	}
	if err := lib.Encode(&built); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), built.Bytes()) {
		t.Fatalf("WriteDesign wrote %d bytes that differ from Library.Encode's %d", streamed.Len(), built.Len())
	}
}

// syntheticDesign is a placed-and-routed stand-in with n cells and n
// two-pin nets, each routed as one segment.
func syntheticDesign(t testing.TB, n int) (*tech.PDK, *netlist.Netlist, geom.Rect, *route.Result) {
	t.Helper()
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	inv := lib.MustPick(cell.Inv, 1)
	nl := netlist.New("synthetic")
	metals := len(p.RoutingLayers())
	routes := &route.Result{Routes: map[*netlist.Net]*route.NetRoute{}}
	insts := make([]*netlist.Instance, n)
	for i := range insts {
		insts[i] = nl.AddCell(fmt.Sprintf("u%d", i), inv)
		insts[i].Pos = geom.Pt(int64(i%100)*2000, int64(i/100)*4000)
	}
	for i, inst := range insts {
		net := nl.AddNet(fmt.Sprintf("n%d", i), 0.1)
		nl.MustPin(inst, "Y", true, 0, net)
		nl.MustPin(insts[(i+1)%n], "A", false, inv.InputCapF, net)
		routes.Routes[net] = &route.NetRoute{Net: net, Segs: []route.Seg{{
			LayerIdx: i % metals,
			A:        inst.Pos,
			B:        insts[(i+1)%n].Pos,
		}}}
	}
	return p, nl, geom.R(0, 0, 400_000, 400_000), routes
}

// TestWriteDesignAllocs bounds the export's allocations: the stream goes
// through one reused record buffer, so a hundredfold larger design must
// not allocate more.
func TestWriteDesignAllocs(t *testing.T) {
	for _, n := range []int{10, 1000} {
		p, nl, die, routes := syntheticDesign(t, n)
		allocs := testing.AllocsPerRun(5, func() {
			if err := WriteDesign(io.Discard, p, nl, die, routes); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("%d instances and segments: WriteDesign made %.0f allocations, want at most 16", n, allocs)
		}
	}
}

// failingWriter accepts limit bytes, then fails every write with errFull.
type failingWriter struct{ limit int }

var errFull = errors.New("disk full")

func (f *failingWriter) Write(b []byte) (int, error) {
	if len(b) > f.limit {
		n := f.limit
		f.limit = 0
		return n, errFull
	}
	f.limit -= len(b)
	return len(b), nil
}

func TestWriteDesignErrors(t *testing.T) {
	beyond := int64(math.MaxInt32) + 10
	for _, tc := range []struct {
		name   string
		mutate func(nl *netlist.Netlist, routes *route.Result)
		w      io.Writer
		want   string // a substring of the error
		is     error
	}{
		{name: "instance beyond int32", mutate: func(nl *netlist.Netlist, _ *route.Result) {
			nl.Instances[3].Pos = geom.Pt(beyond, 0)
		}, want: "exceeds 32-bit range"},
		{name: "route segment beyond int32", mutate: func(nl *netlist.Netlist, routes *route.Result) {
			routes.Routes[nl.Nets[5]].Segs[0].B = geom.Pt(0, -beyond)
		}, want: "exceeds 32-bit range"},
		{name: "empty design name", mutate: func(nl *netlist.Netlist, _ *route.Result) {
			nl.Name = ""
		}, want: "needs a name"},
		{name: "writer fails mid-stream", w: &failingWriter{limit: 5000}, want: "gds: write", is: errFull},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, nl, die, routes := syntheticDesign(t, 200)
			if tc.mutate != nil {
				tc.mutate(nl, routes)
			}
			w := tc.w
			if w == nil {
				w = io.Discard
			}
			err := WriteDesign(w, p, nl, die, routes)
			if err == nil {
				t.Fatal("WriteDesign succeeded, want an error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want one containing %q", err, tc.want)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("error %v does not wrap %v", err, tc.is)
			}
		})
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail")
	}
	// Truncated record.
	if _, err := Decode(bytes.NewReader([]byte{0x00, 0x08, recHEADER, dtInt16, 0x02})); err == nil {
		t.Error("truncated record should fail")
	}
	// Record length < 4.
	if _, err := Decode(bytes.NewReader([]byte{0x00, 0x02, 0, 0})); err == nil {
		t.Error("undersized record should fail")
	}
	// LAYER and DATATYPE records without their 2-byte payload.
	for _, rec := range []byte{recLAYER, recDATATYPE} {
		if _, err := Decode(bytes.NewReader([]byte{0x00, 0x04, rec, dtInt16})); err == nil {
			t.Errorf("record 0x%02x without payload should fail", rec)
		}
	}
}

func TestDecodeRobustAgainstGarbage(t *testing.T) {
	// The reader must reject arbitrary byte soup with errors, never panic.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		n := rng.Intn(512)
		buf := make([]byte, n)
		rng.Read(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on %d random bytes: %v", n, r)
				}
			}()
			lib, err := Decode(bytes.NewReader(buf))
			// Either an error or a (vacuously) parsed library is fine; a
			// panic is not.
			_ = lib
			_ = err
		}()
	}
}

func TestDecodeTruncatedStreams(t *testing.T) {
	// Truncate a valid stream at every byte offset: each prefix must fail
	// cleanly (except the full stream).
	lib := NewLibrary("trunc")
	s := lib.AddStruct("TOP")
	s.Elements = append(s.Elements, RectBoundary(1, 0, geom.R(0, 0, 10, 10)))
	var full bytes.Buffer
	if err := lib.Encode(&full); err != nil {
		t.Fatal(err)
	}
	data := full.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(data))
		}
	}
	if _, err := Decode(bytes.NewReader(data)); err != nil {
		t.Fatalf("full stream failed: %v", err)
	}
}
