package gds

import (
	"bytes"
	"testing"

	"m3d/internal/geom"
)

// FuzzRead feeds arbitrary bytes through the GDS reader. The property
// under test: Decode never panics — a malformed stream must come back as
// an error (or decode cleanly), never as a crash.
func FuzzRead(f *testing.F) {
	lib := NewLibrary("fuzz")
	s := lib.AddStruct("TOP")
	s.Elements = append(s.Elements,
		RectBoundary(11, 0, geom.R(0, 0, 1000, 2000)),
		&Path{Layer: 13, Width: 205, XY: []geom.Point{geom.Pt(0, 0), geom.Pt(9000, 0)}},
	)
	var buf bytes.Buffer
	if err := lib.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0x00, 0x04, recLAYER, dtInt16})
	f.Add([]byte{0x00, 0x04, recDATATYPE, dtInt16})

	f.Fuzz(func(t *testing.T, data []byte) {
		lib, err := Decode(bytes.NewReader(data))
		if err == nil && lib == nil {
			t.Fatal("nil library with nil error")
		}
	})
}
