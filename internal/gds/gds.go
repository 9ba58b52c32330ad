// Package gds implements a GDSII stream-format writer and a minimal reader,
// used as the final output of the RTL-to-GDS flow. It supports the record
// set needed for placed-and-routed layout export: HEADER, BGNLIB, LIBNAME,
// UNITS, BGNSTR, STRNAME, BOUNDARY, PATH, LAYER, DATATYPE, WIDTH, XY,
// ENDEL, ENDSTR, ENDLIB. Coordinates are database units (1 nm).
//
// WriteDesign streams a routed design straight to the output, and
// Library.Encode writes a library built element by element; both go
// through one record writer.
package gds

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"m3d/internal/geom"
)

// GDSII record types.
const (
	recHEADER   = 0x00
	recBGNLIB   = 0x01
	recLIBNAME  = 0x02
	recUNITS    = 0x03
	recENDLIB   = 0x04
	recBGNSTR   = 0x05
	recSTRNAME  = 0x06
	recENDSTR   = 0x07
	recBOUNDARY = 0x08
	recPATH     = 0x09
	recLAYER    = 0x0d
	recDATATYPE = 0x0e
	recWIDTH    = 0x0f
	recXY       = 0x10
	recENDEL    = 0x11
)

// GDSII data types.
const (
	dtNone   = 0x00
	dtInt16  = 0x02
	dtInt32  = 0x03
	dtReal64 = 0x05
	dtASCII  = 0x06
)

// Element is a drawable layout element.
type Element interface {
	encode(w *recordWriter) error
}

// Boundary is a filled polygon on a layer. XY is the open outline; the
// writer closes it (GDSII repeats the first point).
type Boundary struct {
	Layer, Datatype int16
	XY              []geom.Point
}

// RectBoundary builds a Boundary from a rectangle.
func RectBoundary(layer, datatype int16, r geom.Rect) *Boundary {
	xy := rectOutline(r)
	return &Boundary{Layer: layer, Datatype: datatype, XY: xy[:]}
}

// rectOutline is r's open outline, counter-clockwise from its low corner.
func rectOutline(r geom.Rect) [4]geom.Point {
	return [4]geom.Point{r.Lo, {X: r.Hi.X, Y: r.Lo.Y}, r.Hi, {X: r.Lo.X, Y: r.Hi.Y}}
}

// Path is a wire centerline with a width on a layer.
type Path struct {
	Layer, Datatype int16
	Width           int32
	XY              []geom.Point
}

// Struct is a GDS structure (a named cell).
type Struct struct {
	Name     string
	Elements []Element
}

// Library is a GDS library: the top-level container of the stream file.
type Library struct {
	Name string
	// UserUnitPerDBU is the user unit per database unit (default 1e-3:
	// 1 DBU = 0.001 µm). MetersPerDBU is the physical size of one database
	// unit (default 1e-9: 1 nm).
	UserUnitPerDBU float64
	MetersPerDBU   float64
	Structs        []*Struct
}

// The default units: 1 DBU = 1 nm = 0.001 µm.
const (
	userUnitPerDBU = 1e-3
	metersPerDBU   = 1e-9
)

// NewLibrary creates a library with nm database units.
func NewLibrary(name string) *Library {
	return &Library{Name: name, UserUnitPerDBU: userUnitPerDBU, MetersPerDBU: metersPerDBU}
}

// AddStruct appends and returns a new named structure.
func (l *Library) AddStruct(name string) *Struct {
	s := &Struct{Name: name}
	l.Structs = append(l.Structs, s)
	return s
}

// recordWriter emits GDS records through one reused record buffer. Its
// error is sticky: after the first failure every call is a no-op, and the
// element writers return it.
type recordWriter struct {
	w   *bufio.Writer
	rec []byte // the record being built: 4-byte header, then payload
	err error
}

func newRecordWriter(w io.Writer) *recordWriter {
	return &recordWriter{w: bufio.NewWriter(w), rec: make([]byte, 0, 64)}
}

// begin starts a record; payload appends follow, and end writes it.
func (rw *recordWriter) begin(recType, dataType byte) {
	rw.rec = append(rw.rec[:0], 0, 0, recType, dataType)
}

// end stamps the record's length into its header and writes it.
func (rw *recordWriter) end() {
	if rw.err != nil {
		return
	}
	if len(rw.rec) > 0xFFFF {
		rw.err = fmt.Errorf("gds: record 0x%02x payload too large (%d bytes)", rw.rec[2], len(rw.rec)-4)
		return
	}
	binary.BigEndian.PutUint16(rw.rec, uint16(len(rw.rec)))
	if _, err := rw.w.Write(rw.rec); err != nil {
		rw.err = fmt.Errorf("gds: write: %w", err)
	}
}

func (rw *recordWriter) empty(recType byte) {
	rw.begin(recType, dtNone)
	rw.end()
}

func (rw *recordWriter) int16s(recType byte, vals ...int16) {
	rw.begin(recType, dtInt16)
	for _, v := range vals {
		rw.rec = binary.BigEndian.AppendUint16(rw.rec, uint16(v))
	}
	rw.end()
}

func (rw *recordWriter) ascii(recType byte, s string) {
	rw.begin(recType, dtASCII)
	rw.rec = append(rw.rec, s...)
	if len(s)%2 == 1 {
		rw.rec = append(rw.rec, 0) // GDS pads strings to even length
	}
	rw.end()
}

func (rw *recordWriter) reals(recType byte, vals ...float64) {
	rw.begin(recType, dtReal64)
	for _, v := range vals {
		rw.rec = binary.BigEndian.AppendUint64(rw.rec, float64ToGDSReal(v))
	}
	rw.end()
}

// xy writes an XY record; a closed loop repeats the first point, as a
// GDSII boundary requires.
func (rw *recordWriter) xy(pts []geom.Point, closeLoop bool) {
	rw.begin(recXY, dtInt32)
	for _, p := range pts {
		rw.point(p)
	}
	if closeLoop && len(pts) > 0 {
		rw.point(pts[0])
	}
	rw.end()
}

func (rw *recordWriter) point(p geom.Point) {
	if p.X < math.MinInt32 || p.X > math.MaxInt32 || p.Y < math.MinInt32 || p.Y > math.MaxInt32 {
		if rw.err == nil {
			rw.err = fmt.Errorf("gds: coordinate %v exceeds 32-bit range", p)
		}
		return
	}
	rw.rec = binary.BigEndian.AppendUint32(rw.rec, uint32(int32(p.X)))
	rw.rec = binary.BigEndian.AppendUint32(rw.rec, uint32(int32(p.Y)))
}

// float64ToGDSReal converts to the GDSII 8-byte excess-64 base-16 real.
func float64ToGDSReal(v float64) uint64 {
	if v == 0 {
		return 0
	}
	var sign uint64
	if v < 0 {
		sign = 1 << 63
		v = -v
	}
	exp := 0
	for v >= 1 {
		v /= 16
		exp++
	}
	for v < 1.0/16 {
		v *= 16
		exp--
	}
	// v ∈ [1/16, 1); mantissa is 56 bits.
	mant := uint64(v * math.Pow(2, 56))
	return sign | uint64(exp+64)<<56 | mant&((1<<56)-1)
}

// gdsRealToFloat64 converts back (for the reader).
func gdsRealToFloat64(bits uint64) float64 {
	if bits == 0 {
		return 0
	}
	sign := 1.0
	if bits&(1<<63) != 0 {
		sign = -1
	}
	exp := int((bits>>56)&0x7F) - 64
	mant := float64(bits&((1<<56)-1)) / math.Pow(2, 56)
	return sign * mant * math.Pow(16, float64(exp))
}

// boundary writes one BOUNDARY element with the open outline xy.
func (rw *recordWriter) boundary(layer, datatype int16, xy []geom.Point) error {
	if len(xy) < 3 {
		return fmt.Errorf("gds: boundary needs at least 3 points, got %d", len(xy))
	}
	rw.empty(recBOUNDARY)
	rw.int16s(recLAYER, layer)
	rw.int16s(recDATATYPE, datatype)
	rw.xy(xy, true)
	rw.empty(recENDEL)
	return rw.err
}

// rect writes r as a four-point BOUNDARY element.
func (rw *recordWriter) rect(layer, datatype int16, r geom.Rect) error {
	xy := rectOutline(r)
	return rw.boundary(layer, datatype, xy[:])
}

// path writes one PATH element along the centerline xy.
func (rw *recordWriter) path(layer, datatype int16, width int32, xy []geom.Point) error {
	if len(xy) < 2 {
		return fmt.Errorf("gds: path needs at least 2 points, got %d", len(xy))
	}
	rw.empty(recPATH)
	rw.int16s(recLAYER, layer)
	rw.int16s(recDATATYPE, datatype)
	rw.begin(recWIDTH, dtInt32)
	rw.rec = binary.BigEndian.AppendUint32(rw.rec, uint32(width))
	rw.end()
	rw.xy(xy, false)
	rw.empty(recENDEL)
	return rw.err
}

func (b *Boundary) encode(rw *recordWriter) error {
	return rw.boundary(b.Layer, b.Datatype, b.XY)
}

func (p *Path) encode(rw *recordWriter) error {
	return rw.path(p.Layer, p.Datatype, p.Width, p.XY)
}

// timestamp is the fixed modification time stamped into BGNLIB/BGNSTR
// (deterministic output).
var timestamp = [12]int16{2023, 4, 17, 0, 0, 0, 2023, 4, 17, 0, 0, 0}

// beginLib writes the records that open a library: HEADER (stream
// version 6), BGNLIB, LIBNAME and UNITS.
func (rw *recordWriter) beginLib(name string, userUnit, meters float64) {
	rw.int16s(recHEADER, 600)
	rw.int16s(recBGNLIB, timestamp[:]...)
	rw.ascii(recLIBNAME, name)
	rw.reals(recUNITS, userUnit, meters)
}

// beginStruct writes the records that open a structure: BGNSTR, STRNAME.
func (rw *recordWriter) beginStruct(name string) {
	rw.int16s(recBGNSTR, timestamp[:]...)
	rw.ascii(recSTRNAME, name)
}

// finish writes ENDLIB and flushes the stream.
func (rw *recordWriter) finish() error {
	rw.empty(recENDLIB)
	if rw.err != nil {
		return rw.err
	}
	if err := rw.w.Flush(); err != nil {
		return fmt.Errorf("gds: write: %w", err)
	}
	return nil
}

// Encode writes the library as a GDSII stream.
func (l *Library) Encode(w io.Writer) error {
	if l.Name == "" {
		return fmt.Errorf("gds: library needs a name")
	}
	rw := newRecordWriter(w)
	rw.beginLib(l.Name, l.UserUnitPerDBU, l.MetersPerDBU)
	for _, s := range l.Structs {
		if s.Name == "" {
			return fmt.Errorf("gds: structure needs a name")
		}
		rw.beginStruct(s.Name)
		for _, e := range s.Elements {
			if err := e.encode(rw); err != nil {
				return err
			}
		}
		rw.empty(recENDSTR)
	}
	return rw.finish()
}
