package gds

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"m3d/internal/geom"
)

// Decode reads a GDSII stream back into a Library. It understands exactly
// the records Encode produces; unknown records are skipped. Primarily used
// for round-trip verification and lightweight inspection.
func Decode(r io.Reader) (*Library, error) {
	br := bufio.NewReader(r)
	lib := &Library{}
	var cur *Struct
	var curBoundary *Boundary
	var curPath *Path

	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("gds: stream ended without ENDLIB")
			}
			return nil, err
		}
		length := int(binary.BigEndian.Uint16(hdr[0:2]))
		if length < 4 {
			return nil, fmt.Errorf("gds: record length %d too small", length)
		}
		recType := hdr[2]
		payload := make([]byte, length-4)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("gds: truncated record 0x%02x: %w", recType, err)
		}

		switch recType {
		case recENDLIB:
			return lib, nil
		case recLIBNAME:
			lib.Name = trimGDSString(payload)
		case recUNITS:
			if len(payload) >= 16 {
				lib.UserUnitPerDBU = gdsRealToFloat64(binary.BigEndian.Uint64(payload[0:8]))
				lib.MetersPerDBU = gdsRealToFloat64(binary.BigEndian.Uint64(payload[8:16]))
			}
		case recBGNSTR:
			cur = &Struct{}
			lib.Structs = append(lib.Structs, cur)
		case recSTRNAME:
			if cur == nil {
				return nil, fmt.Errorf("gds: STRNAME outside structure")
			}
			cur.Name = trimGDSString(payload)
		case recBOUNDARY:
			curBoundary = &Boundary{}
		case recPATH:
			curPath = &Path{}
		case recLAYER:
			if len(payload) < 2 {
				return nil, fmt.Errorf("gds: LAYER record has %d payload bytes, want 2", len(payload))
			}
			v := int16(binary.BigEndian.Uint16(payload))
			if curBoundary != nil {
				curBoundary.Layer = v
			} else if curPath != nil {
				curPath.Layer = v
			}
		case recDATATYPE:
			if len(payload) < 2 {
				return nil, fmt.Errorf("gds: DATATYPE record has %d payload bytes, want 2", len(payload))
			}
			v := int16(binary.BigEndian.Uint16(payload))
			if curBoundary != nil {
				curBoundary.Datatype = v
			} else if curPath != nil {
				curPath.Datatype = v
			}
		case recWIDTH:
			if curPath != nil && len(payload) >= 4 {
				curPath.Width = int32(binary.BigEndian.Uint32(payload))
			}
		case recXY:
			pts := make([]geom.Point, 0, len(payload)/8)
			for i := 0; i+8 <= len(payload); i += 8 {
				x := int32(binary.BigEndian.Uint32(payload[i:]))
				y := int32(binary.BigEndian.Uint32(payload[i+4:]))
				pts = append(pts, geom.Pt(int64(x), int64(y)))
			}
			if curBoundary != nil {
				// Strip the closing point the writer added.
				if len(pts) > 1 && pts[0] == pts[len(pts)-1] {
					pts = pts[:len(pts)-1]
				}
				curBoundary.XY = pts
			} else if curPath != nil {
				curPath.XY = pts
			}
		case recENDEL:
			if cur == nil {
				return nil, fmt.Errorf("gds: element outside structure")
			}
			if curBoundary != nil {
				cur.Elements = append(cur.Elements, curBoundary)
				curBoundary = nil
			}
			if curPath != nil {
				cur.Elements = append(cur.Elements, curPath)
				curPath = nil
			}
		case recENDSTR:
			cur = nil
		}
	}
}

func trimGDSString(b []byte) string {
	return strings.TrimRight(string(b), "\x00")
}
