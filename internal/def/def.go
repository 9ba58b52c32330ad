// Package def writes and reads a subset of the DEF (Design Exchange
// Format) sufficient to carry this project's placements between tools:
// VERSION, DESIGN, UNITS, DIEAREA, a COMPONENTS section with PLACED
// locations (macros as FIXED), and a NETS section listing connections.
// The reader applies a DEF's placement back onto an existing netlist.
package def

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// Write emits the design's floorplan and placement as DEF. die is the die
// area; distance units are nm (DEF DBU = 1000 per micron). Each line is
// built in one reused buffer, so the export allocates the same few
// objects whatever the design's size.
func Write(w io.Writer, nl *netlist.Netlist, die geom.Rect) error {
	bw := bufio.NewWriter(w)
	b := make([]byte, 0, 256)
	b = append(b, "VERSION 5.8 ;\nDESIGN "...)
	b = appendIdent(b, nl.Name)
	b = append(b, " ;\nUNITS DISTANCE MICRONS 1000 ;\nDIEAREA"...)
	b = appendPoint(b, die.Lo)
	b = appendPoint(b, die.Hi)
	b = append(b, " ;\nCOMPONENTS "...)
	b = strconv.AppendInt(b, int64(len(nl.Instances)), 10)
	b = append(b, " ;\n"...)
	if _, err := bw.Write(b); err != nil {
		return err
	}
	for _, inst := range nl.Instances {
		b = append(b[:0], "  - "...)
		b = appendIdent(b, inst.Name)
		b = append(b, ' ')
		status := "PLACED"
		if inst.IsMacro() {
			b = appendIdent(b, inst.Macro.Kind)
			status = "FIXED"
		} else {
			b = appendIdent(b, inst.Cell.Name)
			if inst.Fixed {
				status = "FIXED"
			}
		}
		b = append(b, " + "...)
		b = append(b, status...)
		b = appendPoint(b, inst.Pos)
		b = append(b, " N ;\n"...)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}

	b = append(b[:0], "END COMPONENTS\nNETS "...)
	b = strconv.AppendInt(b, int64(len(nl.Nets)), 10)
	b = append(b, " ;\n"...)
	if _, err := bw.Write(b); err != nil {
		return err
	}
	for _, n := range nl.Nets {
		b = append(b[:0], "  - "...)
		b = appendIdent(b, n.Name)
		if n.Driver != nil {
			b = appendPin(b, n.Driver)
		}
		for _, p := range n.Sinks {
			b = appendPin(b, p)
		}
		b = append(b, " ;\n"...)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("END NETS\nEND DESIGN\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// appendPoint appends " ( x y )".
func appendPoint(b []byte, p geom.Point) []byte {
	b = append(b, " ( "...)
	b = strconv.AppendInt(b, p.X, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, p.Y, 10)
	return append(b, " )"...)
}

// appendPin appends a NETS connection, " ( instance pin )".
func appendPin(b []byte, p *netlist.Pin) []byte {
	b = append(b, " ( "...)
	b = appendIdent(b, p.Inst.Name)
	b = append(b, ' ')
	b = appendIdent(b, p.Name)
	return append(b, " )"...)
}

// appendIdent appends s as a DEF identifier: every character outside
// [A-Za-z0-9_[]/] (a multi-byte rune, or an invalid UTF-8 byte, counts as
// one) becomes '_', and the empty name becomes "_".
func appendIdent(b []byte, s string) []byte {
	if s == "" {
		return append(b, '_')
	}
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			_, size := utf8.DecodeRuneInString(s[i:])
			b = append(b, '_')
			i += size
			continue
		}
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '[', c == ']', c == '/':
		default:
			c = '_'
		}
		b = append(b, c)
		i++
	}
	return b
}

// Placement is one component location parsed from a DEF.
type Placement struct {
	Name   string
	Master string
	Fixed  bool
	Pos    geom.Point
}

// Parsed is the reader's output.
type Parsed struct {
	Design     string
	Die        geom.Rect
	Placements []Placement
	NetCount   int
}

// Read parses the subset Write produces.
func Read(r io.Reader) (*Parsed, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	out := &Parsed{}
	inComponents := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		f := strings.Fields(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "DESIGN "):
			if len(f) >= 2 {
				out.Design = f[1]
			}
		case strings.HasPrefix(line, "DIEAREA"):
			// DIEAREA ( x0 y0 ) ( x1 y1 ) ;
			nums := numbers(f)
			if len(nums) != 4 {
				return nil, fmt.Errorf("def: line %d: bad DIEAREA", lineNo)
			}
			out.Die = geom.R(nums[0], nums[1], nums[2], nums[3])
		case strings.HasPrefix(line, "COMPONENTS "):
			inComponents = true
		case line == "END COMPONENTS":
			inComponents = false
		case strings.HasPrefix(line, "NETS "):
			if len(f) >= 2 {
				n, err := strconv.Atoi(f[1])
				if err != nil {
					return nil, fmt.Errorf("def: line %d: bad NETS count", lineNo)
				}
				out.NetCount = n
			}
		case inComponents && strings.HasPrefix(line, "- "):
			// - name master + STATUS ( x y ) N ;
			if len(f) < 9 {
				return nil, fmt.Errorf("def: line %d: bad component %q", lineNo, line)
			}
			nums := numbers(f)
			if len(nums) != 2 {
				return nil, fmt.Errorf("def: line %d: bad component coords", lineNo)
			}
			out.Placements = append(out.Placements, Placement{
				Name:   f[1],
				Master: f[2],
				Fixed:  f[4] == "FIXED",
				Pos:    geom.Pt(nums[0], nums[1]),
			})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if out.Design == "" {
		return nil, fmt.Errorf("def: no DESIGN statement")
	}
	return out, nil
}

// numbers extracts all integer tokens from fields.
func numbers(fields []string) []int64 {
	var out []int64
	for _, f := range fields {
		if v, err := strconv.ParseInt(f, 10, 64); err == nil {
			out = append(out, v)
		}
	}
	return out
}

// Apply copies a parsed DEF's placement onto nl by instance name (as
// written by Write, i.e. after identifier mapping). Returns how many
// instances were placed; errors if a placed instance is missing.
func Apply(nl *netlist.Netlist, parsed *Parsed, p *tech.PDK) (int, error) {
	byName := make(map[string]*netlist.Instance, len(nl.Instances))
	var key []byte
	for _, inst := range nl.Instances {
		key = appendIdent(key[:0], inst.Name)
		byName[string(key)] = inst
	}
	placed := 0
	for _, pl := range parsed.Placements {
		inst, ok := byName[pl.Name]
		if !ok {
			return placed, fmt.Errorf("def: placement for unknown instance %q", pl.Name)
		}
		inst.Pos = pl.Pos
		inst.Fixed = pl.Fixed
		if !parsed.Die.Empty() && !parsed.Die.ContainsRect(inst.Bounds(p)) {
			return placed, fmt.Errorf("def: instance %q placed outside the die", pl.Name)
		}
		placed++
	}
	return placed, nil
}
