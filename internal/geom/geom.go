// Package geom provides the integer Manhattan geometry primitives used by
// the physical-design substrate: points, rectangles, and dense occupancy
// grids. All coordinates are in database units (DBU); the technology layer
// defines the DBU-to-micron scale (1 DBU = 1 nm throughout this project).
package geom

import "fmt"

// Point is a location in database units.
type Point struct {
	X, Y int64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// ManhattanDist returns the L1 distance between p and q.
func (p Point) ManhattanDist(q Point) int64 {
	return absInt64(p.X-q.X) + absInt64(p.Y-q.Y)
}

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Rect is an axis-aligned rectangle with inclusive lower-left (Lo) and
// exclusive upper-right (Hi) corners. A Rect with Hi <= Lo on either axis is
// empty.
type Rect struct {
	Lo, Hi Point
}

// R builds a rectangle from two corner coordinates, normalizing the order.
func R(x0, y0, x1, y1 int64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Lo: Point{x0, y0}, Hi: Point{x1, y1}}
}

// W returns the rectangle width (0 if empty).
func (r Rect) W() int64 {
	if r.Hi.X <= r.Lo.X {
		return 0
	}
	return r.Hi.X - r.Lo.X
}

// H returns the rectangle height (0 if empty).
func (r Rect) H() int64 {
	if r.Hi.Y <= r.Lo.Y {
		return 0
	}
	return r.Hi.Y - r.Lo.Y
}

// Area returns the rectangle area in DBU².
func (r Rect) Area() int64 { return r.W() * r.H() }

// Empty reports whether the rectangle encloses no area.
func (r Rect) Empty() bool { return r.W() == 0 || r.H() == 0 }

// Center returns the rectangle's center point (rounded down).
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Contains reports whether p lies inside r (Lo inclusive, Hi exclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X < r.Hi.X && p.Y >= r.Lo.Y && p.Y < r.Hi.Y
}

// ContainsRect reports whether s lies fully inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.Lo.X >= r.Lo.X && s.Lo.Y >= r.Lo.Y && s.Hi.X <= r.Hi.X && s.Hi.Y <= r.Hi.Y
}

// Intersect returns the overlap of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		Lo: Point{maxInt64(r.Lo.X, s.Lo.X), maxInt64(r.Lo.Y, s.Lo.Y)},
		Hi: Point{minInt64(r.Hi.X, s.Hi.X), minInt64(r.Hi.Y, s.Hi.Y)},
	}
	if out.Hi.X < out.Lo.X {
		out.Hi.X = out.Lo.X
	}
	if out.Hi.Y < out.Lo.Y {
		out.Hi.Y = out.Lo.Y
	}
	return out
}

// Overlaps reports whether r and s share any area.
func (r Rect) Overlaps(s Rect) bool { return !r.Intersect(s).Empty() }

// Union returns the bounding box of r and s. Empty inputs are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		Lo: Point{minInt64(r.Lo.X, s.Lo.X), minInt64(r.Lo.Y, s.Lo.Y)},
		Hi: Point{maxInt64(r.Hi.X, s.Hi.X), maxInt64(r.Hi.Y, s.Hi.Y)},
	}
}

// Inset shrinks the rectangle by d on every side (negative d grows it).
func (r Rect) Inset(d int64) Rect {
	out := Rect{
		Lo: Point{r.Lo.X + d, r.Lo.Y + d},
		Hi: Point{r.Hi.X - d, r.Hi.Y - d},
	}
	if out.Hi.X < out.Lo.X || out.Hi.Y < out.Lo.Y {
		c := r.Center()
		return Rect{Lo: c, Hi: c}
	}
	return out
}

// Translate returns r moved by p.
func (r Rect) Translate(p Point) Rect {
	return Rect{Lo: r.Lo.Add(p), Hi: r.Hi.Add(p)}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%s %s]", r.Lo, r.Hi)
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
