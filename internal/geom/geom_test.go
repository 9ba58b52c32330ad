package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Pt(3, 4)
	q := Pt(-1, 2)
	if got := p.Add(q); got != Pt(2, 6) {
		t.Errorf("Add = %v, want (2,6)", got)
	}
	if got := p.Sub(q); got != Pt(4, 2) {
		t.Errorf("Sub = %v, want (4,2)", got)
	}
	if got := p.ManhattanDist(q); got != 6 {
		t.Errorf("ManhattanDist = %d, want 6", got)
	}
	if got := p.ManhattanDist(p); got != 0 {
		t.Errorf("self distance = %d, want 0", got)
	}
}

func TestRectNormalization(t *testing.T) {
	r := R(10, 20, 0, 5)
	if r.Lo != Pt(0, 5) || r.Hi != Pt(10, 20) {
		t.Fatalf("R did not normalize corners: %v", r)
	}
	if r.W() != 10 || r.H() != 15 || r.Area() != 150 {
		t.Errorf("W/H/Area = %d/%d/%d, want 10/15/150", r.W(), r.H(), r.Area())
	}
}

func TestRectEmpty(t *testing.T) {
	if !R(0, 0, 0, 10).Empty() {
		t.Error("zero-width rect should be empty")
	}
	if R(0, 0, 1, 1).Empty() {
		t.Error("unit rect should not be empty")
	}
	if R(0, 0, 0, 10).Area() != 0 {
		t.Error("empty rect area should be 0")
	}
}

func TestRectContains(t *testing.T) {
	r := R(0, 0, 10, 10)
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(0, 0), true},
		{Pt(9, 9), true},
		{Pt(10, 10), false}, // Hi is exclusive
		{Pt(5, 10), false},
		{Pt(-1, 5), false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	got := a.Intersect(b)
	if got != R(5, 5, 10, 10) {
		t.Errorf("Intersect = %v, want [5,5,10,10]", got)
	}
	if !a.Overlaps(b) {
		t.Error("a should overlap b")
	}
	c := R(20, 20, 30, 30)
	if a.Overlaps(c) {
		t.Error("disjoint rects must not overlap")
	}
	if got := a.Union(b); got != R(0, 0, 15, 15) {
		t.Errorf("Union = %v, want [0,0,15,15]", got)
	}
	if got := a.Union(Rect{}); got != a {
		t.Errorf("Union with empty = %v, want %v", got, a)
	}
}

func TestRectInset(t *testing.T) {
	r := R(0, 0, 10, 10)
	if got := r.Inset(2); got != R(2, 2, 8, 8) {
		t.Errorf("Inset(2) = %v", got)
	}
	if got := r.Inset(-2); got != R(-2, -2, 12, 12) {
		t.Errorf("Inset(-2) = %v", got)
	}
	// Over-inset collapses to the center rather than inverting.
	if got := r.Inset(6); !got.Empty() {
		t.Errorf("over-inset should be empty, got %v", got)
	}
}

func TestRectTranslate(t *testing.T) {
	r := R(0, 0, 4, 4).Translate(Pt(10, 20))
	if r != R(10, 20, 14, 24) {
		t.Errorf("Translate = %v", r)
	}
}

func TestIntersectionPropertySubset(t *testing.T) {
	// The intersection of two rectangles is contained in both.
	f := func(x0, y0, x1, y1, x2, y2, x3, y3 int16) bool {
		a := R(int64(x0), int64(y0), int64(x1), int64(y1))
		b := R(int64(x2), int64(y2), int64(x3), int64(y3))
		in := a.Intersect(b)
		return a.ContainsRect(in) && b.ContainsRect(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionPropertySuperset(t *testing.T) {
	f := func(x0, y0, x1, y1, x2, y2, x3, y3 int16) bool {
		a := R(int64(x0), int64(y0), int64(x1), int64(y1))
		b := R(int64(x2), int64(y2), int64(x3), int64(y3))
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManhattanTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a, b, c := Pt(int64(ax), int64(ay)), Pt(int64(bx), int64(by)), Pt(int64(cx), int64(cy))
		return a.ManhattanDist(c) <= a.ManhattanDist(b)+b.ManhattanDist(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGridBasics(t *testing.T) {
	g := NewGrid(R(0, 0, 100, 50), 10)
	if g.NX != 10 || g.NY != 5 {
		t.Fatalf("grid dims = %dx%d, want 10x5", g.NX, g.NY)
	}
	g.Set(3, 2, 7.5)
	if got := g.At(3, 2); got != 7.5 {
		t.Errorf("At = %v", got)
	}
	g.Add(3, 2, 0.5)
	if got := g.At(3, 2); got != 8 {
		t.Errorf("after Add, At = %v", got)
	}
	ix, iy := g.CellOf(Pt(35, 27))
	if ix != 3 || iy != 2 {
		t.Errorf("CellOf = (%d,%d), want (3,2)", ix, iy)
	}
	// Clamping.
	ix, iy = g.CellOf(Pt(1000, -5))
	if ix != 9 || iy != 0 {
		t.Errorf("clamped CellOf = (%d,%d), want (9,0)", ix, iy)
	}
}

func TestGridRaggedEdge(t *testing.T) {
	// 95 wide at pitch 10 -> 10 cells, last cell clipped to width 5.
	g := NewGrid(R(0, 0, 95, 10), 10)
	if g.NX != 10 {
		t.Fatalf("NX = %d, want 10", g.NX)
	}
	last := g.CellRect(9, 0)
	if last.W() != 5 {
		t.Errorf("last cell width = %d, want 5", last.W())
	}
}

func TestGridAddRectConserves(t *testing.T) {
	g := NewGrid(R(0, 0, 100, 100), 10)
	g.AddRect(R(5, 5, 45, 35), 12.0)
	if diff := math.Abs(g.Sum() - 12.0); diff > 1e-9 {
		t.Errorf("AddRect total = %v, want 12 (diff %v)", g.Sum(), diff)
	}
}

func TestGridAddRectPartiallyOutside(t *testing.T) {
	g := NewGrid(R(0, 0, 100, 100), 10)
	// Half the rect hangs off the left edge; only half the mass lands.
	g.AddRect(R(-20, 0, 20, 10), 10.0)
	if diff := math.Abs(g.Sum() - 5.0); diff > 1e-9 {
		t.Errorf("clipped AddRect total = %v, want 5", g.Sum())
	}
}

func TestGridAddRectConservationProperty(t *testing.T) {
	g := NewGrid(R(0, 0, 1000, 1000), 37) // deliberately non-divisible pitch
	f := func(x0, y0, w, h uint8, v uint8) bool {
		r := R(int64(x0), int64(y0), int64(x0)+int64(w)+1, int64(y0)+int64(h)+1)
		before := g.Sum()
		g.AddRect(r, float64(v))
		after := g.Sum()
		// Rect is fully inside the region (max 256+256 < 1000).
		return math.Abs((after-before)-float64(v)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGridCloneIndependent(t *testing.T) {
	g := NewGrid(R(0, 0, 30, 30), 10)
	g.Set(1, 1, 5)
	c := g.Clone()
	c.Set(1, 1, 9)
	if g.At(1, 1) != 5 {
		t.Error("clone mutated the original")
	}
}

func TestGridMaxScale(t *testing.T) {
	g := NewGrid(R(0, 0, 30, 30), 10)
	g.Set(0, 0, 2)
	g.Set(2, 2, 6)
	if g.Max() != 6 {
		t.Errorf("Max = %v", g.Max())
	}
	g.Scale(0.5)
	if g.Max() != 3 || g.At(0, 0) != 1 {
		t.Errorf("after Scale: max=%v at(0,0)=%v", g.Max(), g.At(0, 0))
	}
}

func TestGridPanicsOutOfBounds(t *testing.T) {
	g := NewGrid(R(0, 0, 30, 30), 10)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-bounds access")
		}
	}()
	g.At(5, 5)
}
