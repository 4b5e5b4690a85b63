package geom

import (
	"math"
	"math/rand"
	"testing"
)

func pt(vs ...float64) Point { return Point(vs) }

func TestPointClone(t *testing.T) {
	p := pt(1, 2)
	q := p.Clone()
	q[0] = 9
	if p[0] != 1 {
		t.Fatal("Clone did not copy")
	}
}

func TestPointEqual(t *testing.T) {
	tests := []struct {
		a, b Point
		want bool
	}{
		{pt(1, 2), pt(1, 2), true},
		{pt(1, 2), pt(1, 3), false},
		{pt(1), pt(1, 2), false},
		{pt(), pt(), true},
	}
	for _, tc := range tests {
		if got := tc.a.Equal(tc.b); got != tc.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPointDist(t *testing.T) {
	if d := pt(0, 0).Dist(pt(3, 4)); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d := pt(1, 1).DistSq(pt(4, 5)); d != 25 {
		t.Fatalf("DistSq = %v, want 25", d)
	}
}

func TestPointDistMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dist with mismatched dims did not panic")
		}
	}()
	pt(1).Dist(pt(1, 2))
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(pt(5, -1), pt(1, 3))
	if r.Lo[0] != 1 || r.Hi[0] != 5 || r.Lo[1] != -1 || r.Hi[1] != 3 {
		t.Fatalf("NewRect did not normalize corners: %v", r)
	}
}

func TestRectCanonical(t *testing.T) {
	r := Rect{Lo: pt(2, 0), Hi: pt(-2, 1)}
	c := r.Canonical()
	if c.Lo[0] != -2 || c.Hi[0] != 2 {
		t.Fatalf("Canonical = %v", c)
	}
	// Original untouched.
	if r.Lo[0] != 2 {
		t.Fatal("Canonical mutated receiver")
	}
}

func TestRectContains(t *testing.T) {
	outer := NewRect(pt(0, 0), pt(10, 10))
	tests := []struct {
		r    Rect
		want bool
	}{
		{NewRect(pt(1, 1), pt(9, 9)), true},
		{NewRect(pt(0, 0), pt(10, 10)), true},
		{NewRect(pt(-1, 1), pt(9, 9)), false},
		{NewRect(pt(1, 1), pt(9, 11)), false},
	}
	for _, tc := range tests {
		if got := outer.Contains(tc.r); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.r, got, tc.want)
		}
	}
	if outer.Contains(NewRect(pt(1), pt(2))) {
		t.Error("Contains across dimensionalities should be false")
	}
}

func TestRectContainsPoint(t *testing.T) {
	r := NewRect(pt(0, 0), pt(2, 2))
	if !r.ContainsPoint(pt(1, 1)) || !r.ContainsPoint(pt(0, 2)) {
		t.Error("interior/boundary point not contained")
	}
	if r.ContainsPoint(pt(3, 1)) || r.ContainsPoint(pt(1)) {
		t.Error("exterior or mismatched point contained")
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect(pt(0, 0), pt(2, 2))
	tests := []struct {
		b    Rect
		want bool
	}{
		{NewRect(pt(1, 1), pt(3, 3)), true},
		{NewRect(pt(2, 2), pt(3, 3)), true}, // boundary touch
		{NewRect(pt(2.1, 0), pt(3, 1)), false},
		{NewRect(pt(0, -2), pt(2, -0.1)), false},
	}
	for _, tc := range tests {
		if got := a.Intersects(tc.b); got != tc.want {
			t.Errorf("Intersects(%v) = %v, want %v", tc.b, got, tc.want)
		}
		if got := tc.b.Intersects(a); got != tc.want {
			t.Errorf("Intersects is not symmetric for %v", tc.b)
		}
	}
}

func TestRectUnionAreaMargin(t *testing.T) {
	a := NewRect(pt(0, 0), pt(1, 1))
	b := NewRect(pt(2, 2), pt(3, 4))
	u := a.Union(b)
	if !u.Equal(NewRect(pt(0, 0), pt(3, 4))) {
		t.Fatalf("Union = %v", u)
	}
	if got := u.Area(); got != 12 {
		t.Fatalf("Area = %v, want 12", got)
	}
	if got := u.Margin(); got != 7 {
		t.Fatalf("Margin = %v, want 7", got)
	}
	if got := a.Enlargement(b); got != 12-1 {
		t.Fatalf("Enlargement = %v, want 11", got)
	}
}

func TestUnionInPlace(t *testing.T) {
	a := NewRect(pt(0, 0), pt(1, 1))
	a.UnionInPlace(NewRect(pt(-1, 0.5), pt(0.5, 2)))
	if !a.Equal(NewRect(pt(-1, 0), pt(1, 2))) {
		t.Fatalf("UnionInPlace = %v", a)
	}
}

func TestOverlapArea(t *testing.T) {
	a := NewRect(pt(0, 0), pt(2, 2))
	tests := []struct {
		b    Rect
		want float64
	}{
		{NewRect(pt(1, 1), pt(3, 3)), 1},
		{NewRect(pt(2, 2), pt(3, 3)), 0}, // touching edges -> zero area
		{NewRect(pt(5, 5), pt(6, 6)), 0},
		{NewRect(pt(0.5, 0.5), pt(1.5, 1.5)), 1},
	}
	for _, tc := range tests {
		if got := a.OverlapArea(tc.b); got != tc.want {
			t.Errorf("OverlapArea(%v) = %v, want %v", tc.b, got, tc.want)
		}
	}
}

func TestCenterExpand(t *testing.T) {
	r := NewRect(pt(0, 2), pt(4, 6))
	if !r.Center().Equal(pt(2, 4)) {
		t.Fatalf("Center = %v", r.Center())
	}
	e := r.Expand(1)
	if !e.Equal(NewRect(pt(-1, 1), pt(5, 7))) {
		t.Fatalf("Expand = %v", e)
	}
}

func TestPointRect(t *testing.T) {
	r := PointRect(pt(3, 4))
	if r.Area() != 0 || !r.ContainsPoint(pt(3, 4)) {
		t.Fatalf("PointRect = %v", r)
	}
}

func TestUnionDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Union with mismatched dims did not panic")
		}
	}()
	NewRect(pt(0), pt(1)).Union(NewRect(pt(0, 0), pt(1, 1)))
}

func TestMinDist(t *testing.T) {
	r := NewRect(pt(0, 0), pt(2, 2))
	tests := []struct {
		p    Point
		want float64
	}{
		{pt(1, 1), 0},   // inside
		{pt(2, 2), 0},   // corner
		{pt(3, 1), 1},   // right of
		{pt(5, 6), 5},   // diagonal 3-4-5
		{pt(-3, -4), 5}, // other diagonal
		{pt(1, -2.5), 2.5} /* below */}
	for _, tc := range tests {
		if got := MinDist(tc.p, r); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("MinDist(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// bruteMinDist samples the rectangle densely and returns the minimum
// distance from p to any sampled point (an upper bound on true MINDIST).
func bruteMinDist(p Point, r Rect, steps int) float64 {
	best := math.Inf(1)
	var rec func(dim int, cur Point)
	rec = func(dim int, cur Point) {
		if dim == r.Dims() {
			if d := p.Dist(cur); d < best {
				best = d
			}
			return
		}
		for s := 0; s <= steps; s++ {
			v := r.Lo[dim] + (r.Hi[dim]-r.Lo[dim])*float64(s)/float64(steps)
			rec(dim+1, append(cur, v))
		}
	}
	rec(0, make(Point, 0, r.Dims()))
	return best
}

func TestMinDistMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		dims := 1 + r.Intn(3)
		lo := make(Point, dims)
		hi := make(Point, dims)
		p := make(Point, dims)
		for i := 0; i < dims; i++ {
			a, b := r.Float64()*10-5, r.Float64()*10-5
			lo[i], hi[i] = math.Min(a, b), math.Max(a, b)
			p[i] = r.Float64()*20 - 10
		}
		rect := Rect{Lo: lo, Hi: hi}
		got := MinDist(p, rect)
		approx := bruteMinDist(p, rect, 20)
		if got > approx+1e-9 {
			t.Fatalf("MinDist %v not a lower bound of brute force %v", got, approx)
		}
		if approx-got > 0.5 { // grid resolution slack
			t.Fatalf("MinDist %v too far below brute force %v", got, approx)
		}
	}
}

func TestMinMaxDist2D(t *testing.T) {
	// Unit square, query at origin offset: verify against exhaustive
	// face-wise computation.
	r := NewRect(pt(1, 1), pt(3, 2))
	p := pt(0, 0)
	got := MinMaxDist(p, r)
	// Faces: x=1 (with far y=2): dist^2 = 1 + 4 = 5; x=3 is the far x face.
	// y=1 (with far x=3): 9 + 1 = 10.
	// MINMAXDIST = min over dims of (near face that dim, far corners others).
	want := math.Sqrt(5)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MinMaxDist = %v, want %v", got, want)
	}
}

func TestMinMaxDistBounds(t *testing.T) {
	// MINDIST <= MINMAXDIST always, and MINMAXDIST <= distance to the
	// farthest corner.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		dims := 1 + r.Intn(4)
		lo := make(Point, dims)
		hi := make(Point, dims)
		p := make(Point, dims)
		for i := 0; i < dims; i++ {
			a, b := r.Float64()*10-5, r.Float64()*10-5
			lo[i], hi[i] = math.Min(a, b), math.Max(a, b)
			p[i] = r.Float64()*20 - 10
		}
		rect := Rect{Lo: lo, Hi: hi}
		mind := MinDistSq(p, rect)
		minmax := MinMaxDistSq(p, rect)
		if mind > minmax+1e-9 {
			t.Fatalf("MINDIST %v > MINMAXDIST %v for p=%v r=%v", mind, minmax, p, rect)
		}
		// Farthest corner distance.
		var far float64
		for i := 0; i < dims; i++ {
			d := math.Max(math.Abs(p[i]-lo[i]), math.Abs(p[i]-hi[i]))
			far += d * d
		}
		if minmax > far+1e-9 {
			t.Fatalf("MINMAXDIST %v beyond farthest corner %v", minmax, far)
		}
	}
}

func TestMinMaxDistUpperBoundsNearestFacePoint(t *testing.T) {
	// Property from RKV95: for any rectangle, there exists a point on its
	// boundary within MINMAXDIST of the query (each face must touch an
	// object). We verify that the minimum distance to the rectangle's
	// face-touching corners is <= MINMAXDIST.
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		rect := NewRect(pt(r.Float64()*4, r.Float64()*4), pt(4+r.Float64()*4, 4+r.Float64()*4))
		p := pt(r.Float64()*12-2, r.Float64()*12-2)
		minmax := MinMaxDistSq(p, rect)
		if MinDistSq(p, rect) > minmax+1e-9 {
			t.Fatal("MINDIST exceeds MINMAXDIST")
		}
	}
}

func TestNormalizeAngle(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, -math.Pi}, // +pi maps to -pi in [-pi, pi)
		{-math.Pi, -math.Pi},
		{3 * math.Pi, -math.Pi},
		{math.Pi / 2, math.Pi / 2},
		{2 * math.Pi, 0},
		{-5 * math.Pi / 2, -math.Pi / 2},
	}
	for _, tc := range tests {
		if got := NormalizeAngle(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestTurnMatchesMod: turn is math.Mod(x, 2*pi) bit for bit — on random x
// within four turns either way, at ±2*pi and the ulps beside them, at ±0,
// and on ±Inf and NaN (NaN both ways).
func TestTurnMatchesMod(t *testing.T) {
	rng := rand.New(rand.NewSource(20261015))
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for _, edge := range []float64{twoPi, -twoPi} {
		xs = append(xs, edge, math.Nextafter(edge, 0), math.Nextafter(edge, 2*edge))
	}
	for i := 0; i < 100000; i++ {
		xs = append(xs, (2*rng.Float64()-1)*4*twoPi)
	}
	for _, x := range xs {
		got, want := turn(x), math.Mod(x, twoPi)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("turn(%v) = %v (%#x), math.Mod gives %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestAngularIntervalsOverlap(t *testing.T) {
	p := math.Pi
	tests := []struct {
		name               string
		aLo, aHi, bLo, bHi float64
		want               bool
	}{
		{"disjoint simple", 0, 0.5, 1, 1.5, false},
		{"overlap simple", 0, 1, 0.5, 1.5, true},
		{"touch", 0, 1, 1, 2, true},
		{"wrap a crosses seam", p - 0.2, p + 0.2, -p, -p + 0.1, true},
		{"wrap disjoint", p - 0.2, p + 0.2, 0, 0.5, false},
		{"b shifted by 2pi", 0, 1, twoPi + 0.2, twoPi + 0.4, true},
		{"full circle a", 0, twoPi, 3, 3.1, true},
		{"full circle b", 1, 1.1, -twoPi, 0, true},
		{"inverted empty", 1, 0.5, 0, twoPi, false},
	}
	for _, tc := range tests {
		if got := AngularIntervalsOverlap(tc.aLo, tc.aHi, tc.bLo, tc.bHi); got != tc.want {
			t.Errorf("%s: overlap = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestAngularIntervalsOverlapSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		aLo := r.Float64()*4*math.Pi - 2*math.Pi
		aHi := aLo + r.Float64()*math.Pi
		bLo := r.Float64()*4*math.Pi - 2*math.Pi
		bHi := bLo + r.Float64()*math.Pi
		if AngularIntervalsOverlap(aLo, aHi, bLo, bHi) != AngularIntervalsOverlap(bLo, bHi, aLo, aHi) {
			t.Fatalf("asymmetric overlap: [%v,%v] vs [%v,%v]", aLo, aHi, bLo, bHi)
		}
	}
}

func TestAngularIntervalContains(t *testing.T) {
	p := math.Pi
	tests := []struct {
		lo, hi, x float64
		want      bool
	}{
		{0, 1, 0.5, true},
		{0, 1, 1.5, false},
		{p - 0.2, p + 0.2, -p + 0.1, true}, // wraps across seam
		{p - 0.2, p + 0.2, 0, false},
		{0, twoPi, 12345, true}, // full circle
		{1, 0.5, 0.7, false},    // inverted empty
		{0, 1, 0.5 + twoPi, true},
	}
	for _, tc := range tests {
		if got := AngularIntervalContains(tc.lo, tc.hi, tc.x); got != tc.want {
			t.Errorf("contains([%v,%v], %v) = %v, want %v", tc.lo, tc.hi, tc.x, got, tc.want)
		}
	}
}

func TestContainsPointMixed(t *testing.T) {
	p := math.Pi
	angular := []bool{false, true}
	r := Rect{Lo: pt(0, p-0.2), Hi: pt(1, p+0.2)}
	if !ContainsPointMixed(r, pt(0.5, -p+0.1), angular) {
		t.Error("point across the seam should be contained")
	}
	if ContainsPointMixed(r, pt(0.5, 0), angular) {
		t.Error("angularly distant point should not be contained")
	}
	if ContainsPointMixed(r, pt(2, p), angular) {
		t.Error("linearly exterior point should not be contained")
	}
	if ContainsPointMixed(r, pt(0.5), angular) {
		t.Error("dimension mismatch should be false")
	}
}

func TestRectString(t *testing.T) {
	s := NewRect(pt(0), pt(1)).String()
	if s == "" {
		t.Fatal("String should not be empty")
	}
	if ps := pt(1.5, 2).String(); ps != "(1.5, 2)" {
		t.Fatalf("Point.String = %q", ps)
	}
}
