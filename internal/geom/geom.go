// Package geom provides the n-dimensional point and rectangle machinery
// underlying the R*-tree and the feature spaces of the reproduction of
// Rafiei & Mendelzon (SIGMOD 1997): minimum bounding rectangles and angular
// (wrap-around) interval overlap for the polar feature space S_pol of the
// paper's Section 3.1.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a point in an n-dimensional real space.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// Equal reports whether p and q are identical (same dimensionality, same
// coordinates).
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: point dimension mismatch %d vs %d", len(p), len(q)))
	}
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: point dimension mismatch %d vs %d", len(p), len(q)))
	}
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

func (p Point) String() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%g", v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Rect is an axis-aligned hyper-rectangle defined by its low and high
// corners. A valid Rect has len(Lo) == len(Hi) and Lo[i] <= Hi[i] for all i;
// Canonical restores the corner ordering after transformations with negative
// stretch factors (the paper explicitly allows negative scales, e.g. T_rev).
type Rect struct {
	Lo, Hi Point
}

// NewRect builds a rectangle from two corners, normalizing the per-dimension
// ordering so the result is valid even if the corners are swapped in some
// dimensions.
func NewRect(lo, hi Point) Rect {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: rect corner dimension mismatch %d vs %d", len(lo), len(hi)))
	}
	r := Rect{Lo: lo.Clone(), Hi: hi.Clone()}
	r.canonicalizeInPlace()
	return r
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Point) Rect {
	return Rect{Lo: p.Clone(), Hi: p.Clone()}
}

// Dims returns the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// Canonical returns a copy of r with Lo[i] <= Hi[i] restored in every
// dimension. Transforming a rectangle by a negative stretch flips the
// corresponding interval; the transformed object still bounds the same set
// of transformed points once canonicalized (paper Theorem 1 allows negative
// real stretches).
func (r Rect) Canonical() Rect {
	out := r.Clone()
	out.canonicalizeInPlace()
	return out
}

func (r *Rect) canonicalizeInPlace() {
	for i := range r.Lo {
		if r.Lo[i] > r.Hi[i] {
			r.Lo[i], r.Hi[i] = r.Hi[i], r.Lo[i]
		}
	}
}

// Equal reports exact equality of two rectangles.
func (r Rect) Equal(o Rect) bool {
	return r.Lo.Equal(o.Lo) && r.Hi.Equal(o.Hi)
}

// Contains reports whether r fully contains o.
func (r Rect) Contains(o Rect) bool {
	if r.Dims() != o.Dims() {
		return false
	}
	for i := range r.Lo {
		if o.Lo[i] < r.Lo[i] || o.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and o overlap (boundary touch counts).
func (r Rect) Intersects(o Rect) bool {
	if r.Dims() != o.Dims() {
		return false
	}
	for i := range r.Lo {
		if r.Hi[i] < o.Lo[i] || o.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// Union returns the minimum bounding rectangle of r and o.
func (r Rect) Union(o Rect) Rect {
	if r.Dims() != o.Dims() {
		panic(fmt.Sprintf("geom: union dimension mismatch %d vs %d", r.Dims(), o.Dims()))
	}
	out := r.Clone()
	for i := range out.Lo {
		if o.Lo[i] < out.Lo[i] {
			out.Lo[i] = o.Lo[i]
		}
		if o.Hi[i] > out.Hi[i] {
			out.Hi[i] = o.Hi[i]
		}
	}
	return out
}

// UnionInPlace grows r to cover o without allocating.
func (r *Rect) UnionInPlace(o Rect) {
	for i := range r.Lo {
		if o.Lo[i] < r.Lo[i] {
			r.Lo[i] = o.Lo[i]
		}
		if o.Hi[i] > r.Hi[i] {
			r.Hi[i] = o.Hi[i]
		}
	}
}

// Area returns the hyper-volume of r. Degenerate rectangles have zero area.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Margin returns the sum of the edge lengths of r (the "margin" minimized by
// the R*-tree split axis selection of Beckmann et al.).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// OverlapArea returns the hyper-volume of the intersection of r and o, or 0
// if they do not overlap.
func (r Rect) OverlapArea(o Rect) float64 {
	a := 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], o.Lo[i])
		hi := math.Min(r.Hi[i], o.Hi[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	c := make(Point, r.Dims())
	for i := range c {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

func (r Rect) String() string {
	return fmt.Sprintf("[%v .. %v]", r.Lo, r.Hi)
}
