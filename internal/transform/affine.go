package transform

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/geom"
)

// AffineMap is the induced action of a safe transformation on a real
// feature space: an independent affine map y_i = C_i*x_i + D_i per
// dimension. These are exactly the maps T' = (c, d) constructed in the
// proofs of Theorems 2 (rectangular space) and 3 (polar space); because
// each dimension transforms independently by a real affine function,
// rectangles map to rectangles with interiors and exteriors preserved —
// the safety property Algorithm 2's index traversal relies on.
//
// Angular flags the dimensions that hold phase angles (polar space), where
// the map is a rotation and overlap tests must wrap modulo 2*pi.
type AffineMap struct {
	C, D    []float64
	Angular []bool
	// Force marks the map as non-identity even when C is all ones and D
	// all zeros, so traversals take the full transformation path. The
	// paper's Figure 8/9 experiment measures exactly this: an identity
	// transformation processed as a transformation, against the plain
	// query fast path.
	Force bool
}

// Dims returns the dimensionality of the map.
func (m AffineMap) Dims() int { return len(m.C) }

// ApplyPoint maps a feature point. Angular dimensions are re-normalized to
// [-pi, pi).
func (m AffineMap) ApplyPoint(p geom.Point) geom.Point {
	if len(p) != len(m.C) {
		panic(fmt.Sprintf("transform: affine point dimension mismatch %d vs %d", len(p), len(m.C)))
	}
	out := make(geom.Point, len(p))
	for i := range p {
		out[i] = m.C[i]*p[i] + m.D[i]
		if i < len(m.Angular) && m.Angular[i] {
			out[i] = geom.NormalizeAngle(out[i])
		}
	}
	return out
}

// ApplyRect maps a rectangle, canonicalizing dimensions flipped by negative
// stretch factors. Angular dimensions are shifted without renormalization —
// the interval [lo+d, hi+d] stays a contiguous arc; overlap tests against it
// must use the modulo-2*pi predicates in package geom.
func (m AffineMap) ApplyRect(r geom.Rect) geom.Rect {
	if r.Dims() != len(m.C) {
		panic(fmt.Sprintf("transform: affine rect dimension mismatch %d vs %d", r.Dims(), len(m.C)))
	}
	// Single backing allocation for both corners: ApplyRect runs once per
	// node entry during transformed traversal, the hottest loop of
	// Algorithm 2.
	buf := make(geom.Point, 2*len(m.C))
	out := geom.Rect{Lo: buf[:len(m.C):len(m.C)], Hi: buf[len(m.C):]}
	for i := range m.C {
		lo := m.C[i]*r.Lo[i] + m.D[i]
		hi := m.C[i]*r.Hi[i] + m.D[i]
		if lo > hi {
			lo, hi = hi, lo
		}
		out.Lo[i], out.Hi[i] = lo, hi
	}
	return out
}

// Identity reports whether the map is the identity (C all ones, D all
// zeros) and not marked Force. The engine uses this to skip per-node work
// for plain queries.
func (m AffineMap) Identity() bool {
	if m.Force {
		return false
	}
	for i := range m.C {
		if m.C[i] != 1 || m.D[i] != 0 {
			return false
		}
	}
	return true
}

// IdentityMap returns the identity AffineMap over dims dimensions with the
// given angular flags (which may be nil).
func IdentityMap(dims int, angular []bool) AffineMap {
	c := make([]float64, dims)
	d := make([]float64, dims)
	for i := range c {
		c[i] = 1
	}
	return AffineMap{C: c, D: d, Angular: angular}
}

// RectMap returns the affine action of t on a rectangular feature space
// whose first skip dimensions pass through unchanged (the paper's layout
// reserves two leading dimensions for mean and standard deviation) and
// whose remaining dimensions hold (Re, Im) pairs of the first coeffs
// complex coefficients. Following Theorem 2:
//
//	c_{2i-1} = c_{2i} = a_i,  d_{2i-1} = Re(b_i),  d_{2i} = Im(b_i)
//
// RectMap returns an error if t is not safe in S_rect (complex stretch) or
// shorter than coeffs.
func RectMap(t T, skip, coeffs int) (AffineMap, error) {
	if !t.SafeRect() {
		return AffineMap{}, fmt.Errorf("transform: %s has a complex stretch vector and is not safe in S_rect (Theorem 2)", t)
	}
	if coeffs > t.Dims() {
		return AffineMap{}, fmt.Errorf("transform: %s covers %d coefficients, need %d", t, t.Dims(), coeffs)
	}
	dims := skip + 2*coeffs
	m := IdentityMap(dims, nil)
	for i := 0; i < coeffs; i++ {
		a := real(t.A[i])
		m.C[skip+2*i] = a
		m.C[skip+2*i+1] = a
		m.D[skip+2*i] = real(t.B[i])
		m.D[skip+2*i+1] = imag(t.B[i])
	}
	return m, nil
}

// PolarMap returns the affine action of t on a polar feature space whose
// first skip dimensions pass through unchanged and whose remaining
// dimensions hold (magnitude, angle) pairs. Following Theorem 3:
//
//	c_{2i-1} = Abs(a_i), d_{2i-1} = 0, c_{2i} = 1, d_{2i} = Angle(a_i)
//
// The angle dimensions are flagged Angular. PolarMap returns an error if t
// is not safe in S_pol (non-zero translation) or shorter than coeffs.
func PolarMap(t T, skip, coeffs int) (AffineMap, error) {
	if !t.SafePolar() {
		return AffineMap{}, fmt.Errorf("transform: %s has a non-zero translation and is not safe in S_pol (Theorem 3)", t)
	}
	if coeffs > t.Dims() {
		return AffineMap{}, fmt.Errorf("transform: %s covers %d coefficients, need %d", t, t.Dims(), coeffs)
	}
	dims := skip + 2*coeffs
	m := IdentityMap(dims, make([]bool, dims))
	for i := 0; i < coeffs; i++ {
		m.C[skip+2*i] = cmplx.Abs(t.A[i])
		m.D[skip+2*i+1] = cmplx.Phase(t.A[i])
		m.Angular[skip+2*i+1] = true
	}
	return m, nil
}

// PolarCoeffMinDistSq returns a lower bound on the squared Euclidean
// distance — in the complex plane, per coefficient — between the feature
// point q and any feature point inside the polar-space rectangle with
// corners lo and hi. The leading skip dimensions (the moments) contribute
// nothing; each subsequent (magnitude, angle) pair is treated as an annular
// sector, and the exact point-to-sector distance is accumulated. This is
// the MINDIST analogue that lets nearest-neighbor search run on the polar
// index with true Euclidean semantics.
func PolarCoeffMinDistSq(q, lo, hi []float64, skip int) float64 {
	var total float64
	for i := skip; i+1 < len(q); i += 2 {
		total += sectorDistSq(q[i], q[i+1], lo[i], hi[i], lo[i+1], hi[i+1])
	}
	return total
}

// sectorDistSq returns the squared distance in the complex plane from the
// point with polar coordinates (qr, qa) to the annular sector with radius
// range [rLo, rHi] and angle arc [aLo, aHi] (an arc of width >= 2*pi is the
// full annulus). Radii are clamped to be non-negative.
func sectorDistSq(qr, qa, rLo, rHi, aLo, aHi float64) float64 {
	if rLo < 0 {
		rLo = 0
	}
	if rHi < rLo {
		rHi = rLo
	}
	if geom.AngularIntervalContains(aLo, aHi, qa) {
		// Query angle inside the arc: distance is purely radial.
		switch {
		case qr < rLo:
			d := rLo - qr
			return d * d
		case qr > rHi:
			d := qr - rHi
			return d * d
		default:
			return 0
		}
	}
	// Nearest point lies on one of the two bounding radii segments; compute
	// the distance to each via the law of cosines, minimizing over the
	// radius range (the optimum is qr*cos(delta) clamped to [rLo, rHi]). The
	// one cosine per edge serves both.
	best := math.Inf(1)
	for _, edge := range [2]float64{aLo, aHi} {
		cos := math.Cos(math.Abs(geom.NormalizeAngle(qa - edge)))
		m := qr * cos
		if m < rLo {
			m = rLo
		} else if m > rHi {
			m = rHi
		}
		d := qr*qr + m*m - 2*qr*m*cos
		if d < best {
			best = d
		}
	}
	if best < 0 {
		best = 0 // guard tiny negative rounding
	}
	return best
}
