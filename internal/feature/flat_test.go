package feature

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/transform"
)

// The flat kernels must be bit-identical to their allocating counterparts:
// every parity check below compares with ==, not a tolerance — except the
// polar leaf-point distance under a transformation, which multiplies a
// complex number where the allocating form takes the sine and cosine of a
// shifted angle, and is held to a few ulps instead (see there).

// cartesian is the image of p's coefficients a polar index leaf keeps.
func cartesian(sc Schema, p geom.Point) []float64 {
	out := make([]float64, 0, 2*sc.K)
	for i := 0; i < sc.K; i++ {
		re, im := geom.PolarToRect(p[sc.Skip()+2*i], p[sc.Skip()+2*i+1])
		out = append(out, re, im)
	}
	return out
}

func randPoint(rng *rand.Rand, sc Schema) geom.Point {
	p := make(geom.Point, sc.Dims())
	for i := range p {
		p[i] = rng.NormFloat64() * 3
	}
	if sc.Space == Polar {
		off := sc.Skip()
		for i := 0; i < sc.K; i++ {
			p[off+2*i] = math.Abs(p[off+2*i])                       // magnitude
			p[off+2*i+1] = geom.NormalizeAngle(rng.Float64() * 100) // angle
		}
	}
	return p
}

func schemasUnderTest() []Schema {
	return []Schema{
		{Space: Polar, K: 2, Moments: true},
		{Space: Rect, K: 2, Moments: true},
		{Space: Polar, K: 3, Moments: false},
		{Space: Rect, K: 1, Moments: false},
		{Space: Rect, K: 5, Moments: true}, // coefficient dims not a multiple of 4: remainder path
		{Space: Polar, K: 4, Moments: true},
	}
}

func TestCoeffsIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, sc := range schemasUnderTest() {
		for trial := 0; trial < 200; trial++ {
			p := randPoint(rng, sc)
			want := sc.Coeffs(p)
			got := make([]complex128, sc.K)
			sc.CoeffsInto(p, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: CoeffsInto[%d] = %v, Coeffs = %v", sc, i, got[i], want[i])
				}
			}
		}
	}
}

func TestCoeffDistSqFlatParity(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, sc := range schemasUnderTest() {
		qc := make([]complex128, sc.K)
		for trial := 0; trial < 200; trial++ {
			q := randPoint(rng, sc)
			p := randPoint(rng, sc)
			sc.CoeffsInto(q, qc)
			want := sc.CoeffDistSq(p, q)
			pt := []float64(p)
			if sc.Space == Polar {
				pt = cartesian(sc, p)
			}
			got := sc.CoeffDistSqFlat(pt, nil, qc)
			if got != want {
				t.Fatalf("%v: CoeffDistSqFlat = %v, CoeffDistSq = %v", sc, got, want)
			}
		}
	}
}

// TestCoeffDistSqFlatMappedParity pins the transformed-point path against
// CoeffDistSq over AffineMap.ApplyPoint of the raw point. In S_rect the
// flat kernel reads the slab-transformed point and the two are the same
// arithmetic: exact. In S_pol the flat kernel multiplies the point's
// Cartesian image by the map's complex action, where ApplyPoint scales the
// magnitude, shifts and renormalizes the angle, and Coeffs takes its sine
// and cosine: the same complex number by two routes, each a few roundings
// long, so the squared distances agree to 1e-12 of the magnitudes involved
// and no closer.
func TestCoeffDistSqFlatMappedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, sc := range []Schema{
		{Space: Polar, K: 2, Moments: true},
		{Space: Polar, K: 3, Moments: false},
		{Space: Rect, K: 2, Moments: true},
	} {
		tr := transform.T{
			A: make([]complex128, sc.K+1),
			B: make([]complex128, sc.K+1),
		}
		for i := range tr.A {
			if sc.Space == Polar {
				// S_pol safety (Theorem 3): zero translation, any stretch.
				tr.A[i] = complex(1+rng.Float64(), rng.NormFloat64()*4)
			} else {
				// S_rect safety (Theorem 2): real stretch, any translation.
				tr.A[i] = complex(1+rng.Float64(), 0)
				tr.B[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		m, err := sc.Map(tr)
		if err != nil {
			t.Fatalf("%v: Map: %v", sc, err)
		}
		qc := make([]complex128, sc.K)
		act := make([]complex128, sc.K)
		for trial := 0; trial < 200; trial++ {
			q := randPoint(rng, sc)
			p := randPoint(rng, sc)
			sc.CoeffsInto(q, qc)
			tp := m.ApplyPoint(p)
			want := sc.CoeffDistSq(tp, q)
			if sc.Space == Rect {
				// Slab transform of a degenerate rectangle: c*x + d per dim
				// (what rtree.transformSlab produces).
				slab := make([]float64, len(p))
				for i := range p {
					slab[i] = m.C[i]*p[i] + m.D[i]
				}
				if got := sc.CoeffDistSqFlat(slab, nil, qc); got != want {
					t.Fatalf("%v: mapped CoeffDistSqFlat = %v, CoeffDistSq(ApplyPoint) = %v", sc, got, want)
				}
				continue
			}
			sc.PolarActionInto(m.C, m.D, act)
			got := sc.CoeffDistSqFlat(cartesian(sc, p), act, qc)
			var scale float64
			for _, c := range append(sc.Coeffs(tp), qc...) {
				scale += real(c)*real(c) + imag(c)*imag(c)
			}
			if math.Abs(got-want) > 1e-12*scale {
				t.Fatalf("%v: mapped CoeffDistSqFlat = %v, CoeffDistSq(ApplyPoint) = %v (scale %v)", sc, got, want, scale)
			}
		}
	}
}

func TestLowerBoundDistSqFlatParity(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, sc := range schemasUnderTest() {
		for trial := 0; trial < 300; trial++ {
			q := randPoint(rng, sc)
			a := randPoint(rng, sc)
			b := randPoint(rng, sc)
			lo := make(geom.Point, sc.Dims())
			hi := make(geom.Point, sc.Dims())
			for i := range lo {
				lo[i], hi[i] = math.Min(a[i], b[i]), math.Max(a[i], b[i])
			}
			r := geom.Rect{Lo: lo, Hi: hi}
			want := sc.LowerBoundDistSq(q, r)
			got := sc.LowerBoundDistSqFlat(q, lo, hi)
			if got != want {
				t.Fatalf("%v: LowerBoundDistSqFlat = %v, LowerBoundDistSq = %v", sc, got, want)
			}
		}
	}
}

func TestSearchRectIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, sc := range schemasUnderTest() {
		lo := make([]float64, sc.Dims())
		hi := make([]float64, sc.Dims())
		for trial := 0; trial < 200; trial++ {
			q := randPoint(rng, sc)
			eps := rng.Float64() * 3
			var mb MomentBounds
			if trial%3 == 0 {
				mb = MomentBounds{MeanLo: -1, MeanHi: 1, StdLo: 0, StdHi: 2}
			}
			want := sc.SearchRect(q, eps, mb)
			sc.SearchRectInto(q, eps, mb, lo, hi)
			for i := range lo {
				if lo[i] != want.Lo[i] || hi[i] != want.Hi[i] {
					t.Fatalf("%v: SearchRectInto dim %d = [%v, %v], SearchRect = [%v, %v]",
						sc, i, lo[i], hi[i], want.Lo[i], want.Hi[i])
				}
			}
		}
	}
}
