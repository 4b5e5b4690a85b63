package feature

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/transform"
)

// The geometry the traversals run on, held to complex arithmetic written out
// here: points are built from known coefficient vectors, and what the
// kernels return is compared with what those vectors say — exactly in
// S_rect, where a point holds its coefficients' parts verbatim, and to
// 1e-12 of the magnitudes in S_pol, where a coefficient goes through
// (magnitude, angle) and back.

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
		{Space: Rect, K: 5, Moments: true},
		{Space: Polar, K: 4, Moments: true},
	}
}

// randCoeffs draws K complex coefficients.
func randCoeffs(rng *rand.Rand, k int) []complex128 {
	out := make([]complex128, k)
	for i := range out {
		out[i] = complex(rng.NormFloat64()*3, rng.NormFloat64()*3)
	}
	return out
}

// leafForm is a point as a leaf hands it to CoeffDistSqFlat: the point
// itself in S_rect, its Cartesian image in S_pol.
func leafForm(sc Schema, p geom.Point) []float64 {
	if sc.Space == Polar {
		return cartesian(sc, p)
	}
	return p
}

// magnitudes is the sum of |c|^2 over the given vectors: the scale rounding
// errors are measured against.
func magnitudes(vs ...[]complex128) float64 {
	var s float64
	for _, v := range vs {
		for _, c := range v {
			s += real(c)*real(c) + imag(c)*imag(c)
		}
	}
	return s
}

func TestCoeffsIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, sc := range schemasUnderTest() {
		for trial := 0; trial < 200; trial++ {
			want := randCoeffs(rng, sc.K)
			p := sc.Point(rng.NormFloat64(), rng.Float64(), want)
			got := make([]complex128, sc.K)
			sc.CoeffsInto(p, got)
			for i := range want {
				if sc.Space == Rect && got[i] != want[i] || cmplx.Abs(got[i]-want[i]) > 1e-12*(1+cmplx.Abs(want[i])) {
					t.Fatalf("%v: CoeffsInto[%d] = %v, the point was built from %v", sc, i, got[i], want[i])
				}
				if c := sc.Coeffs(p)[i]; c != got[i] {
					t.Fatalf("%v: Coeffs[%d] = %v, CoeffsInto %v", sc, i, c, got[i])
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
			X, Q := randCoeffs(rng, sc.K), randCoeffs(rng, sc.K)
			var want float64
			for i := range X {
				d := X[i] - Q[i]
				want += real(d)*real(d) + imag(d)*imag(d)
			}
			// The moments differ wildly and must not count.
			p := sc.Point(rng.NormFloat64()*100, rng.Float64()*100, X)
			q := sc.Point(rng.NormFloat64()*100, rng.Float64()*100, Q)
			sc.CoeffsInto(q, qc)
			got := sc.CoeffDistSqFlat(leafForm(sc, p), nil, qc)
			if sc.Space == Rect && got != want || math.Abs(got-want) > 1e-12*magnitudes(X, Q) {
				t.Fatalf("%v: CoeffDistSqFlat = %v, sum |X - Q|^2 = %v", sc, got, want)
			}
		}
	}
}

// TestCoeffDistSqFlatMappedParity holds the transformed-point path to the
// transformation itself: sum |a_i*X_i + b_i - Q_i|^2 in complex arithmetic,
// against the schema's map (Theorem 2 or 3) applied the way the traversal
// applies it — c*x + d per dimension of the point in S_rect, which is the
// same arithmetic and so exact; one complex multiplication of the point's
// Cartesian image by the map's action in S_pol, which reaches the same
// number through a magnitude, an angle, a sine and a cosine, a few
// roundings long: 1e-12 of the magnitudes involved and no closer.
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
				// S_rect safety (Theorem 2): real stretch of either sign,
				// any translation.
				tr.A[i] = complex((1+rng.Float64())*float64(1-2*(i%2)), 0)
				tr.B[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		m, err := sc.Map(tr)
		if err != nil {
			t.Fatalf("%v: Map: %v", sc, err)
		}
		qc := make([]complex128, sc.K)
		var act []complex128
		if sc.Space == Polar {
			act = make([]complex128, sc.K)
			sc.PolarActionInto(m.C, m.D, act)
		}
		for trial := 0; trial < 200; trial++ {
			X, Q := randCoeffs(rng, sc.K), randCoeffs(rng, sc.K)
			TX := make([]complex128, sc.K)
			var want float64
			for i := range X {
				TX[i] = tr.A[i+1]*X[i] + tr.B[i+1] // the point drops X_0
				d := TX[i] - Q[i]
				want += real(d)*real(d) + imag(d)*imag(d)
			}
			p := sc.Point(rng.NormFloat64(), rng.Float64(), X)
			sc.CoeffsInto(sc.Point(0, 0, Q), qc)
			pt := leafForm(sc, p)
			if sc.Space == Rect {
				// What rtree.transformSlab hands the visitor.
				pt = make([]float64, len(p))
				for i := range p {
					pt[i] = m.C[i]*p[i] + m.D[i]
				}
			}
			got := sc.CoeffDistSqFlat(pt, act, qc)
			if math.Abs(got-want) > 1e-12*magnitudes(TX, Q) {
				t.Fatalf("%v: mapped CoeffDistSqFlat = %v, sum |a*X + b - Q|^2 = %v", sc, got, want)
			}
		}
	}
}

// TestLowerBoundDistSqFlatParity: in S_rect the bound is MINDIST over the
// coefficient dimensions, written out here and owed to the bit; in S_pol it
// is the distance to the nearest point of the annular sectors, found here by
// sampling them densely in the complex plane.
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
			got := sc.LowerBoundDistSqFlat(q, lo, hi)
			if sc.Space == Rect {
				var want float64
				for i := sc.Skip(); i < sc.Dims(); i++ {
					if d := math.Max(lo[i]-q[i], q[i]-hi[i]); d > 0 {
						want += d * d
					}
				}
				if got != want {
					t.Fatalf("%v: LowerBoundDistSqFlat = %v, MINDIST^2 = %v", sc, got, want)
				}
				continue
			}
			if trial%10 != 0 {
				continue // sampling is the slow part
			}
			var want float64
			const steps = 60
			for i := sc.Skip(); i < sc.Dims(); i += 2 {
				qx := cmplx.Rect(q[i], q[i+1])
				best := math.Inf(1)
				for u := 0; u <= steps; u++ {
					for v := 0; v <= steps; v++ {
						m := lo[i] + (hi[i]-lo[i])*float64(u)/steps
						ang := lo[i+1] + (hi[i+1]-lo[i+1])*float64(v)/steps
						best = math.Min(best, cmplx.Abs(qx-cmplx.Rect(m, ang)))
					}
				}
				want += best * best
			}
			// The sampled minimum overshoots the true one by at most a grid
			// cell's reach (here well under 0.6).
			if got > want+1e-9 || got < want-0.6*(1+math.Sqrt(want)) {
				t.Fatalf("%v: LowerBoundDistSqFlat = %v, sampled sector distance^2 = %v", sc, got, want)
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
