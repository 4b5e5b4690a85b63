package feature

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/transform"
)

// This file is the batch/zero-allocation form of the feature-space
// geometry: the same arithmetic as Coeffs/CoeffDistSq/LowerBoundDistSq/
// SearchRect, restated over caller-supplied buffers and flat slab views so
// the hot query path never allocates. Every function here is bit-identical
// to its allocating counterpart (the flat parity tests pin this).

// CoeffsInto reconstructs the complex coefficients X_1..X_K from a feature
// point into out, which must have length K. It is Coeffs without the
// allocation.
func (sc Schema) CoeffsInto(p []float64, out []complex128) {
	if len(p) != sc.Dims() {
		panic(fmt.Sprintf("feature: point has %d dims, schema has %d", len(p), sc.Dims()))
	}
	if len(out) != sc.K {
		panic(fmt.Sprintf("feature: coefficient buffer has %d slots, schema has K=%d", len(out), sc.K))
	}
	off := sc.Skip()
	for i := 0; i < sc.K; i++ {
		a, b := p[off+2*i], p[off+2*i+1]
		if sc.Space == Rect {
			out[i] = complex(a, b)
		} else {
			// cmplx.Rect(a, b) inlined: same Sincos, same products.
			out[i] = complex(geom.PolarToRect(a, b))
		}
	}
}

// PolarActionInto writes the action of a polar-space affine map (C, D) on
// each complex coefficient into out (length K): by Theorem 3 the map
// scales coefficient i's magnitude by C and shifts its angle by D, which
// is multiplication by the complex number with that magnitude and angle.
func (sc Schema) PolarActionInto(C, D []float64, out []complex128) {
	off := sc.Skip()
	for i := range out {
		out[i] = complex(geom.PolarToRect(C[off+2*i], D[off+2*i+1]))
	}
}

// CoeffDistSqFlat returns the squared complex-plane coefficient distance
// between a leaf point, as the flat traversals hold it, and precomputed
// query coefficients qc (CoeffsInto of the query).
//
// In S_rect pt is the slab view of the (already transformed) point and act
// is not used. In S_pol pt is the untransformed point's Cartesian image —
// its K (re, im) pairs, which the k-index's leaves keep beside their slabs
// — and act the traversal map's action per coefficient (PolarActionInto),
// nil under the identity: the sum is over |act_i*X_i - Q_i|^2, one complex
// multiplication per coefficient where mapping the polar point and turning
// it back would take a sine and a cosine. Under the identity the result is
// bit-identical to CoeffDistSq over the corresponding points (the image
// holds exactly the products Coeffs forms); under a map it agrees to
// rounding, a few ulps.
func (sc Schema) CoeffDistSqFlat(pt []float64, act, qc []complex128) float64 {
	var s float64
	if sc.Space == Rect || act == nil {
		off := 0 // the image holds coefficients only
		if sc.Space == Rect {
			off = sc.Skip()
		}
		for i := range qc {
			dr := pt[off+2*i] - real(qc[i])
			di := pt[off+2*i+1] - imag(qc[i])
			s += dr*dr + di*di
		}
		return s
	}
	for i := range qc {
		xr, xi := pt[2*i], pt[2*i+1]
		ar, ai := real(act[i]), imag(act[i])
		dr := ar*xr - ai*xi - real(qc[i])
		di := ar*xi + ai*xr - imag(qc[i])
		s += dr*dr + di*di
	}
	return s
}

// LowerBoundDistSqFlat is LowerBoundDistSq over slab corner views: a lower
// bound on the squared coefficient distance from query point q to any
// feature point inside the rectangle [lo, hi]. Moment dimensions are
// skipped rather than masked — arithmetically identical, since masked
// dimensions contribute exactly zero in LowerBoundDistSq (the query is
// zeroed inside an all-covering interval).
func (sc Schema) LowerBoundDistSqFlat(q, lo, hi []float64) float64 {
	skip := sc.Skip()
	if sc.Space == Polar {
		return transform.PolarCoeffMinDistSq(q, lo, hi, skip)
	}
	var s float64
	i := skip
	// 4-wide unrolled MINDIST with one accumulator in index order —
	// bit-identical to the per-dimension loop.
	for ; i+3 < len(q); i += 4 {
		s += mindistTerm(q[i], lo[i], hi[i])
		s += mindistTerm(q[i+1], lo[i+1], hi[i+1])
		s += mindistTerm(q[i+2], lo[i+2], hi[i+2])
		s += mindistTerm(q[i+3], lo[i+3], hi[i+3])
	}
	for ; i < len(q); i++ {
		s += mindistTerm(q[i], lo[i], hi[i])
	}
	return s
}

func mindistTerm(q, lo, hi float64) float64 {
	switch {
	case q < lo:
		d := lo - q
		return d * d
	case q > hi:
		d := q - hi
		return d * d
	}
	return 0
}

// SearchRectInto is SearchRect writing into caller-supplied corner buffers
// (each of length Dims()) instead of allocating a rectangle.
func (sc Schema) SearchRectInto(q geom.Point, eps float64, mb MomentBounds, lo, hi []float64) {
	if len(q) != sc.Dims() {
		panic(fmt.Sprintf("feature: query point has %d dims, schema has %d", len(q), sc.Dims()))
	}
	if len(lo) != sc.Dims() || len(hi) != sc.Dims() {
		panic(fmt.Sprintf("feature: corner buffers have %d/%d dims, schema has %d", len(lo), len(hi), sc.Dims()))
	}
	if eps < 0 {
		eps = 0
	}
	if sc.Moments {
		if mb == (MomentBounds{}) {
			mb = Unbounded()
		}
		lo[0], hi[0] = mb.MeanLo, mb.MeanHi
		lo[1], hi[1] = mb.StdLo, mb.StdHi
	}
	off := sc.Skip()
	for i := 0; i < sc.K; i++ {
		mi, ai := off+2*i, off+2*i+1
		if sc.Space == Rect {
			lo[mi], hi[mi] = q[mi]-eps, q[mi]+eps
			lo[ai], hi[ai] = q[ai]-eps, q[ai]+eps
			continue
		}
		m := q[mi]
		mLo := m - eps
		if mLo < 0 {
			mLo = 0
		}
		lo[mi], hi[mi] = mLo, m+eps
		if eps >= m {
			lo[ai], hi[ai] = q[ai]-math.Pi, q[ai]+math.Pi
		} else {
			half := math.Asin(eps / m)
			lo[ai], hi[ai] = q[ai]-half, q[ai]+half
		}
	}
}
