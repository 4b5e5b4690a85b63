package feature

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/transform"
)

// This file is the feature-space geometry the index traversals run on:
// coefficient distances, rectangle lower bounds and search rectangles over
// caller-supplied buffers and views of the tree's columns, so the hot query
// path never allocates.

// CoeffsInto reconstructs the complex coefficients X_1..X_K from a feature
// point into out, which must have length K.
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
// between a leaf point, as the traversals hold it, and precomputed query
// coefficients qc (CoeffsInto of the query). Moment dimensions do not
// contribute: they are index-only metadata, not part of the similarity
// distance.
//
// In S_rect pt is the slab view of the (already transformed) point and act
// is not used. In S_pol pt is the untransformed point's Cartesian image —
// its K (re, im) pairs, which the k-index's leaves keep beside their slabs
// — and act the traversal map's action per coefficient (PolarActionInto),
// nil under the identity: the sum is over |act_i*X_i - Q_i|^2, one complex
// multiplication per coefficient where mapping the polar point and turning
// it back would take a sine and a cosine. Under the identity the image holds
// exactly the products CoeffsInto forms; under a map the two routes agree to
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

// LowerBoundDistSqFlat returns a lower bound on the squared complex-plane
// coefficient distance between query point q and any feature point inside
// the rectangle with corners lo and hi, for nearest-neighbor pruning. In the
// rectangular space this is plain MINDIST restricted to coefficient
// dimensions; in the polar space it is the exact point-to-annular-sector
// distance. Moment dimensions are skipped (they carry no distance
// semantics).
func (sc Schema) LowerBoundDistSqFlat(q, lo, hi []float64) float64 {
	skip := sc.Skip()
	if sc.Space == Polar {
		return transform.PolarCoeffMinDistSq(q, lo, hi, skip)
	}
	var s float64
	for i := skip; i < len(q); i++ {
		switch {
		case q[i] < lo[i]:
			d := lo[i] - q[i]
			s += d * d
		case q[i] > hi[i]:
			d := q[i] - hi[i]
			s += d * d
		}
	}
	return s
}

// SearchRectInto is SearchRect writing into caller-supplied corner buffers
// (each of length Dims()).
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
