package core

import (
	"math"
	"math/cmplx"

	"repro/internal/transform"
)

// mirror is a plan's mirror weight w: how many times each of the K indexed
// terms |a_f*X_f + b_f - Q_f|^2 provably occurs in the full squared
// distance. Stored series and queries are real, so their spectra satisfy
// X_{n-f} = conj(X_f); under a transformation that keeps that symmetry on
// the indexed pairs (transform.T.MirrorSymmetric) every indexed term has an
// equal twin at n-f which the index never charges, and
// D^2 >= 2 * sum_{f<=K}: a Lemma 1 filter may search eps/sqrt(2) around the
// query instead of eps. Otherwise w is 1 and the filter is the paper's.
//
// At w = 1 a stored record within eps clears the filter with the whole
// mirror half of its distance to spare. At w = 2 a record whose difference
// from the query sits entirely on the indexed coefficients meets the bound
// with equality, so rounding must not decide it: shrink carries a relative
// slack for the verifier's sum, and pad an absolute one for the
// coefficients themselves — a feature point, a spectrum and a nearly
// symmetric transformation are each exact only to a few ulps of the
// coefficient's magnitude, however small the difference being measured.
type mirror struct {
	w      float64
	shrink float64 // (1 + mirrorSlack) / sqrt(w)
	pad    float64
	why    string // the case, for EXPLAIN
}

var (
	mirrorShort    = mirror{w: 1, why: "eps (2K ≥ n)"}
	mirrorLopsided = mirror{w: 1, why: "eps (asymmetric transform)"}
)

// mirrorSlack scales both slacks of a mirror-weighted filter: relative to
// eps, and relative to the largest magnitude an indexed coefficient of a
// transformed normal form can have.
const mirrorSlack = 1e-12

// mirrorWeight resolves the mirror weight of a plan over length-n series
// indexed by K coefficients whose stored side (and, for a join, probe side)
// is mapped through ts.
func mirrorWeight(k, n int, ts ...transform.T) mirror {
	if 2*k >= n {
		return mirrorShort
	}
	var amax, bmax float64
	for _, t := range ts {
		if !t.MirrorSymmetric(k) {
			return mirrorLopsided
		}
		for f := 1; f <= k; f++ {
			amax = math.Max(amax, cmplx.Abs(t.A[f]))
			bmax = math.Max(bmax, cmplx.Abs(t.B[f]))
		}
	}
	// A normal form's spectrum has energy n, which the twins f and n-f
	// share: |X_f| <= sqrt(n/2).
	return mirror{
		w:      2,
		shrink: (1 + mirrorSlack) / math.Sqrt2,
		pad:    mirrorSlack * (math.Sqrt(float64(n)/2)*(1+amax) + bmax),
		why:    "eps/√2 (conjugate symmetry)",
	}
}

// filterRadius is the radius a Lemma 1 filter searches for answers within
// eps — the search rectangle's half-width, and the square root of the
// partial distance an NN traversal stops at: eps itself at w = 1, bit for
// bit, so plans without the symmetry run exactly the paper's filter, and
// eps/sqrt(2) plus the slacks at w = 2.
func (mw mirror) filterRadius(eps float64) float64 {
	if mw.w == 1 {
		return eps
	}
	return eps*mw.shrink + mw.pad
}
