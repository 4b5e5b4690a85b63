package core

import (
	"math/cmplx"
	"slices"

	"repro/internal/transform"
)

// The frequency relation stores half of every spectrum. Stored series and
// queries are real, so a spectrum is conjugate-symmetric — X_{n-f} =
// conj(X_f) — and its first ⌊n/2⌋+1 coefficients, in natural frequency
// order, are the whole of it. For the paper's series that order is also
// energy order, so a distance loop walking the stored half front to back
// abandons as early as any permutation of the full spectrum would.
//
// A transformation need not keep the symmetry (a one-sided spin, a
// hand-built (a, b)): T(X)_{n-f} = a_{n-f}·conj(X_f) + b_{n-f} is not in
// general the conjugate of T(X)_f. So a verification kernel carries, for
// every stored coefficient f, the plan's coefficients at f and at its twin
// n-f, and each stored coefficient yields both terms of the full squared
// distance from one load. Where f has no twin — f = 0, and f = n/2 for even
// n — the twin coefficients are zero and so is the twin term: one loop, no
// branch, every transformation served alike.

// halfLen is how many coefficients of a length-n spectrum the frequency
// relation stores: ⌊n/2⌋+1.
func halfLen(n int) int { return n/2 + 1 }

// twin is one stored coefficient's share of a frequency-domain distance
// |A·X + B - Q|² over the full spectrum: with x the stored coefficient at f,
//
//	|a·x + c|² + |ta·conj(x) + tc|²,   c = B_f - Q_f,  ta = A_{n-f},  tc = B_{n-f} - Q_{n-f}
//
// and ta = tc = 0 where f has no twin. Folding B - Q into one constant per
// term keeps the loop to two complex multiply-adds per stored coefficient.
type twin struct{ a, c, ta, tc complex128 }

// term is the stored coefficient x's contribution: its own term plus its
// twin's.
func (w *twin) term(x complex128) float64 {
	d := w.a*x + w.c
	e := w.ta*complex(real(x), -imag(x)) + w.tc
	return real(d)*real(d) + imag(d)*imag(d) + (real(e)*real(e) + imag(e)*imag(e))
}

// kernel states one verification over the stored half: stored spectra mapped
// through t, against the real spectrum whose stored half is y mapped through
// u — the identity for a one-sided query, the query's own transformation for
// a two-sided one, the other side of a join for a join. The twin of y_f is
// conj(y_f), which is what makes the query side a half as well. dst's
// capacity is reused.
func kernel(dst []twin, t, u transform.T, y []complex128) []twin {
	n := len(t.A)
	ta, tb, ua, ub := t.A[:n], t.B[:n], u.A[:n], u.B[:n]
	dst = slices.Grow(dst[:0], len(y))[:len(y)]
	for f, x := range y {
		w := &dst[f]
		w.a, w.c = ta[f], tb[f]-(ua[f]*x+ub[f])
		if g := n - f; 0 < f && f < g {
			w.ta, w.tc = ta[g], tb[g]-(ua[g]*cmplx.Conj(x)+ub[g])
		} else {
			w.ta, w.tc = 0, 0
		}
	}
	return dst
}
