// Package transform implements the paper's central contribution: the class
// of linear transformations T = (a, b) over the Fourier-series
// representation of a time series (Rafiei & Mendelzon, SIGMOD 1997,
// Section 3). A transformation maps a complex feature vector x to
// a*x + b (element-wise multiply and add), and may carry a cost for the
// JMM95-style cost-bounded dissimilarity of Equation 10.
//
// The package provides
//
//   - the T type with application, composition, and cost accounting;
//   - constructors for the transformations the paper formulates: identity,
//     shift, scale, m-day (weighted) moving average (Section 3.2,
//     Equation 11), series reversal T_rev (Example 2.2), and time warping
//     (Appendix A, Equation 19);
//   - the safety predicates of Theorems 1-3 — safety in the rectangular
//     space S_rect requires a real stretch vector, safety in the polar
//     space S_pol requires a zero translation;
//   - AffineMap, the induced per-dimension real affine action of a safe
//     transformation on feature-space points and rectangles (the maps
//     T' = (c, d) built inside the proofs of Theorems 2 and 3), which is
//     what the transformed R-tree traversal of Algorithm 2 executes.
package transform

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/dft"
	"repro/internal/series"
)

// T is a transformation (a, b) in a k-dimensional complex feature space:
// T(x) = A*x + B, element-wise. Cost participates in the cost-bounded
// dissimilarity measure of the paper's Equation 10.
type T struct {
	A    []complex128
	B    []complex128
	Cost float64
	// Name is a human-readable label ("mavg(20)", "reverse", ...) used by
	// the query language and experiment reports.
	Name string
}

// New validates and builds a transformation. A and B must be non-empty and
// the same length.
func New(a, b []complex128, cost float64, name string) (T, error) {
	if len(a) == 0 || len(a) != len(b) {
		return T{}, fmt.Errorf("transform: A and B must be equal non-zero length, got %d and %d", len(a), len(b))
	}
	if cost < 0 {
		return T{}, fmt.Errorf("transform: negative cost %g", cost)
	}
	return T{A: a, B: b, Cost: cost, Name: name}, nil
}

// Dims returns the feature-space dimensionality (number of complex
// coefficients) the transformation acts on.
func (t T) Dims() int { return len(t.A) }

// Apply maps a complex vector through the transformation: A*x + B. The
// input must have the same length as the transformation; the input is not
// modified.
func (t T) Apply(x []complex128) []complex128 {
	if len(x) != len(t.A) {
		panic(fmt.Sprintf("transform: apply length mismatch %d vs %d", len(x), len(t.A)))
	}
	out := make([]complex128, len(x))
	for i := range x {
		out[i] = t.A[i]*x[i] + t.B[i]
	}
	return out
}

// ApplyTime applies the transformation to a time-domain series: transform
// to the frequency domain, apply, transform back, and take real parts.
// This realizes the paper's reading of T(s) via the convolution-
// multiplication property (Section 3.2): for T_mavg it returns the circular
// moving average of s, for T_rev the negated series, and so on.
func (t T) ApplyTime(s []float64) []float64 {
	if len(s) != len(t.A) {
		panic(fmt.Sprintf("transform: series length %d != transformation length %d", len(s), len(t.A)))
	}
	X := dft.TransformReal(s)
	return dft.RealParts(dft.Inverse(t.Apply(X)))
}

// Compose returns the transformation equivalent to applying first t, then
// u: (u ∘ t)(x) = u(t(x)), with A = u.A*t.A, B = u.A*t.B + u.B, and the
// costs added. Both transformations must have the same dimensionality.
func (t T) Compose(u T) (T, error) {
	if len(t.A) != len(u.A) {
		return T{}, fmt.Errorf("transform: compose dimension mismatch %d vs %d", len(t.A), len(u.A))
	}
	a := make([]complex128, len(t.A))
	b := make([]complex128, len(t.A))
	for i := range a {
		a[i] = u.A[i] * t.A[i]
		b[i] = u.A[i]*t.B[i] + u.B[i]
	}
	name := u.Name + "∘" + t.Name
	return T{A: a, B: b, Cost: t.Cost + u.Cost, Name: name}, nil
}

// realTolerance bounds |Im(a_i)| (relative to |a_i|) for a stretch vector to
// count as real-valued; spectra of real masks carry tiny imaginary rounding.
const realTolerance = 1e-9

// SafeRect reports whether the transformation is safe with respect to the
// rectangular feature space S_rect: by Theorem 2 the stretch vector must be
// real (the translation may be any complex vector). Theorem 2's
// counterexample shows a complex stretch shears rectangles in S_rect.
func (t T) SafeRect() bool {
	for _, a := range t.A {
		if math.Abs(imag(a)) > realTolerance*(1+cmplx.Abs(a)) {
			return false
		}
	}
	return true
}

// SafePolar reports whether the transformation is safe with respect to the
// polar feature space S_pol: by Theorem 3 the translation must be zero (the
// stretch may be any complex vector — this is what lets the moving average,
// whose spectrum is genuinely complex, ride the index).
func (t T) SafePolar() bool {
	for _, b := range t.B {
		if cmplx.Abs(b) > realTolerance*(1+cmplx.Abs(b)) {
			return false
		}
	}
	return true
}

// mirrorTolerance bounds |a_{n-f} - conj(a_f)| (relative to 1+|a_f|) for
// the pair to count as conjugate-symmetric. Spectra of real masks and their
// products miss exact symmetry by a few ulps of FFT rounding; anything
// further off is treated as asymmetric, which only costs the caller the
// tighter bound, never an answer.
const mirrorTolerance = 1e-13

// MirrorSymmetric reports whether the transformation acts on coefficient
// n-f as the complex conjugate of its action on coefficient f, for every
// f = 1..k, with the 2k coefficients involved all distinct (2k < n). That
// is what a real time-domain operation does — identity, shift, scale,
// reversal, (weighted) moving averages and their compositions — and it
// makes T(x) keep the conjugate symmetry X_{n-f} = conj(X_f) of a real
// series' spectrum on those pairs: each of the first k terms of
// |T(X) - Q|^2 then has an equal twin at n-f. Warp (whose spectrum lives on
// m*n frequencies) and hand-built complex (a, b) are not symmetric.
func (t T) MirrorSymmetric(k int) bool {
	n := len(t.A)
	if k < 1 || 2*k >= n {
		return false
	}
	conj := func(x, y complex128) bool {
		return cmplx.Abs(y-cmplx.Conj(x)) <= mirrorTolerance*(1+cmplx.Abs(x))
	}
	for f := 1; f <= k; f++ {
		if !conj(t.A[f], t.A[n-f]) || !conj(t.B[f], t.B[n-f]) {
			return false
		}
	}
	return true
}

// WithCost returns a copy of the transformation with the given cost.
func (t T) WithCost(c float64) T {
	out := t
	out.Cost = c
	return out
}

func (t T) String() string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("T(dims=%d)", len(t.A))
}

// Identity returns the identity transformation T_i = (1, 0) of the paper's
// Figure 8/9 experiments: a vector of ones and a vector of zeros.
func Identity(n int) T {
	a := make([]complex128, n)
	for i := range a {
		a[i] = 1
	}
	return T{A: a, B: make([]complex128, n), Name: "identity"}
}

// identCache memoizes CachedIdentity per length. Safe to share: every
// consumer in the tree treats a T's slices as immutable (Compose and the
// constructors allocate fresh ones), and a process only ever sees a
// handful of store lengths.
var identCache sync.Map // int -> T

// CachedIdentity is Identity without the two per-call slice allocations —
// the identity transformation is the default of every untransformed
// query, which makes those allocations a per-query hot-path cost.
func CachedIdentity(n int) T {
	if v, ok := identCache.Load(n); ok {
		return v.(T)
	}
	t := Identity(n)
	identCache.Store(n, t)
	return t
}

// Scale returns the transformation multiplying every coefficient by the
// real constant c (a uniform amplitude scaling of the series, one of the
// GK95 operations the paper generalizes). Negative c is allowed: the paper
// drops the positive-scale restriction.
func Scale(n int, c float64) T {
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(c, 0)
	}
	return T{A: a, B: make([]complex128, n), Name: fmt.Sprintf("scale(%g)", c)}
}

// Reverse returns T_rev of Example 2.2: every coefficient multiplied by -1,
// equivalently the time-domain series negated. Used to find stocks with
// opposite price movements.
func Reverse(n int) T {
	t := Scale(n, -1)
	t.Name = "reverse"
	return t
}

// Shift returns the transformation adding the constant c to every value of
// the time-domain series. In the frequency domain a constant shift moves
// only the zeroth coefficient, by c*sqrt(n) under the unitary convention.
func Shift(n int, c float64) T {
	b := make([]complex128, n)
	b[0] = complex(c*math.Sqrt(float64(n)), 0)
	t := Identity(n)
	t.B = b
	t.Name = fmt.Sprintf("shift(%g)", c)
	return t
}

// MovingAverage returns T_mavg for an l-day circular moving average of
// length-n series (Section 3.2): A is the spectrum of the mask
// (1/l, ..., 1/l, 0, ..., 0) — Equation 11 — and B is zero. Its stretch
// vector is complex, so by Theorem 3 it is safe in S_pol but not S_rect.
func MovingAverage(n, l int) T {
	mask := series.MovingAverageMask(n, l)
	return T{
		A:    dft.Spectrum(mask),
		B:    make([]complex128, n),
		Name: fmt.Sprintf("mavg(%d)", l),
	}
}

// WeightedMovingAverage returns the transformation for a circular moving
// average with arbitrary window weights w (the trend-prediction variant of
// Section 3.2 where recent days weigh more).
func WeightedMovingAverage(n int, w []float64) T {
	if len(w) < 1 || len(w) > n {
		panic(fmt.Sprintf("transform: weight window %d out of range [1,%d]", len(w), n))
	}
	mask := make([]float64, n)
	copy(mask, w)
	return T{
		A:    dft.Spectrum(mask),
		B:    make([]complex128, n),
		Name: fmt.Sprintf("wmavg(%d)", len(w)),
	}
}

// Warp returns the time-warping transformation of Appendix A for stretch
// factor m acting on length-n series: coefficient f of the warped series
// (length m*n) relates to coefficient f of the original by
//
//	S'_f = a_f * S_f,  a_f = (1/sqrt(m)) * sum_{t=0}^{m-1} e^{-j 2 pi t f / (m n)}
//
// (Equation 19; the 1/sqrt(m) factor adapts the paper's 1/sqrt(n)
// normalization of the length-m*n spectrum to this package's unitary
// convention, where a length-m*n transform carries 1/sqrt(m*n)).
// The relation is exact for every f < n, so a k-index over the first k
// coefficients of stored series can answer warped queries against the
// first k coefficients of a length-m*n query series.
func Warp(n, m int) T {
	if m < 1 {
		panic(fmt.Sprintf("transform: warp factor %d must be >= 1", m))
	}
	a := make([]complex128, n)
	mn := float64(m * n)
	inv := 1 / math.Sqrt(float64(m))
	for f := 0; f < n; f++ {
		var sum complex128
		for t := 0; t < m; t++ {
			angle := -2 * math.Pi * float64(t) * float64(f) / mn
			s, c := math.Sincos(angle)
			sum += complex(c, s)
		}
		a[f] = sum * complex(inv, 0)
	}
	return T{A: a, B: make([]complex128, n), Name: fmt.Sprintf("warp(%d)", m)}
}
