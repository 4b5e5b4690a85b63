// Package feature maps time series to the multidimensional index points of
// Rafiei & Mendelzon (SIGMOD 1997, Sections 3.1 and 5).
//
// The paper's experimental layout, reproduced here, is:
//
//	dim 0: mean of the original series
//	dim 1: standard deviation of the original series
//	dims 2..: K complex DFT coefficients of the *normal form* of the series,
//	          starting at X_1 (X_0 is proportional to the mean and is
//	          identically zero for normal forms, so it is dropped), each
//	          coefficient contributing two dimensions:
//	          - S_rect: (Re, Im)        — safe for real stretches (Thm 2)
//	          - S_pol:  (Abs, Angle)    — safe for zero translations (Thm 3)
//
// The moments are indexed but not tiled: the k-index's rectangles carry
// them, so a moment-bounded range read prunes on them, but a bulk load
// sorts and slices only the coefficient dimensions from Skip() on, the
// ones the distance bounds read (rtree.Tree.Coefficients).
//
// The package also builds the search rectangles of Section 3.1 (Figure 7):
// a +/- eps box around the query in S_rect, and per coefficient a
// magnitude range [m-eps, m+eps] with an angle arc alpha +/- asin(eps/m) in
// S_pol, degrading to the full circle when eps >= m.
package feature

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"

	"repro/internal/dft"
	"repro/internal/geom"
	"repro/internal/series"
	"repro/internal/transform"
)

// Space selects the complex-number decomposition used for index dimensions.
type Space int

const (
	// Rect decomposes coefficients into real and imaginary parts (S_rect).
	Rect Space = iota
	// Polar decomposes coefficients into magnitude and phase angle (S_pol).
	Polar
)

func (s Space) String() string {
	switch s {
	case Rect:
		return "S_rect"
	case Polar:
		return "S_pol"
	default:
		return fmt.Sprintf("Space(%d)", int(s))
	}
}

// Schema describes a feature space: which decomposition, how many DFT
// coefficients, and whether the leading mean/std moment dimensions of the
// paper's Section 5 layout are present.
type Schema struct {
	Space Space
	// K is the number of retained DFT coefficients X_1..X_K of the normal
	// form. The paper's experiments use K = 2 (their "second and third DFT
	// terms").
	K int
	// Moments includes the two leading mean/std dimensions.
	Moments bool
}

// DefaultSchema is the exact six-dimensional polar layout of the paper's
// experiments (Section 5).
var DefaultSchema = Schema{Space: Polar, K: 2, Moments: true}

// Validate reports whether the schema is usable.
func (sc Schema) Validate() error {
	if sc.K < 1 {
		return fmt.Errorf("feature: K must be >= 1, got %d", sc.K)
	}
	if sc.Space != Rect && sc.Space != Polar {
		return fmt.Errorf("feature: unknown space %d", int(sc.Space))
	}
	return nil
}

// Skip returns the number of leading passthrough dimensions (2 with
// moments, else 0).
func (sc Schema) Skip() int {
	if sc.Moments {
		return 2
	}
	return 0
}

// Dims returns the total feature dimensionality.
func (sc Schema) Dims() int { return sc.Skip() + 2*sc.K }

// Angular returns the per-dimension circle-valued flags: in the polar space
// every phase-angle dimension wraps modulo 2*pi; in the rectangular space
// the result is nil (all linear).
func (sc Schema) Angular() []bool {
	if sc.Space != Polar {
		return nil
	}
	flags := make([]bool, sc.Dims())
	for i := 0; i < sc.K; i++ {
		flags[sc.Skip()+2*i+1] = true
	}
	return flags
}

// Scratch is the working memory of Derive: the normal form and the half
// spectrum Derive returns. The zero value is ready; a Scratch serves one
// derivation at a time.
type Scratch struct {
	nf   []float64
	half []complex128
}

// Derive is the one derivation of a series: its mean and standard deviation
// (each computed once), its normal form (into scr) and the stored half of
// the normal form's unitary spectrum, X_0 … X_{⌊n/2⌋} — one real-input
// transform (dft.HalfInto). The feature point is Point(mean, std, X_1 …
// X_K) of that same half, so a point and the spectrum stored beside it
// agree bit for bit. The half lives in scr until its next use; a nil scr
// allocates a fresh one, and the half is then the caller's.
func (sc Schema) Derive(s []float64, scr *Scratch) (geom.Point, []complex128, error) {
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	n := len(s)
	if n < sc.K+1 {
		return nil, nil, fmt.Errorf("feature: series length %d too short for K=%d", n, sc.K)
	}
	if scr == nil {
		scr = new(Scratch)
	}
	scr.nf = slices.Grow(scr.nf[:0], n)[:n]
	mean, std := series.NormalFormInto(scr.nf, s)
	scr.half = dft.HalfInto(scr.half, scr.nf)
	coeffs := scr.half[1:min(sc.K+1, len(scr.half))]
	if len(coeffs) < sc.K {
		// A series shorter than 2K: the coefficients past the middle are the
		// conjugates of the ones before it.
		coeffs = append(make([]complex128, 0, sc.K), coeffs...)
		for f := len(coeffs) + 1; f <= sc.K; f++ {
			coeffs = append(coeffs, cmplx.Conj(scr.half[n-f]))
		}
	}
	return sc.Point(mean, std, coeffs), scr.half, nil
}

// Extract maps a time series to its feature point under the schema (Derive,
// keeping only the point).
func (sc Schema) Extract(s []float64) (geom.Point, error) {
	p, _, err := sc.Derive(s, nil)
	return p, err
}

// Point lays out a feature point from precomputed moments and coefficients.
// It panics if len(coeffs) != K.
func (sc Schema) Point(mean, std float64, coeffs []complex128) geom.Point {
	if len(coeffs) != sc.K {
		panic(fmt.Sprintf("feature: %d coefficients for schema with K=%d", len(coeffs), sc.K))
	}
	p := make(geom.Point, 0, sc.Dims())
	if sc.Moments {
		p = append(p, mean, std)
	}
	for _, c := range coeffs {
		if sc.Space == Rect {
			p = append(p, real(c), imag(c))
		} else {
			p = append(p, cmplx.Abs(c), geom.NormalizeAngle(cmplx.Phase(c)))
		}
	}
	return p
}

// Coeffs reconstructs the complex coefficients X_1..X_K from a feature
// point. It panics if the point does not match the schema dimensionality.
func (sc Schema) Coeffs(p geom.Point) []complex128 {
	out := make([]complex128, sc.K)
	sc.CoeffsInto(p, out)
	return out
}

// Moments extracts the (mean, std) stored in a feature point, or zeros if
// the schema has no moment dimensions.
func (sc Schema) MomentsOf(p geom.Point) (mean, std float64) {
	if !sc.Moments {
		return 0, 0
	}
	return p[0], p[1]
}

// MomentBounds optionally constrains the mean/std dimensions of a search
// rectangle (the GK95-style shift/scale ranges the paper's layout was
// designed to support). The zero value is unbounded.
type MomentBounds struct {
	MeanLo, MeanHi float64
	StdLo, StdHi   float64
}

// Unbounded returns moment bounds spanning the whole real line.
func Unbounded() MomentBounds {
	return MomentBounds{
		MeanLo: -math.MaxFloat64, MeanHi: math.MaxFloat64,
		StdLo: -math.MaxFloat64, StdHi: math.MaxFloat64,
	}
}

// SearchRect builds the Section 3.1 search rectangle: the minimum bounding
// rectangle (in this feature space) of every feature point whose
// coefficient vector lies within Euclidean distance eps of q's. Any point
// x with D(x, q) <= eps over the full spectra satisfies
// |X_f - Q_f| <= eps per coefficient, so x's feature point falls inside
// this rectangle — the geometric half of the paper's Lemma 1.
//
// In the polar space the angle interval is alpha +/- asin(eps/m)
// (Figure 7), widening to the full circle when eps >= m; intervals may
// extend past +/- pi and are meant for the modulo-2*pi overlap predicates.
func (sc Schema) SearchRect(q geom.Point, eps float64, mb MomentBounds) geom.Rect {
	lo := make(geom.Point, sc.Dims())
	hi := make(geom.Point, sc.Dims())
	sc.SearchRectInto(q, eps, mb, lo, hi)
	return geom.Rect{Lo: lo, Hi: hi}
}

// Map returns the affine action of transformation t on this feature space.
// The transformation is defined over full-length spectra; coefficients
// 1..K (matching the dropped-X_0 layout) are sliced out and mapped through
// Theorem 2 (rectangular) or Theorem 3 (polar). Moment dimensions pass
// through unchanged.
func (sc Schema) Map(t transform.T) (transform.AffineMap, error) {
	if t.Dims() < sc.K+1 {
		return transform.AffineMap{}, fmt.Errorf("feature: transformation %s covers %d coefficients, schema needs %d", t, t.Dims(), sc.K+1)
	}
	sliced := transform.T{
		A:    t.A[1 : sc.K+1],
		B:    t.B[1 : sc.K+1],
		Cost: t.Cost,
		Name: t.Name,
	}
	if sc.Space == Rect {
		return transform.RectMap(sliced, sc.Skip(), sc.K)
	}
	return transform.PolarMap(sliced, sc.Skip(), sc.K)
}
