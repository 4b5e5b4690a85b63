package geom

import "math"

// The polar feature space S_pol of the paper stores, for each retained DFT
// coefficient, a magnitude dimension and a phase-angle dimension. Phase
// angles live on a circle: after a transformation shifts an angle interval
// by Angle(a_i) (paper Theorem 3), the interval can cross the +/- pi seam.
// The paper's presentation glosses over this; treating shifted angle
// intervals as plain linear intervals silently loses matches near the seam.
// This file provides interval arithmetic modulo 2*pi so that overlap and
// containment tests used during transformed index traversal remain sound.

const twoPi = 2 * math.Pi

// turn is math.Mod(x, 2*pi) to the bit. Mod returns x itself when |x| < 2*pi,
// which is where nearly every angle a traversal tests already lies, so turn
// answers those without calling it.
func turn(x float64) float64 {
	if -twoPi < x && x < twoPi {
		return x
	}
	return math.Mod(x, twoPi)
}

// NormalizeAngle maps an angle to the canonical range [-pi, pi).
func NormalizeAngle(a float64) float64 {
	a = turn(a + math.Pi)
	if a < 0 {
		a += twoPi
	}
	return a - math.Pi
}

// AngularIntervalsOverlap reports whether the circular intervals
// [aLo, aHi] and [bLo, bHi] (interpreted modulo 2*pi, traversed from Lo
// counter-clockwise to Hi) intersect. Intervals spanning 2*pi or more cover
// the whole circle. The inputs need not be normalized.
func AngularIntervalsOverlap(aLo, aHi, bLo, bHi float64) bool {
	aw := aHi - aLo // width of a
	bw := bHi - bLo
	if aw < 0 || bw < 0 {
		// Degenerate (inverted) intervals are treated as empty.
		return false
	}
	if aw >= twoPi || bw >= twoPi {
		return true
	}
	// b's start relative to a's start, in [0, 2*pi).
	rel := turn(bLo - aLo)
	if rel < 0 {
		rel += twoPi
	}
	// b occupies [rel, rel+bw] on the unrolled circle; a occupies [0, aw].
	// They overlap iff rel <= aw, or b wraps past 2*pi back into [0, aw].
	return rel <= aw || rel+bw >= twoPi
}

// AngularIntervalContains reports whether the circular interval [lo, hi]
// contains the angle x (all modulo 2*pi).
func AngularIntervalContains(lo, hi, x float64) bool {
	if hi-lo >= twoPi {
		return true
	}
	w := hi - lo
	if w < 0 {
		return false
	}
	rel := turn(x - lo)
	if rel < 0 {
		rel += twoPi
	}
	return rel <= w
}

// ContainsPointMixed reports whether rectangle r contains point p where the
// dimensions flagged in angular are circle-valued.
func ContainsPointMixed(r Rect, p Point, angular []bool) bool {
	if r.Dims() != len(p) {
		return false
	}
	for i := range p {
		if i < len(angular) && angular[i] {
			if !AngularIntervalContains(r.Lo[i], r.Hi[i], p[i]) {
				return false
			}
			continue
		}
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// PolarToRect returns the Cartesian coordinates (m*cos a, m*sin a) of the
// complex number with magnitude m and phase angle a. Every place that
// turns a polar feature dimension pair back into a complex coefficient
// goes through it, so the results agree bit for bit.
func PolarToRect(m, a float64) (re, im float64) {
	sin, cos := math.Sincos(a)
	return m * cos, m * sin
}
