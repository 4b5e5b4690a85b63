package geom

import "math"

// Reference geometry no traversal calls any more — the MINDIST and
// MINMAXDIST metrics of Roussopoulos et al. (RKV95) as written in the paper,
// and three rectangle helpers — kept beside the suite that specifies them.

// MinDistSq returns MINDIST^2(p, r) of Roussopoulos, Kelley & Vincent
// (SIGMOD 1995): the squared Euclidean distance from point p to the nearest
// point of rectangle r. It is zero when p lies inside r. MINDIST is a lower
// bound on the distance from p to any object enclosed by r, which makes it a
// safe pruning metric for nearest-neighbor search (no object in r can be
// closer than MINDIST).
func MinDistSq(p Point, r Rect) float64 {
	var s float64
	for i := range p {
		switch {
		case p[i] < r.Lo[i]:
			d := r.Lo[i] - p[i]
			s += d * d
		case p[i] > r.Hi[i]:
			d := p[i] - r.Hi[i]
			s += d * d
		}
	}
	return s
}

// MinDist returns MINDIST(p, r). See MinDistSq.
func MinDist(p Point, r Rect) float64 {
	return math.Sqrt(MinDistSq(p, r))
}

// MinMaxDistSq returns MINMAXDIST^2(p, r) of RKV95: the minimum over all
// faces of r of the maximum distance from p to the nearest face. Every
// rectangle in an R-tree bounds at least one object touching each of its
// faces, so MINMAXDIST is an upper bound on the distance from p to the
// nearest object inside r; candidates with MINDIST greater than another
// rectangle's MINMAXDIST can be pruned.
//
// The rectangle must be non-degenerate in dimensionality (at least 1-d) and
// p must have the same dimensionality.
func MinMaxDistSq(p Point, r Rect) float64 {
	n := len(p)
	// S = sum over all dims of max-distance-to-far-corner squared.
	var S float64
	rmSq := make([]float64, n) // nearer-face distance squared per dim
	rMSq := make([]float64, n) // farther-face distance squared per dim
	for i := 0; i < n; i++ {
		mid := (r.Lo[i] + r.Hi[i]) / 2
		var rm float64
		if p[i] <= mid {
			rm = r.Lo[i]
		} else {
			rm = r.Hi[i]
		}
		var rM float64
		if p[i] >= mid {
			rM = r.Lo[i]
		} else {
			rM = r.Hi[i]
		}
		dm := p[i] - rm
		dM := p[i] - rM
		rmSq[i] = dm * dm
		rMSq[i] = dM * dM
		S += dM * dM
	}
	best := math.Inf(1)
	for k := 0; k < n; k++ {
		v := S - rMSq[k] + rmSq[k]
		if v < best {
			best = v
		}
	}
	return best
}

// MinMaxDist returns MINMAXDIST(p, r). See MinMaxDistSq.
func MinMaxDist(p Point, r Rect) float64 {
	return math.Sqrt(MinMaxDistSq(p, r))
}

// ContainsPoint reports whether p lies inside r (boundary inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	if r.Dims() != len(p) {
		return false
	}
	for i := range p {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Enlargement returns the increase in area needed for r to cover o.
func (r Rect) Enlargement(o Rect) float64 {
	return r.Union(o).Area() - r.Area()
}

// Expand returns r grown by eps in every direction of every dimension: the
// minimum bounding rectangle of the eps-ball around each point of r in the
// L-infinity sense. Expanding a point rectangle by eps yields the search
// rectangle of the paper's Section 3.1 for the rectangular space S_rect.
func (r Rect) Expand(eps float64) Rect {
	out := r.Clone()
	for i := range out.Lo {
		out.Lo[i] -= eps
		out.Hi[i] += eps
	}
	return out
}
