package rtree

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// split divides an overflowing node into two nodes using the R*-tree
// topological split: first choose the split axis as the one minimizing the
// sum of margins over all candidate distributions, then along that axis
// choose the distribution minimizing overlap between the two groups (ties
// broken by combined area).
func (t *Tree) split(n *node) (left, right *node) {
	// The halves are new nodes, so the entries can stay views of n.
	bs := t.branches(n)
	sortBranchesByAxis(bs, t.chooseSplitAxis(bs))
	splitAt := t.chooseSplitIndex(bs)
	left = t.fill(t.newNode(n.level), bs[:splitAt])
	right = t.fill(t.newNode(n.level), bs[splitAt:])
	return left, right
}

// sortBranchesByAxis orders entries by lower value then upper value along
// one axis, the ordering BKSS90 uses for distribution generation.
func sortBranchesByAxis(es []branch, axis int) {
	sort.SliceStable(es, func(i, j int) bool {
		if es[i].rect.Lo[axis] != es[j].rect.Lo[axis] {
			return es[i].rect.Lo[axis] < es[j].rect.Lo[axis]
		}
		return es[i].rect.Hi[axis] < es[j].rect.Hi[axis]
	})
}

// chooseSplitAxis returns the axis with the minimum sum of group margins
// over all legal distributions.
func (t *Tree) chooseSplitAxis(bs []branch) int {
	bestAxis, bestMargin := 0, math.Inf(1)
	scratch := make([]branch, len(bs))
	for axis := 0; axis < t.dims; axis++ {
		copy(scratch, bs)
		sortBranchesByAxis(scratch, axis)
		margin := t.marginSum(scratch)
		if margin < bestMargin {
			bestMargin, bestAxis = margin, axis
		}
	}
	return bestAxis
}

// marginSum accumulates margin(group1)+margin(group2) over every legal
// distribution of the sorted entries.
func (t *Tree) marginSum(es []branch) float64 {
	total := 0.0
	forEachDistribution(es, t.minEntries, func(k int, g1, g2 geom.Rect) {
		total += g1.Margin() + g2.Margin()
	})
	return total
}

// chooseSplitIndex picks, among the legal distributions of the (already
// axis-sorted) entries, the split position minimizing overlap between the
// group rectangles, breaking ties by total area.
func (t *Tree) chooseSplitIndex(es []branch) int {
	bestK, bestOverlap, bestArea := -1, math.Inf(1), math.Inf(1)
	forEachDistribution(es, t.minEntries, func(k int, g1, g2 geom.Rect) {
		overlap := g1.OverlapArea(g2)
		area := g1.Area() + g2.Area()
		if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, overlap, area
		}
	})
	return bestK
}

// forEachDistribution calls fn for every legal split position k (first
// group takes es[:k]); group MBRs are computed incrementally with prefix and
// suffix unions so the whole enumeration is O(n·d).
func forEachDistribution(es []branch, minEntries int, fn func(k int, g1, g2 geom.Rect)) {
	n := len(es)
	prefix := make([]geom.Rect, n+1)
	suffix := make([]geom.Rect, n+1)
	prefix[1] = es[0].rect.Clone()
	for i := 1; i < n; i++ {
		prefix[i+1] = prefix[i].Union(es[i].rect)
	}
	suffix[n-1] = es[n-1].rect.Clone()
	for i := n - 2; i >= 0; i-- {
		suffix[i] = suffix[i+1].Union(es[i].rect)
	}
	for k := minEntries; k <= n-minEntries; k++ {
		fn(k, prefix[k], suffix[k])
	}
}
