package rtree

import (
	"fmt"

	"repro/internal/geom"
)

// CheckInvariants validates the structural invariants of the tree and
// returns a descriptive error if any is violated. It is exported for tests
// (including property-based tests that interleave inserts and deletes) and
// for debugging; it is O(n) and not meant for hot paths.
//
// Checked invariants:
//  1. Every node except the root has between MinEntries and MaxEntries
//     entries; the root has at most MaxEntries (and at least 2 if internal).
//  2. Every internal entry's rectangle equals the MBR of its child.
//  3. All leaves are at level 0 and node levels decrease by exactly one per
//     edge.
//  4. The recorded size matches the number of leaf entries, and the
//     recorded height matches the root level + 1.
//  5. Every node's columns have one cell per entry and dimension, no
//     entry's bounds are inverted or NaN, and every leaf's Cartesian block
//     (Coefficients) holds the images of its points.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return fmt.Errorf("rtree: nil root")
	}
	if t.height != t.root.level+1 {
		return fmt.Errorf("rtree: height %d != root level+1 %d", t.height, t.root.level+1)
	}
	if !t.root.leaf() && t.root.count() < 2 {
		return fmt.Errorf("rtree: internal root has %d entries", t.root.count())
	}
	count, err := t.checkNode(t.root, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d but %d leaf entries found", t.size, count)
	}
	return nil
}

func (t *Tree) checkNode(n *node, isRoot bool) (int, error) {
	c := n.count()
	if c > t.maxEntries {
		return 0, fmt.Errorf("rtree: node at level %d has %d > max %d entries", n.level, c, t.maxEntries)
	}
	if !isRoot && c < t.minEntries {
		return 0, fmt.Errorf("rtree: node at level %d has %d < min %d entries", n.level, c, t.minEntries)
	}
	if err := t.checkColumns(n); err != nil {
		return 0, err
	}
	if n.leaf() {
		return c, nil
	}
	total := 0
	for i, kid := range n.kids {
		if kid == nil {
			return 0, fmt.Errorf("rtree: internal entry %d at level %d has nil child", i, n.level)
		}
		if kid.level != n.level-1 {
			return 0, fmt.Errorf("rtree: child level %d under node level %d", kid.level, n.level)
		}
		sub, err := t.checkNode(kid, false)
		if err != nil {
			return 0, err
		}
		if have, want := t.rect(n, i), t.mbr(kid); !have.Equal(want) {
			return 0, fmt.Errorf("rtree: stale MBR at level %d entry %d: have %v want %v", n.level, i, have, want)
		}
		total += sub
	}
	return total, nil
}

// levelFill returns the mean fill of each level's nodes — entries over
// nodes × MaxEntries — leaves first, root last: how full a bulk load or a
// churn left the tree.
func (t *Tree) levelFill() []float64 {
	nodes, entries := make([]int, t.height), make([]int, t.height)
	var walk func(n *node)
	walk = func(n *node) {
		nodes[n.level]++
		entries[n.level] += n.count()
		for _, k := range n.kids {
			walk(k)
		}
	}
	walk(t.root)
	fill := make([]float64, t.height)
	for l := range fill {
		fill[l] = float64(entries[l]) / float64(nodes[l]*t.maxEntries)
	}
	return fill
}

// checkColumns verifies a node's columns are the size its entry count says,
// its bounds well formed, and a leaf's Cartesian block the image of its
// points.
func (t *Tree) checkColumns(n *node) error {
	c := n.count()
	if len(n.lo) != c*t.dims || len(n.hi) != c*t.dims {
		return fmt.Errorf("rtree: bounds columns have %d and %d cells, want %d (level %d, %d entries)", len(n.lo), len(n.hi), c*t.dims, n.level, c)
	}
	for k := range n.lo {
		if !(n.lo[k] <= n.hi[k]) {
			return fmt.Errorf("rtree: bounds [%g, %g] at level %d entry %d dim %d", n.lo[k], n.hi[k], n.level, k/t.dims, k%t.dims)
		}
	}
	if t.polarPairs == 0 || !n.leaf() {
		return nil
	}
	if len(n.cart) != c*2*t.polarPairs {
		return fmt.Errorf("rtree: Cartesian block has %d cells, want %d (%d entries)", len(n.cart), c*2*t.polarPairs, c)
	}
	for i := 0; i < c; i++ {
		p := t.rect(n, i).Lo[t.coeffFrom:]
		for j := 0; j < t.polarPairs; j++ {
			re, im := geom.PolarToRect(p[2*j], p[2*j+1])
			if k := (i*t.polarPairs + j) * 2; n.cart[k] != re || n.cart[k+1] != im {
				return fmt.Errorf("rtree: stale Cartesian block at entry %d pair %d", i, j)
			}
		}
	}
	return nil
}
