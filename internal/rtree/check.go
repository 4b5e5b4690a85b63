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
//  5. Every node's flat MBR slab (the struct-of-arrays copy batch
//     traversals scan) agrees cell for cell with its entry rectangles, and
//     every leaf's Cartesian block (KeepCartesian) with its entry points.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return fmt.Errorf("rtree: nil root")
	}
	if t.height != t.root.level+1 {
		return fmt.Errorf("rtree: height %d != root level+1 %d", t.height, t.root.level+1)
	}
	if !t.root.leaf() && len(t.root.entries) < 2 {
		return fmt.Errorf("rtree: internal root has %d entries", len(t.root.entries))
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
	if len(n.entries) > t.maxEntries {
		return 0, fmt.Errorf("rtree: node at level %d has %d > max %d entries", n.level, len(n.entries), t.maxEntries)
	}
	if !isRoot && len(n.entries) < t.minEntries {
		return 0, fmt.Errorf("rtree: node at level %d has %d < min %d entries", n.level, len(n.entries), t.minEntries)
	}
	if err := t.checkFlat(n); err != nil {
		return 0, err
	}
	if n.leaf() {
		return len(n.entries), nil
	}
	total := 0
	for i, e := range n.entries {
		if e.child == nil {
			return 0, fmt.Errorf("rtree: internal entry %d at level %d has nil child", i, n.level)
		}
		if e.child.level != n.level-1 {
			return 0, fmt.Errorf("rtree: child level %d under node level %d", e.child.level, n.level)
		}
		if want := e.child.mbr(); !e.rect.Equal(want) {
			return 0, fmt.Errorf("rtree: stale MBR at level %d entry %d: have %v want %v", n.level, i, e.rect, want)
		}
		c, err := t.checkNode(e.child, false)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// checkFlat verifies the flat slab mirrors the entry rectangles exactly,
// and a leaf's Cartesian block its entry points.
func (t *Tree) checkFlat(n *node) error {
	dims := t.dims
	c := len(n.entries)
	if len(n.flat) != 2*c*dims {
		return fmt.Errorf("rtree: flat slab has %d cells, want %d (level %d, %d entries)", len(n.flat), 2*c*dims, n.level, c)
	}
	lows, highs := n.flat[:c*dims], n.flat[c*dims:]
	for i, e := range n.entries {
		for j := 0; j < dims; j++ {
			if lows[i*dims+j] != e.rect.Lo[j] || highs[i*dims+j] != e.rect.Hi[j] {
				return fmt.Errorf("rtree: stale flat slab at level %d entry %d dim %d", n.level, i, j)
			}
		}
	}
	if t.polarPairs == 0 || !n.leaf() {
		return nil
	}
	if len(n.cart) != c*2*t.polarPairs {
		return fmt.Errorf("rtree: Cartesian block has %d cells, want %d (%d entries)", len(n.cart), c*2*t.polarPairs, c)
	}
	for i, e := range n.entries {
		for j := 0; j < t.polarPairs; j++ {
			re, im := geom.PolarToRect(e.rect.Lo[t.polarFrom+2*j], e.rect.Lo[t.polarFrom+2*j+1])
			if k := (i*t.polarPairs + j) * 2; n.cart[k] != re || n.cart[k+1] != im {
				return fmt.Errorf("rtree: stale Cartesian block at entry %d pair %d", i, j)
			}
		}
	}
	return nil
}
