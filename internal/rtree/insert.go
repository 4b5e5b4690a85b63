package rtree

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// reinsertFraction is the share of entries removed from an overflowing node
// and reinserted (BKSS90 found p = 30% of M to perform best).
const reinsertFraction = 0.3

// Insert adds an item to the tree. The rectangle must match the tree's
// dimensionality and be canonical (Lo <= Hi in every dimension).
func (t *Tree) Insert(r geom.Rect, id int64) error {
	if err := t.checkRect(r); err != nil {
		return err
	}
	if t.reinsertedAtLevel == nil {
		t.reinsertedAtLevel = map[int]bool{}
	} else {
		clear(t.reinsertedAtLevel)
	}
	t.insertEntry(entry{rect: r.Clone(), id: id}, 0)
	t.size++
	return nil
}

// insertEntry inserts an entry at the given target level (0 = leaf level for
// data entries; higher levels receive orphaned subtrees during reinsertion
// and condensation).
func (t *Tree) insertEntry(e entry, level int) {
	leafPath := t.choosePath(e.rect, level)
	n := leafPath[len(leafPath)-1]
	n.entries = append(n.entries, e)
	t.syncFlat(n)
	t.adjustPath(leafPath, e.rect)
	if len(n.entries) > t.maxEntries {
		t.overflow(leafPath)
	}
}

// choosePath returns the root-to-target-level path chosen by the R*-tree
// ChooseSubtree heuristic.
func (t *Tree) choosePath(r geom.Rect, level int) []*node {
	path := []*node{t.root}
	n := t.root
	for n.level > level {
		idx := t.chooseSubtree(n, r)
		n.entries[idx].rect.UnionInPlace(r)
		t.syncFlatEntry(n, idx)
		n = n.entries[idx].child
		path = append(path, n)
	}
	return path
}

// adjustPath grows the stored child MBRs along the path; choosePath already
// enlarged them, so this is a no-op today, retained as the single place to
// recompute if insertion strategies change. (Entries at the root itself have
// no parent rectangle to maintain.)
func (t *Tree) adjustPath(path []*node, r geom.Rect) {}

// chooseSubtree implements BKSS90: when the children are leaves, pick the
// entry whose rectangle needs the least *overlap* enlargement to include r
// (resolving ties by least area enlargement, then smallest area); otherwise
// pick the entry with least area enlargement (ties by smallest area).
func (t *Tree) chooseSubtree(n *node, r geom.Rect) int {
	childrenAreLeaves := n.level == 1
	best := -1
	var bestOverlapInc, bestAreaInc, bestArea float64
	for i := range n.entries {
		e := &n.entries[i]
		union := e.rect.Union(r)
		areaInc := union.Area() - e.rect.Area()
		area := e.rect.Area()

		var overlapInc float64
		if childrenAreLeaves {
			// Overlap of this entry with its siblings, before and after
			// enlargement.
			var before, after float64
			for j := range n.entries {
				if j == i {
					continue
				}
				before += e.rect.OverlapArea(n.entries[j].rect)
				after += union.OverlapArea(n.entries[j].rect)
			}
			overlapInc = after - before
		}

		if best == -1 {
			best, bestOverlapInc, bestAreaInc, bestArea = i, overlapInc, areaInc, area
			continue
		}
		if childrenAreLeaves {
			if overlapInc < bestOverlapInc ||
				(overlapInc == bestOverlapInc && areaInc < bestAreaInc) ||
				(overlapInc == bestOverlapInc && areaInc == bestAreaInc && area < bestArea) {
				best, bestOverlapInc, bestAreaInc, bestArea = i, overlapInc, areaInc, area
			}
		} else {
			if areaInc < bestAreaInc || (areaInc == bestAreaInc && area < bestArea) {
				best, bestOverlapInc, bestAreaInc, bestArea = i, overlapInc, areaInc, area
			}
		}
	}
	return best
}

// overflow applies R*-tree overflow treatment to the last node of path:
// forced reinsertion the first time a level overflows during one insertion,
// node splitting otherwise. Splits can propagate up the path.
func (t *Tree) overflow(path []*node) {
	for depth := len(path) - 1; depth >= 0; depth-- {
		n := path[depth]
		if len(n.entries) <= t.maxEntries {
			return
		}
		isRoot := depth == 0
		if !isRoot && t.reinsert && !t.reinsertedAtLevel[n.level] {
			t.reinsertedAtLevel[n.level] = true
			t.forcedReinsert(n, path[:depth+1])
			// Reinsertion may itself have caused splits elsewhere, but
			// this node is now within capacity.
			return
		}
		left, right := t.split(n)
		if isRoot {
			newRoot := &node{level: n.level + 1, entries: []entry{
				{rect: left.mbr(), child: left},
				{rect: right.mbr(), child: right},
			}}
			t.syncFlat(newRoot)
			t.root = newRoot
			t.height++
			return
		}
		parent := path[depth-1]
		t.replaceChild(parent, n, left, right)
	}
}

// replaceChild swaps the entry of parent pointing at old for two entries
// pointing at the split halves.
func (t *Tree) replaceChild(parent, old, left, right *node) {
	for i := range parent.entries {
		if parent.entries[i].child == old {
			parent.entries[i] = entry{rect: left.mbr(), child: left}
			parent.entries = append(parent.entries, entry{rect: right.mbr(), child: right})
			t.syncFlat(parent)
			return
		}
	}
	panic("rtree: internal error: split child not found in parent")
}

// forcedReinsert removes the p entries of n whose centers lie farthest from
// the node MBR's center and reinserts them (close-reinsert order: nearest
// removed entry first), tightening n's bounding rectangle in its parent.
func (t *Tree) forcedReinsert(n *node, path []*node) {
	center := n.mbr().Center()
	type distEntry struct {
		e entry
		d float64
	}
	des := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		des[i] = distEntry{e: e, d: center.DistSq(e.rect.Center())}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].d < des[j].d })

	p := int(math.Ceil(reinsertFraction * float64(t.maxEntries)))
	if p < 1 {
		p = 1
	}
	keep := len(des) - p
	n.entries = n.entries[:0]
	for _, de := range des[:keep] {
		n.entries = append(n.entries, de.e)
	}
	t.syncFlat(n)
	// Tighten ancestors' rectangles for the shrunken node.
	t.recomputePathRects(path)

	level := n.level
	for _, de := range des[keep:] {
		t.insertEntry(de.e, level)
	}
}

// recomputePathRects recomputes the child MBRs stored along a root-to-node
// path after entries were removed.
func (t *Tree) recomputePathRects(path []*node) {
	for depth := len(path) - 2; depth >= 0; depth-- {
		parent, child := path[depth], path[depth+1]
		for i := range parent.entries {
			if parent.entries[i].child == child {
				parent.entries[i].rect = child.mbr()
				t.syncFlatEntry(parent, i)
				break
			}
		}
	}
}
