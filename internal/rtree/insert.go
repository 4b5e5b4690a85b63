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
	t.insertEntry(branch{rect: r, id: id}, 0)
	t.size++
	return nil
}

// insertEntry inserts an entry at the given target level (0 = leaf level for
// data entries; higher levels receive orphaned subtrees during reinsertion
// and condensation). The chosen node copies the bounds; b's rectangle may be
// a view of a node no longer in the tree.
func (t *Tree) insertEntry(b branch, level int) {
	path := t.choosePath(b.rect, level)
	n := path[len(path)-1]
	t.appendEntry(n, b)
	if n.count() > t.maxEntries {
		t.overflow(path)
	}
}

// choosePath returns the root-to-target-level path chosen by the R*-tree
// ChooseSubtree heuristic, growing the bounds stored along it to cover r.
func (t *Tree) choosePath(r geom.Rect, level int) []*node {
	path := []*node{t.root}
	n := t.root
	for n.level > level {
		idx := t.chooseSubtree(n, r)
		t.setEntry(n, idx, branch{rect: t.rect(n, idx).Union(r), kid: n.kids[idx]})
		n = n.kids[idx]
		path = append(path, n)
	}
	return path
}

// chooseSubtree implements BKSS90: when the children are leaves, pick the
// entry whose rectangle needs the least *overlap* enlargement to include r
// (resolving ties by least area enlargement, then smallest area); otherwise
// pick the entry with least area enlargement (ties by smallest area).
func (t *Tree) chooseSubtree(n *node, r geom.Rect) int {
	childrenAreLeaves := n.level == 1
	best := -1
	var bestOverlapInc, bestAreaInc, bestArea float64
	c := n.count()
	for i := 0; i < c; i++ {
		rect := t.rect(n, i)
		union := rect.Union(r)
		areaInc := union.Area() - rect.Area()
		area := rect.Area()

		var overlapInc float64
		if childrenAreLeaves {
			// Overlap of this entry with its siblings, before and after
			// enlargement.
			var before, after float64
			for j := 0; j < c; j++ {
				if j == i {
					continue
				}
				sibling := t.rect(n, j)
				before += rect.OverlapArea(sibling)
				after += union.OverlapArea(sibling)
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
		if n.count() <= t.maxEntries {
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
		halves := []branch{{rect: t.mbr(left), kid: left}, {rect: t.mbr(right), kid: right}}
		if isRoot {
			t.root = t.fill(t.newNode(n.level+1), halves)
			t.height++
			return
		}
		// The left half takes the split node's place among its parent's
		// entries, the right half goes last.
		parent := path[depth-1]
		t.setEntry(parent, childIndex(parent, n), halves[0])
		t.appendEntry(parent, halves[1])
	}
}

// forcedReinsert removes the p entries of n whose centers lie farthest from
// the node MBR's center and reinserts them (close-reinsert order: nearest
// removed entry first), tightening n's bounding rectangle in its parent.
func (t *Tree) forcedReinsert(n *node, path []*node) {
	center := t.mbr(n).Center()
	// The node is rewritten below, so the entries are taken out as copies.
	type distBranch struct {
		b branch
		d float64
	}
	des := make([]distBranch, n.count())
	for i := range des {
		b := t.branchAt(n, i)
		b.rect = b.rect.Clone()
		des[i] = distBranch{b: b, d: center.DistSq(b.rect.Center())}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].d < des[j].d })

	p := int(math.Ceil(reinsertFraction * float64(t.maxEntries)))
	if p < 1 {
		p = 1
	}
	keep := len(des) - p
	t.resize(n, keep)
	for i, de := range des[:keep] {
		t.setEntry(n, i, de.b)
	}
	// Tighten ancestors' rectangles for the shrunken node.
	t.recomputePathRects(path)

	for _, de := range des[keep:] {
		t.insertEntry(de.b, n.level)
	}
}

// recomputePathRects recomputes the child MBRs stored along a root-to-node
// path after entries were removed.
func (t *Tree) recomputePathRects(path []*node) {
	for depth := len(path) - 2; depth >= 0; depth-- {
		parent, child := path[depth], path[depth+1]
		t.setEntry(parent, childIndex(parent, child), branch{rect: t.mbr(child), kid: child})
	}
}
