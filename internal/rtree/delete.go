package rtree

import "repro/internal/geom"

// Delete removes one item with exactly the given rectangle and ID. It
// reports whether a matching item was found. After removal the tree is
// condensed: under-full nodes are dissolved and their entries reinserted,
// following Guttman's CondenseTree adapted to the R*-tree minimum fill.
func (t *Tree) Delete(r geom.Rect, id int64) bool {
	if err := t.checkRect(r); err != nil {
		return false
	}
	path, idx := t.findLeaf(t.root, nil, r, id)
	if path == nil {
		return false
	}
	t.removeEntry(path[len(path)-1], idx)
	t.size--
	t.condense(path)
	return true
}

// findLeaf locates the leaf containing the (rect, id) pair, returning the
// root-to-leaf path and the entry index, or (nil, -1).
func (t *Tree) findLeaf(n *node, path []*node, r geom.Rect, id int64) ([]*node, int) {
	path = append(path, n)
	if n.leaf() {
		for i, stored := range n.ids {
			if stored == id && t.rect(n, i).Equal(r) {
				out := make([]*node, len(path))
				copy(out, path)
				return out, i
			}
		}
		return nil, -1
	}
	for i, kid := range n.kids {
		if t.rect(n, i).Contains(r) {
			if found, idx := t.findLeaf(kid, path, r, id); found != nil {
				return found, idx
			}
		}
	}
	return nil, -1
}

// condense walks the deletion path bottom-up, removing under-full nodes and
// queueing their entries for reinsertion at their original level, then
// shrinks a root left with a single child.
func (t *Tree) condense(path []*node) {
	type orphan struct {
		b     branch
		level int
	}
	var orphans []orphan

	for depth := len(path) - 1; depth >= 1; depth-- {
		n := path[depth]
		parent := path[depth-1]
		if n.count() < t.minEntries {
			// Dissolve n: remove from parent, orphan its entries. n leaves
			// the tree here, so the orphans can stay views of it.
			t.removeEntry(parent, childIndex(parent, n))
			for _, b := range t.branches(n) {
				orphans = append(orphans, orphan{b: b, level: n.level})
			}
		} else {
			// Tighten the parent's rectangle for n.
			t.setEntry(parent, childIndex(parent, n), branch{rect: t.mbr(n), kid: n})
		}
	}

	// Reinsert orphans at the level of the node that held them, so subtree
	// entries keep hanging at a consistent height. The root is never
	// dissolved here, so that level still exists.
	if t.reinsertedAtLevel == nil {
		t.reinsertedAtLevel = map[int]bool{}
	} else {
		clear(t.reinsertedAtLevel)
	}
	for _, o := range orphans {
		if o.level < t.root.level {
			t.insertEntry(o.b, o.level)
		} else {
			// The tree restructured underneath us; splice leaf entries
			// back individually (rare, but keeps invariants).
			t.reinsertSubtreeLeaves(o.b.kid)
		}
	}

	// Shrink the root while it is a non-leaf with a single child.
	for !t.root.leaf() && len(t.root.kids) == 1 {
		t.root = t.root.kids[0]
		t.height--
	}
}

// reinsertSubtreeLeaves walks a detached subtree and reinserts every leaf
// entry individually.
func (t *Tree) reinsertSubtreeLeaves(n *node) {
	if n.leaf() {
		for _, b := range t.branches(n) {
			t.insertEntry(b, 0)
		}
		return
	}
	for _, kid := range n.kids {
		t.reinsertSubtreeLeaves(kid)
	}
}
