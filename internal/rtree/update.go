package rtree

import "repro/internal/geom"

// Update moves the item stored under (oldRect, id) to newRect. When the new
// rectangle still lies inside its leaf's current bounding rectangle — the
// common case for streaming appends, where a point's feature drifts a
// little per window slide — the leaf entry is rewritten in place and the
// ancestor rectangles along the path are tightened: no node changes
// occupancy, so no splits, merges, or forced reinsertions can trigger, and
// the whole operation is one root-to-leaf descent. When the item moved out
// of its leaf's region, Update falls back to Delete + Insert, letting the
// usual R*-tree machinery find it a better home (leaving it in place would
// bloat the leaf's rectangle and poison future searches).
//
// found reports whether the (oldRect, id) item existed; inPlace reports
// which path ran. A not-found Update leaves the tree untouched.
func (t *Tree) Update(oldRect, newRect geom.Rect, id int64) (inPlace, found bool) {
	if err := t.checkRect(oldRect); err != nil {
		return false, false
	}
	if err := t.checkRect(newRect); err != nil {
		return false, false
	}
	path, idx := t.findLeaf(t.root, nil, oldRect, id)
	if path == nil {
		return false, false
	}
	leaf := path[len(path)-1]
	if t.mbr(leaf).Contains(newRect) {
		t.setEntry(leaf, idx, branch{rect: newRect, id: id})
		// Dropping the old position may shrink the leaf's bounding
		// rectangle; retighten every stored MBR along the path.
		t.recomputePathRects(path)
		return true, true
	}
	t.removeEntry(leaf, idx)
	t.size--
	t.condense(path)
	if err := t.Insert(newRect, id); err != nil {
		// Unreachable: newRect passed checkRect above.
		panic("rtree: update reinsertion failed: " + err.Error())
	}
	return false, true
}
