package rtree

import "repro/internal/geom"

// SearchStats counts the work done by one traversal. NodesVisited is the
// number the paper reports as "disk accesses": one node is one page.
type SearchStats struct {
	NodesVisited  int
	EntriesTested int
}

// Search calls visit for every stored item whose rectangle intersects q.
// Returning false from visit stops the traversal early. It returns
// traversal statistics.
func (t *Tree) Search(q geom.Rect, visit func(Item) bool) SearchStats {
	var st SearchStats
	t.search(t.root, q, visit, &st)
	return st
}

func (t *Tree) search(n *node, q geom.Rect, visit func(Item) bool, st *SearchStats) bool {
	st.NodesVisited++
	for _, e := range n.entries {
		st.EntriesTested++
		if !e.rect.Intersects(q) {
			continue
		}
		if n.leaf() {
			if !visit(Item{Rect: e.rect, ID: e.id}) {
				return false
			}
		} else if !t.search(e.child, q, visit, st) {
			return false
		}
	}
	return true
}

// SearchCollect returns all items intersecting q.
func (t *Tree) SearchCollect(q geom.Rect) ([]Item, SearchStats) {
	var out []Item
	st := t.Search(q, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out, st
}

// All calls visit for every stored item.
func (t *Tree) All(visit func(Item) bool) {
	if t.size == 0 {
		return
	}
	t.all(t.root, visit)
}

func (t *Tree) all(n *node, visit func(Item) bool) bool {
	for _, e := range n.entries {
		if n.leaf() {
			if !visit(Item{Rect: e.rect, ID: e.id}) {
				return false
			}
		} else if !t.all(e.child, visit) {
			return false
		}
	}
	return true
}

// RectTransform maps a bounding rectangle to a bounding rectangle. For the
// paper's safe transformations (Theorems 1-3) the image of an MBR is the
// MBR of the transformed contents, which is what makes Algorithm 2 sound.
type RectTransform func(geom.Rect) geom.Rect

// Overlap decides whether a transformed rectangle intersects the query
// rectangle. A separate predicate (rather than Rect.Intersects) lets the
// polar feature space test its phase-angle dimensions modulo 2*pi.
type Overlap func(transformed, query geom.Rect) bool

// TransformedSearch implements the search phase of the paper's Algorithm 2:
// it traverses the index as if transform had been applied to every node
// rectangle and leaf point — constructing the transformed index I' of
// Algorithm 1 on the fly — and calls visit with each leaf item whose
// *transformed* rectangle overlaps q. The visit callback also receives the
// transformed rectangle so callers can skip recomputation.
//
// If overlaps is nil, plain rectangle intersection is used.
func (t *Tree) TransformedSearch(q geom.Rect, transform RectTransform, overlaps Overlap, visit func(it Item, transformed geom.Rect) bool) SearchStats {
	if overlaps == nil {
		overlaps = func(a, b geom.Rect) bool { return a.Intersects(b) }
	}
	var st SearchStats
	t.transformedSearch(t.root, q, transform, overlaps, visit, &st)
	return st
}

func (t *Tree) transformedSearch(n *node, q geom.Rect, transform RectTransform, overlaps Overlap, visit func(Item, geom.Rect) bool, st *SearchStats) bool {
	st.NodesVisited++
	for _, e := range n.entries {
		st.EntriesTested++
		tr := transform(e.rect)
		if !overlaps(tr, q) {
			continue
		}
		if n.leaf() {
			if !visit(Item{Rect: e.rect, ID: e.id}, tr) {
				return false
			}
		} else if !t.transformedSearch(e.child, q, transform, overlaps, visit, st) {
			return false
		}
	}
	return true
}

// Materialize applies the paper's Algorithm 1 eagerly: it returns a new
// tree whose every node rectangle and data rectangle is the image of this
// tree's under transform, preserving the node structure exactly (same
// fan-outs, same pointers modulo copying). Used to validate that the
// on-the-fly traversal visits the same candidates, and by the
// materialized-index ablation benchmark.
func (t *Tree) Materialize(transform RectTransform) *Tree {
	nt := &Tree{
		dims:       t.dims,
		maxEntries: t.maxEntries,
		minEntries: t.minEntries,
		reinsert:   t.reinsert,
		height:     t.height,
		size:       t.size,
		polarFrom:  t.polarFrom,
		polarPairs: t.polarPairs,
	}
	nt.root = nt.materializeNode(t.root, transform)
	return nt
}

func (nt *Tree) materializeNode(n *node, transform RectTransform) *node {
	out := &node{level: n.level, entries: make([]entry, len(n.entries))}
	for i, e := range n.entries {
		out.entries[i] = entry{rect: transform(e.rect).Canonical(), id: e.id}
		if e.child != nil {
			out.entries[i].child = nt.materializeNode(e.child, transform)
		}
	}
	nt.syncFlat(out)
	return out
}
