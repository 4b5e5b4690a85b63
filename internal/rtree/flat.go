package rtree

import (
	"math"

	"repro/internal/geom"
)

// This file is the read path: the range and nearest-neighbor traversals,
// which test all <=M entries of a node in one tight loop over its bounds
// columns, with caller-owned scratch so steady-state queries allocate
// nothing; the full scan All; and Materialize.

// SearchStats counts the work done by one traversal. NodesVisited is the
// number the paper reports as "disk accesses": one node is one page.
type SearchStats struct {
	NodesVisited  int
	EntriesTested int
}

// FlatMap is the per-dimension affine action y_i = C[i]*x_i + D[i] a
// traversal applies to every node's bounds — the same map transform.AffineMap
// describes, restated here so the tree stays free of transform imports.
// Angular flags circle-valued dimensions for the overlap predicate (tested
// modulo 2*pi); Identity short-circuits the transform entirely, letting
// traversals read the nodes' columns in place.
type FlatMap struct {
	C, D     []float64
	Angular  []bool
	Identity bool
}

// Scratch is the reusable working memory of one batch traversal: the DFS
// stack, the transformed-slab buffer, the NN node queue, the sorted items of
// the leaf the NN walk is expanding (at most M), and the batch distance
// buffer. A Scratch may be reused across any number of traversals, but never
// concurrently.
type Scratch struct {
	stack []*node
	tbuf  []float64
	heap  []flatHeapEntry
	leaf  []flatLeafItem
	far   []flatFarItem
	dists []float64
}

// FlatVisitor consumes the surviving leaf entries of a batch range
// traversal. tlo and thi are the entry's transformed corners — views into
// traversal scratch, valid only for the duration of the call (leaf entries
// are typically degenerate, making tlo the transformed point). cart is the
// entry's untransformed Cartesian block entry in a tree keeping them
// (Coefficients), nil otherwise; pre is its prefix in a tree keeping one
// (Prefix), empty otherwise — both views of the leaf. Returning false stops
// the traversal.
type FlatVisitor interface {
	VisitFlat(id int64, tlo, thi, cart []float64, pre []complex128) bool
}

// FlatNNVisitor consumes the items of a batch nearest-neighbor traversal
// leaf by leaf: leaves arrive in ascending order of their lower bound, and a
// leaf's items in ascending order of their distance. Returning false ends
// the traversal. A visitor without NearBound (FlatNNBounder) sees every item
// of each leaf the traversal expands until it returns false.
type FlatNNVisitor interface {
	VisitNear(id int64, distSq float64) bool
}

// FlatNNBounder is a FlatNNVisitor that knows its stop line: NearBound
// returns the squared distance beyond which nothing is of use to it right
// now (+Inf while everything is). The bound may only tighten while a
// traversal runs. An item reaches VisitNear only while it is within the
// bound, read before each item; a node beyond it is never queued, and the
// first one popped beyond it ends the traversal.
type FlatNNBounder interface {
	FlatNNVisitor
	NearBound() float64
}

// PrefixTest is an optional FlatNNVisitor method set. FarPrefix reports
// whether a leaf item, by its prefix (Prefix) alone, is of no use to the
// visitor: the number of prefix terms that decided so, 0 when it may be of
// use. NearestFlat asks it of every item of a popped leaf within the
// visitor's bound, in entry order. A far item never reaches VisitNear; the
// walk accounts for it as though it had taken its turn in the leaf's
// ascending order, after the items at its own distance: the far items that
// turn would have found within the bound reach VisitFar, once a leaf, as
// their count and their terms summed. So the visitor accounts for exactly
// the items the walk would have handed it.
type PrefixTest interface {
	FarPrefix(pre []complex128) int
	VisitFar(items, terms int)
}

// FlatNNKernel supplies the geometry of a batch nearest-neighbor
// traversal: batched lower bounds over transformed child rectangles and
// batched exact (partial) distances over leaf points. Both receive
// entry-major blocks and must fill out[:count].
type FlatNNKernel interface {
	// LowerBatch lower-bounds the distance from the query to anything
	// inside each transformed rectangle (lo/hi corner blocks of count*dims
	// values).
	LowerBatch(lo, hi []float64, count, dims int, out []float64)
	// PointBatch computes the exact per-item distance for each leaf point,
	// given as count runs of stride values: the leaf's Cartesian block in a
	// tree keeping them (Coefficients) — untransformed; the map acts on a
	// complex number as one multiplication, which is the kernel's to apply —
	// and otherwise the transformed points (the lo corners of degenerate
	// rectangles).
	PointBatch(pts []float64, count, stride int, out []float64)
}

// transformSlab maps a node's bounds columns through (C, D), mirroring
// transform.AffineMap.ApplyRect exactly: per dimension y = c*x + d with
// corner swap where a negative stretch flips the interval, and no angular
// renormalization.
func transformSlab(srcLo, srcHi, dstLo, dstHi []float64, count, dims int, C, D []float64) {
	for e := 0; e < count; e++ {
		off := e * dims
		for j := 0; j < dims; j++ {
			c, d := C[j], D[j]
			lo := c*srcLo[off+j] + d
			hi := c*srcHi[off+j] + d
			if lo > hi {
				lo, hi = hi, lo
			}
			dstLo[off+j], dstHi[off+j] = lo, hi
		}
	}
}

// flatOverlaps is the rectangle overlap test over slab views: linear
// interval intersection everywhere except the angular dimensions, which
// wrap modulo 2*pi, so boxes adjacent across the ±pi seam overlap.
func flatOverlaps(lo, hi, qlo, qhi []float64, dims int, angular []bool) bool {
	if angular == nil {
		for j := 0; j < dims; j++ {
			if hi[j] < qlo[j] || qhi[j] < lo[j] {
				return false
			}
		}
		return true
	}
	for j := 0; j < dims; j++ {
		if j < len(angular) && angular[j] {
			if !geom.AngularIntervalsOverlap(lo[j], hi[j], qlo[j], qhi[j]) {
				return false
			}
		} else if hi[j] < qlo[j] || qhi[j] < lo[j] {
			return false
		}
	}
	return true
}

// nodeSlabs resolves a node's transformed corner blocks: the node's own
// columns under an identity map, the scratch buffer otherwise.
func (t *Tree) nodeSlabs(n *node, fm *FlatMap, sc *Scratch) (lows, highs []float64) {
	if fm.Identity {
		return n.lo, n.hi
	}
	half := len(n.lo)
	if cap(sc.tbuf) < 2*half {
		sc.tbuf = make([]float64, 2*half)
	}
	lows, highs = sc.tbuf[:half], sc.tbuf[half:2*half]
	transformSlab(n.lo, n.hi, lows, highs, n.count(), t.dims, fm.C, fm.D)
	return lows, highs
}

// FlatRange implements the search phase of the paper's Algorithm 2: a
// depth-first traversal of the index as if fm had been applied to every
// node rectangle and leaf point — the transformed index I' of Algorithm 1,
// built one node at a time in scratch — that tests all of a node's entries
// against the query box [qlo, qhi] in one tight loop and emits the leaf
// entries whose transformed rectangle overlaps it to v, first entry first.
func (t *Tree) FlatRange(qlo, qhi []float64, fm FlatMap, sc *Scratch, v FlatVisitor) SearchStats {
	var st SearchStats
	dims := t.dims
	sc.stack = append(sc.stack[:0], t.root)
	for len(sc.stack) > 0 {
		n := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		st.NodesVisited++
		c := n.count()
		if c == 0 {
			continue
		}
		lows, highs := t.nodeSlabs(n, &fm, sc)
		if n.leaf() {
			cw := 2 * t.polarPairs
			for e := 0; e < c; e++ {
				st.EntriesTested++
				off := e * dims
				if !flatOverlaps(lows[off:off+dims], highs[off:off+dims], qlo, qhi, dims, fm.Angular) {
					continue
				}
				if !v.VisitFlat(n.ids[e], lows[off:off+dims], highs[off:off+dims], n.cart[e*cw:(e+1)*cw:(e+1)*cw], t.prefixOf(n, e)) {
					return st
				}
			}
			continue
		}
		// Push children in reverse so the first overlapping entry is the
		// next node popped.
		for e := c - 1; e >= 0; e-- {
			st.EntriesTested++
			off := e * dims
			if flatOverlaps(lows[off:off+dims], highs[off:off+dims], qlo, qhi, dims, fm.Angular) {
				sc.stack = append(sc.stack, n.kids[e])
			}
		}
	}
	return st
}

// flatHeapEntry is one queued node of a batch best-first nearest-neighbor
// traversal, keyed by the lower bound of its transformed rectangle.
type flatHeapEntry struct {
	dist float64
	node *node
}

// flatLeafItem is one item of the leaf being expanded, with its distance.
type flatLeafItem struct {
	dist float64
	id   int64
}

// flatFarItem is an item of the leaf being expanded that the visitor's
// PrefixTest called far, with its distance and the terms that decided it.
type flatFarItem struct {
	dist  float64
	terms int
}

func flatHeapPush(h *[]flatHeapEntry, e flatHeapEntry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].dist <= q[i].dist {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

// flatHeapPop removes the root: the last entry takes its place and sifts
// down.
func flatHeapPop(h *[]flatHeapEntry) {
	q := *h
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		if l >= len(q) {
			break
		}
		m := l
		if r < len(q) && q[r].dist < q[l].dist {
			m = r
		}
		if q[i].dist <= q[m].dist {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// NearestFlat is the best-first nearest-neighbor traversal of the paper's
// Section 4 branch-and-bound: a typed binary heap of nodes in caller scratch,
// each node's bounds transformed in one pass, and per-node batched kernel
// calls for lower bounds and item distances. Nodes are popped in ascending
// lower bound. A popped leaf is verified on the spot: its items within the
// visitor's bound, sorted by distance in scratch, reach v nearest first, and
// the first one past the bound (re-read before each item) closes the leaf,
// since the rest of it is farther still. A visitor with a PrefixTest is
// asked about each item within the bound before the sort, in entry order;
// the items it calls far are set aside and counted to VisitFar (see
// PrefixTest). The bound is also read once per
// popped node: a node beyond it ends the traversal (everything still queued
// is at least as far), and its entries beyond it are never queued — the
// bound only tightens, so they could only ever be popped to be refused.
func (t *Tree) NearestFlat(fm FlatMap, kern FlatNNKernel, sc *Scratch, v FlatNNVisitor) SearchStats {
	var st SearchStats
	if t.size == 0 {
		return st
	}
	dims := t.dims
	bounder, _ := v.(FlatNNBounder)
	tester, _ := v.(PrefixTest)
	bound := math.Inf(1)
	sc.heap = append(sc.heap[:0], flatHeapEntry{node: t.root})
	for len(sc.heap) > 0 {
		n, lower := sc.heap[0].node, sc.heap[0].dist
		flatHeapPop(&sc.heap)
		if bounder != nil {
			bound = bounder.NearBound()
		}
		if lower > bound {
			return st
		}
		st.NodesVisited++
		c := n.count()
		if c == 0 {
			continue
		}
		if cap(sc.dists) < c {
			sc.dists = make([]float64, c)
		} else {
			sc.dists = sc.dists[:c]
		}
		if n.leaf() {
			if t.polarPairs > 0 {
				kern.PointBatch(n.cart, c, 2*t.polarPairs, sc.dists)
			} else {
				lows, _ := t.nodeSlabs(n, &fm, sc)
				kern.PointBatch(lows, c, dims, sc.dists)
			}
			sc.leaf, sc.far = sc.leaf[:0], sc.far[:0]
			for e := 0; e < c; e++ {
				st.EntriesTested++
				d := sc.dists[e]
				if d > bound {
					continue
				}
				if tester != nil {
					if terms := tester.FarPrefix(t.prefixOf(n, e)); terms > 0 {
						sc.far = append(sc.far, flatFarItem{dist: d, terms: terms})
						continue
					}
				}
				// Insertion sort: a leaf holds at most M items.
				sc.leaf = append(sc.leaf, flatLeafItem{})
				i := len(sc.leaf) - 1
				for ; i > 0 && sc.leaf[i-1].dist > d; i-- {
					sc.leaf[i] = sc.leaf[i-1]
				}
				sc.leaf[i] = flatLeafItem{dist: d, id: n.ids[e]}
			}
			// last is the distance of the last item handed over: a far item
			// nearer than it took its turn before it, within the bound as
			// it stood then. A farther one takes its turn at the bound
			// that ended the hand-over (closing the leaf or outlasting it),
			// since no item handed over after it could tighten the bound.
			last, stop := math.Inf(-1), false
			for _, it := range sc.leaf {
				if bounder != nil {
					bound = bounder.NearBound()
				}
				if it.dist > bound {
					break
				}
				last = it.dist
				if !v.VisitNear(it.id, it.dist) {
					stop = true
					break
				}
			}
			if len(sc.far) > 0 {
				if bounder != nil && !stop {
					bound = bounder.NearBound()
				}
				items, terms := 0, 0
				for _, f := range sc.far {
					if f.dist < last || !stop && f.dist <= bound {
						items, terms = items+1, terms+f.terms
					}
				}
				if items > 0 {
					tester.VisitFar(items, terms)
				}
			}
			if stop {
				return st
			}
		} else {
			lows, highs := t.nodeSlabs(n, &fm, sc)
			kern.LowerBatch(lows, highs, c, dims, sc.dists)
			for e := 0; e < c; e++ {
				st.EntriesTested++
				if sc.dists[e] > bound {
					continue
				}
				flatHeapPush(&sc.heap, flatHeapEntry{dist: sc.dists[e], node: n.kids[e]})
			}
		}
	}
	return st
}

// All calls visit for every stored item, until it returns false. The
// item's rectangle and prefix are views of the tree, good until the tree's
// next write.
func (t *Tree) All(visit func(Item) bool) {
	if t.size == 0 {
		return
	}
	t.all(t.root, visit)
}

func (t *Tree) all(n *node, visit func(Item) bool) bool {
	for _, kid := range n.kids {
		if !t.all(kid, visit) {
			return false
		}
	}
	for i, id := range n.ids {
		if !visit(Item{Rect: t.rect(n, i), ID: id, Pre: t.prefixOf(n, i)}) {
			return false
		}
	}
	return true
}

// Materialize applies the paper's Algorithm 1 eagerly: it returns a new
// tree whose every node rectangle and data rectangle is the image of this
// tree's under fm, preserving the node structure exactly (same fan-outs,
// same entry order). Used to validate that the on-the-fly traversal visits
// the same candidates, and by the materialized-index ablation benchmark.
func (t *Tree) Materialize(fm FlatMap) *Tree {
	nt := &Tree{
		dims:       t.dims,
		maxEntries: t.maxEntries,
		minEntries: t.minEntries,
		reinsert:   t.reinsert,
		height:     t.height,
		size:       t.size,
		coeffFrom:  t.coeffFrom,
		polarPairs: t.polarPairs,
		prefix:     t.prefix,
	}
	var sc Scratch
	nt.root = t.materializeNode(nt, t.root, &fm, &sc)
	return nt
}

func (t *Tree) materializeNode(nt *Tree, n *node, fm *FlatMap, sc *Scratch) *node {
	out := nt.newNode(n.level)
	lows, highs := t.nodeSlabs(n, fm, sc) // consumed before the scratch is reused below
	for i, c := 0, n.count(); i < c; i++ {
		b := t.branchAt(n, i)
		b.rect = geom.Rect{Lo: lows[i*t.dims : (i+1)*t.dims], Hi: highs[i*t.dims : (i+1)*t.dims]}
		nt.appendEntry(out, b)
	}
	for i, kid := range n.kids {
		out.kids[i] = t.materializeNode(nt, kid, fm, sc)
	}
	return out
}
