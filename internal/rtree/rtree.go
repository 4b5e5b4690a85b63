// Package rtree implements the R*-tree of Beckmann, Kriegel, Schneider &
// Seeger (SIGMOD 1990), the index the paper's experiments run on ("We
// implemented our method on top of Norbert Beckmann's Version 2
// implementation of the R*-tree"). It provides insertion with forced
// reinsertion, margin-driven node splitting, deletion with tree
// condensation, in-place moves, STR bulk loading, and one traversal each
// for range and best-first nearest-neighbor search (flat.go) — the piece
// specific to this paper: both walk the index as if a safe transformation
// had been applied to every bounding rectangle and data point, without
// materializing the transformed index (paper Section 4, Algorithms 1 and 2).
//
// STR bulk loading (bulkload.go) tiles only the dimensions the distance
// bounds read: a tree told where its coefficient dimensions start
// (Coefficients) leaves the leading ones — the k-index's mean and std —
// out of the sort, so every slab cut separates leaves where pruning
// happens, and it rounds the slab count down so the nodes come out nearly
// full.
//
// Every traversal counts node accesses, the unit the paper uses for "disk
// accesses": one node corresponds to one disk page in the original system.
package rtree

import (
	"fmt"

	"repro/internal/geom"
)

// DefaultMaxEntries is the default node capacity M. With the paper's
// six-dimensional feature vectors (mean, std, two polar DFT coefficients)
// and 8-byte coordinates, a 4 KiB page holds on the order of 40 entries;
// 40 keeps the simulated tree's fan-out faithful to the original setup.
const DefaultMaxEntries = 40

// Item is a spatial datum stored in the tree: a rectangle (possibly
// degenerate, i.e. a point) with a caller-supplied identifier.
type Item struct {
	Rect geom.Rect
	ID   int64
}

// Options configures a Tree.
type Options struct {
	// MaxEntries is the node capacity M. Defaults to DefaultMaxEntries.
	MaxEntries int
	// MinEntries is the minimum fill m. Defaults to 40% of MaxEntries,
	// the value Beckmann et al. found best.
	MinEntries int
	// DisableReinsert turns off R*-tree forced reinsertion, degrading
	// overflow handling to immediate splits (used by the reinsertion
	// ablation benchmark).
	DisableReinsert bool
}

// Tree is an in-memory R*-tree over fixed-dimensionality rectangles.
// It is not safe for concurrent mutation; concurrent read-only searches
// are safe.
type Tree struct {
	dims       int
	maxEntries int
	minEntries int
	reinsert   bool

	root   *node
	height int // number of levels; leaves are level 0
	size   int

	// coeffFrom is the first coefficient dimension (see Coefficients): STR
	// tiles dimensions [coeffFrom, dims). polarPairs is the number of
	// (magnitude, angle) pairs from there on whose Cartesian images the
	// leaves keep, 0 in a tree keeping none.
	coeffFrom, polarPairs int

	// reinsertedAtLevel tracks, within a single insertion, which levels
	// have already had forced reinsertion applied (R*-tree overflow
	// treatment is applied once per level per insertion).
	reinsertedAtLevel map[int]bool
}

// node is one page of the tree, held as columns. lo and hi are its only
// geometry: entry e's bounds are lo[e*dims:(e+1)*dims] and the same run of
// hi, entry-major, which is what the traversals scan, what ChooseSubtree and
// the split read (through zero-copy geom.Rect views) and what EncodeBinary
// writes. A leaf carries ids, an internal node kids, one per entry.
type node struct {
	level  int // 0 for leaves
	lo, hi []float64
	ids    []int64
	kids   []*node
	// cart is, in a leaf of a tree keeping Cartesian images (Coefficients),
	// the image (m*cos a, m*sin a) of every polar dimension pair of every
	// entry's point, entry-major: what a leaf point is compared as, kept so
	// no traversal takes a sine to compare it. It is one more column,
	// written where the bounds are (setEntry) and never serialised.
	cart []float64
}

// branch is an entry outside a node — what an insertion brings, what a
// split, a forced reinsertion, a condensation and a bulk load carry from
// node to node. Its rectangle is a view (of a node's columns, of the
// caller's item) or a private copy; no node keeps one.
type branch struct {
	rect geom.Rect
	kid  *node // non-nil above the leaves
	id   int64 // meaningful at the leaves
}

func (n *node) leaf() bool { return n.level == 0 }

// count returns the number of entries in the node.
func (n *node) count() int {
	if n.leaf() {
		return len(n.ids)
	}
	return len(n.kids)
}

// newNode returns an empty node whose columns have room for the M+1
// entries a node holds at the moment it overflows, so filling it never
// reallocates.
func (t *Tree) newNode(level int) *node {
	room := t.maxEntries + 1
	n := &node{
		level: level,
		lo:    make([]float64, 0, room*t.dims),
		hi:    make([]float64, 0, room*t.dims),
	}
	if level > 0 {
		n.kids = make([]*node, 0, room)
		return n
	}
	n.ids = make([]int64, 0, room)
	if t.polarPairs > 0 {
		n.cart = make([]float64, 0, room*2*t.polarPairs)
	}
	return n
}

// rect returns entry i's bounds as a view of the node's columns: reading
// it reads the node, and it is only good until the node's next write.
func (t *Tree) rect(n *node, i int) geom.Rect {
	a, b := i*t.dims, (i+1)*t.dims
	return geom.Rect{Lo: n.lo[a:b:b], Hi: n.hi[a:b:b]}
}

// branchAt returns entry i of n as a branch whose rectangle is a view.
func (t *Tree) branchAt(n *node, i int) branch {
	b := branch{rect: t.rect(n, i)}
	if n.leaf() {
		b.id = n.ids[i]
	} else {
		b.kid = n.kids[i]
	}
	return b
}

// branches returns every entry of n, in order, as views.
func (t *Tree) branches(n *node) []branch {
	out := make([]branch, n.count())
	for i := range out {
		out[i] = t.branchAt(n, i)
	}
	return out
}

// setEntry writes entry i of n — bounds, id or child and, in a leaf of a
// tree keeping them, the Cartesian image. It is the only place an entry is
// written, so the columns cannot disagree. b's rectangle must not be a view
// of another entry of n.
func (t *Tree) setEntry(n *node, i int, b branch) {
	copy(n.lo[i*t.dims:(i+1)*t.dims], b.rect.Lo)
	copy(n.hi[i*t.dims:(i+1)*t.dims], b.rect.Hi)
	if !n.leaf() {
		n.kids[i] = b.kid
		return
	}
	n.ids[i] = b.id
	if t.polarPairs > 0 {
		p := b.rect.Lo[t.coeffFrom:]
		out := n.cart[i*2*t.polarPairs:]
		for j := 0; j < t.polarPairs; j++ {
			out[2*j], out[2*j+1] = geom.PolarToRect(p[2*j], p[2*j+1])
		}
	}
}

// resize sets the number of entries n holds, keeping the first c of them
// when it shrinks and leaving the new ones to setEntry when it grows.
func (t *Tree) resize(n *node, c int) {
	n.lo = grow(n.lo, c*t.dims)
	n.hi = grow(n.hi, c*t.dims)
	if !n.leaf() {
		n.kids = grow(n.kids, c)
		return
	}
	n.ids = grow(n.ids, c)
	if t.polarPairs > 0 {
		n.cart = grow(n.cart, c*2*t.polarPairs)
	}
}

// grow returns s with length n, reallocating only when a node that was
// decoded at its exact size takes its first new entry.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
}

// appendEntry adds b as n's last entry.
func (t *Tree) appendEntry(n *node, b branch) {
	c := n.count()
	t.resize(n, c+1)
	t.setEntry(n, c, b)
}

// fill makes bs the entries of n, in order. The rectangles may be views of
// another node, not of n.
func (t *Tree) fill(n *node, bs []branch) *node {
	t.resize(n, len(bs))
	for i, b := range bs {
		t.setEntry(n, i, b)
	}
	return n
}

// removeEntry deletes entry i of n, keeping the order of the rest.
func (t *Tree) removeEntry(n *node, i int) {
	c := n.count()
	copy(n.lo[i*t.dims:], n.lo[(i+1)*t.dims:])
	copy(n.hi[i*t.dims:], n.hi[(i+1)*t.dims:])
	if n.leaf() {
		copy(n.ids[i:], n.ids[i+1:])
		if cw := 2 * t.polarPairs; cw > 0 {
			copy(n.cart[i*cw:], n.cart[(i+1)*cw:])
		}
	} else {
		copy(n.kids[i:], n.kids[i+1:])
		n.kids[c-1] = nil
	}
	t.resize(n, c-1)
}

// childIndex returns the position of child among parent's entries.
func childIndex(parent, child *node) int {
	for i, k := range parent.kids {
		if k == child {
			return i
		}
	}
	panic("rtree: internal error: child not found in its parent")
}

// Coefficients declares dimensions [from, dims) the coefficient dimensions,
// the ones distance bounds read; the ones before them are carried but
// bounded by no traversal's geometry. BulkLoad then tiles only the
// coefficient dimensions. With polar set, the coefficient dimensions are
// (magnitude, angle) pairs and every leaf keeps, beside its bounds, the
// Cartesian image of each pair of its points (see node.cart); existing
// leaves are brought up to date. The k-index declares its schema's
// coefficients once, when it wraps the tree. A tree with no declaration
// tiles every dimension and keeps no images.
func (t *Tree) Coefficients(from int, polar bool) {
	if from < 0 || from >= t.dims {
		panic(fmt.Sprintf("rtree: coefficient dimensions from %d in a %d-dimensional tree", from, t.dims))
	}
	t.coeffFrom, t.polarPairs = from, 0
	if !polar {
		return
	}
	t.polarPairs = (t.dims - from) / 2
	var walk func(n *node)
	walk = func(n *node) {
		if !n.leaf() {
			for _, k := range n.kids {
				walk(k)
			}
			return
		}
		c, cw := n.count(), 2*t.polarPairs
		n.cart = make([]float64, c*cw, (t.maxEntries+1)*cw)
		for i := 0; i < c; i++ {
			t.setEntry(n, i, t.branchAt(n, i))
		}
	}
	walk(t.root)
}

// mbr returns the minimum bounding rectangle of n's entries, a fresh copy.
func (t *Tree) mbr(n *node) geom.Rect {
	c := n.count()
	if c == 0 {
		return geom.Rect{}
	}
	r := t.rect(n, 0).Clone()
	for i := 1; i < c; i++ {
		r.UnionInPlace(t.rect(n, i))
	}
	return r
}

// New creates an empty R*-tree for rectangles with the given number of
// dimensions.
func New(dims int, opts Options) (*Tree, error) {
	if dims < 1 {
		return nil, fmt.Errorf("rtree: dimensions must be >= 1, got %d", dims)
	}
	maxE := opts.MaxEntries
	if maxE == 0 {
		maxE = DefaultMaxEntries
	}
	if maxE < 4 {
		return nil, fmt.Errorf("rtree: MaxEntries must be >= 4, got %d", maxE)
	}
	minE := opts.MinEntries
	if minE == 0 {
		minE = (maxE * 2) / 5 // 40%
		if minE < 2 {
			minE = 2
		}
	}
	if minE < 1 || minE > maxE/2 {
		return nil, fmt.Errorf("rtree: MinEntries %d out of range [1, %d]", minE, maxE/2)
	}
	t := &Tree{
		dims:       dims,
		maxEntries: maxE,
		minEntries: minE,
		reinsert:   !opts.DisableReinsert,
		height:     1,
	}
	t.root = t.newNode(0)
	return t, nil
}

// MustNew is New for static configurations known to be valid; it panics on
// error.
func MustNew(dims int, opts Options) *Tree {
	t, err := New(dims, opts)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of items stored.
func (t *Tree) Len() int { return t.size }

// Dims returns the dimensionality of the tree.
func (t *Tree) Dims() int { return t.dims }

// Height returns the number of levels (1 for a tree that is just a leaf).
func (t *Tree) Height() int { return t.height }

// Bounds returns the MBR of all stored items. The zero Rect is returned for
// an empty tree.
func (t *Tree) Bounds() geom.Rect {
	if t.size == 0 {
		return geom.Rect{}
	}
	return t.mbr(t.root)
}

func (t *Tree) checkRect(r geom.Rect) error {
	if r.Dims() != t.dims {
		return fmt.Errorf("rtree: rectangle has %d dims, tree has %d", r.Dims(), t.dims)
	}
	for i := range r.Lo {
		if r.Lo[i] > r.Hi[i] {
			return fmt.Errorf("rtree: rectangle not canonical in dim %d: [%g, %g]", i, r.Lo[i], r.Hi[i])
		}
	}
	return nil
}
