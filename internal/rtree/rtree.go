// Package rtree implements the R*-tree of Beckmann, Kriegel, Schneider &
// Seeger (SIGMOD 1990), the index the paper's experiments run on ("We
// implemented our method on top of Norbert Beckmann's Version 2
// implementation of the R*-tree"). It provides insertion with forced
// reinsertion, margin-driven node splitting, deletion with tree
// condensation, range search, nearest-neighbor search with the
// MINDIST/MINMAXDIST pruning of Roussopoulos et al. (RKV95), spatial joins,
// STR bulk loading, and — the piece specific to this paper — transformed
// traversal: searching the index as if a safe transformation had been
// applied to every bounding rectangle and data point, without materializing
// the transformed index (paper Section 4, Algorithms 1 and 2).
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

	// polarFrom and polarPairs describe the (magnitude, angle) dimension
	// pairs whose Cartesian images the leaves keep (see KeepCartesian);
	// polarPairs is 0 in a tree keeping none.
	polarFrom, polarPairs int

	// reinsertedAtLevel tracks, within a single insertion, which levels
	// have already had forced reinsertion applied (R*-tree overflow
	// treatment is applied once per level per insertion).
	reinsertedAtLevel map[int]bool
}

type node struct {
	level   int // 0 for leaves
	entries []entry
	// flat is the node's child MBRs as one contiguous struct-of-arrays
	// slab: all low corners (entry-major), then all high corners. Batch
	// traversals scan this cache-resident block instead of chasing the
	// per-entry geom.Rect headers. Every mutation that changes entries
	// resynchronizes the slab (syncFlat/syncFlatEntry); CheckInvariants
	// verifies the two views agree.
	flat []float64
	// cart is, in a leaf of a tree keeping Cartesian images (KeepCartesian),
	// the image (m*cos a, m*sin a) of every polar dimension pair of every
	// entry's point, entry-major: what a leaf point is compared as, kept so
	// no traversal takes a sine to compare it. It is derived from the
	// entries at exactly the slab's sync sites and never serialised.
	cart []float64
}

type entry struct {
	rect  geom.Rect
	child *node // non-nil for internal nodes
	id    int64 // meaningful for leaf entries
}

func (n *node) leaf() bool { return n.level == 0 }

// KeepCartesian makes every leaf keep, beside its slab, the Cartesian image
// of each (magnitude, angle) dimension pair of its points, for the pairs
// from dimension `from` to the last (see node.cart): the k-index asks for
// it over a polar feature schema. Existing leaves are brought up to date.
func (t *Tree) KeepCartesian(from int) {
	t.polarFrom, t.polarPairs = from, (t.dims-from)/2
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() {
			t.syncCart(n)
			return
		}
		for i := range n.entries {
			walk(n.entries[i].child)
		}
	}
	walk(t.root)
}

// syncFlat rebuilds a node's flat MBR slab (and a leaf's Cartesian block)
// from the entries, reusing the backing arrays when capacity allows.
func (t *Tree) syncFlat(n *node) {
	dims := t.dims
	c := len(n.entries)
	need := 2 * c * dims
	if cap(n.flat) < need {
		n.flat = make([]float64, need)
	} else {
		n.flat = n.flat[:need]
	}
	lows, highs := n.flat[:c*dims], n.flat[c*dims:]
	for i := range n.entries {
		copy(lows[i*dims:(i+1)*dims], n.entries[i].rect.Lo)
		copy(highs[i*dims:(i+1)*dims], n.entries[i].rect.Hi)
	}
	t.syncCart(n)
}

// syncCart rebuilds a leaf's Cartesian block from the entries.
func (t *Tree) syncCart(n *node) {
	if t.polarPairs == 0 || !n.leaf() {
		return
	}
	need := len(n.entries) * 2 * t.polarPairs
	if cap(n.cart) < need {
		n.cart = make([]float64, need)
	} else {
		n.cart = n.cart[:need]
	}
	for i := range n.entries {
		t.syncCartEntry(n, i)
	}
}

// syncCartEntry rewrites one leaf entry's cells of the Cartesian block.
func (t *Tree) syncCartEntry(n *node, i int) {
	p := n.entries[i].rect.Lo[t.polarFrom:]
	out := n.cart[i*2*t.polarPairs:]
	for j := 0; j < t.polarPairs; j++ {
		out[2*j], out[2*j+1] = geom.PolarToRect(p[2*j], p[2*j+1])
	}
}

// syncFlatEntry rewrites one entry's slab cells (and, in a leaf, its
// Cartesian block entry) after an in-place rectangle change that did not
// alter the entry count.
func (t *Tree) syncFlatEntry(n *node, i int) {
	dims := t.dims
	c := len(n.entries)
	if len(n.flat) != 2*c*dims {
		t.syncFlat(n)
		return
	}
	copy(n.flat[i*dims:(i+1)*dims], n.entries[i].rect.Lo)
	copy(n.flat[(c+i)*dims:(c+i+1)*dims], n.entries[i].rect.Hi)
	if t.polarPairs > 0 && n.leaf() {
		t.syncCartEntry(n, i)
	}
}

func (n *node) mbr() geom.Rect {
	if len(n.entries) == 0 {
		return geom.Rect{}
	}
	r := n.entries[0].rect.Clone()
	for _, e := range n.entries[1:] {
		r.UnionInPlace(e.rect)
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
	return &Tree{
		dims:       dims,
		maxEntries: maxE,
		minEntries: minE,
		reinsert:   !opts.DisableReinsert,
		root:       &node{level: 0},
		height:     1,
	}, nil
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
	return t.root.mbr()
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
