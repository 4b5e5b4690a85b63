package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// BulkLoad builds the tree from scratch with Sort-Tile-Recursive (STR)
// packing over its coefficient dimensions (see strPack). The tree must be
// empty. Bulk loading produces nearly full, low-overlap leaves and is
// dramatically faster than one-at-a-time insertion for the paper's larger
// experiments (up to 12,000 sequences in Figure 9/11); the
// bulk-vs-incremental ablation benchmark quantifies the difference.
func (t *Tree) BulkLoad(items []Item) error {
	if t.size != 0 {
		return fmt.Errorf("rtree: BulkLoad requires an empty tree, have %d items", t.size)
	}
	for _, it := range items {
		if err := t.checkRect(it.Rect); err != nil {
			return err
		}
	}
	if len(items) == 0 {
		return nil
	}

	// The packed nodes copy the bounds, so the branches can view the
	// caller's items; only this slice is reordered.
	bs := make([]branch, len(items))
	for i, it := range items {
		bs[i] = branch{rect: it.Rect, id: it.ID}
	}
	level := 0
	for len(bs) > t.maxEntries {
		nodes := t.strPack(bs, level)
		bs = make([]branch, 0, len(nodes))
		for _, n := range nodes {
			bs = append(bs, branch{rect: t.mbr(n), kid: n})
		}
		level++
	}
	t.root = t.fill(t.newNode(level), bs)
	t.height = level + 1
	t.size = len(items)
	return nil
}

// strPack tiles the entries into nodes of capacity maxEntries over the
// coefficient dimensions [coeffFrom, dims) only (see Coefficients): sort by
// the center of each of them in turn, cutting every one but the last into s
// balanced slabs, then sort each final group by the last and chunk it into
// as few balanced nodes as hold it. For P nodes' worth of entries over d
// tiled dimensions s is ⌊P^(1/d)⌋, at least 1. Rounded down, the slabs
// multiply to at most P, so a final group holds s or more nodes' worth and
// its chunks come out nearly full; rounded up (the textbook ⌈P^(1/d)⌉) they
// multiplied to more than P, and each group of one to two nodes' worth split
// into half-full nodes. The chunks share a group evenly rather than filling
// M and leaving a remainder: packed to capacity, every leaf splits on the
// first point a moving update reinserts into it. A repair pass
// rebalances any under-full trailing node so the R*-tree minimum fill holds
// everywhere.
func (t *Tree) strPack(bs []branch, level int) []*node {
	nodeCount := (len(bs) + t.maxEntries - 1) / t.maxEntries
	slabsPerDim := slabCount(nodeCount, t.dims-t.coeffFrom)
	// byCenter sorts a group stably by the center of dimension d: each
	// (doubled) center is computed once, the (center, position) keys are
	// sorted — the position breaking ties, which is stability — and the
	// branches permuted into that order.
	type key struct {
		c float64
		i int
	}
	keys, tmp := make([]key, len(bs)), make([]branch, len(bs))
	byCenter := func(g []branch, d int) {
		ks := keys[:len(g)]
		for i := range g {
			ks[i] = key{g[i].rect.Lo[d] + g[i].rect.Hi[d], i}
		}
		slices.SortFunc(ks, func(a, b key) int { return cmp.Or(cmp.Compare(a.c, b.c), cmp.Compare(a.i, b.i)) })
		for j, k := range ks {
			tmp[j] = g[k.i]
		}
		copy(g, tmp[:len(g)])
	}

	groups := [][]branch{bs}
	for dim := t.coeffFrom; dim < t.dims-1; dim++ {
		var next [][]branch
		for _, g := range groups {
			byCenter(g, dim)
			next = append(next, splitBalanced(g, slabsPerDim)...)
		}
		groups = next
	}

	var chunks [][]branch
	for _, g := range groups {
		byCenter(g, t.dims-1)
		chunks = append(chunks, splitBalanced(g, (len(g)+t.maxEntries-1)/t.maxEntries)...)
	}
	chunks = t.repairUnderfull(chunks)
	nodes := make([]*node, len(chunks))
	for i, c := range chunks {
		nodes[i] = t.fill(t.newNode(level), c)
	}
	return nodes
}

// slabCount returns ⌊p^(1/d)⌋, at least 1: the floating-point root only
// estimates it (125^(1/3) evaluates to 4.999…), so the integer powers settle
// it.
func slabCount(p, d int) int {
	s := max(1, int(math.Pow(float64(p), 1/float64(d))))
	for powAtMost(s+1, d, p) {
		s++
	}
	for s > 1 && !powAtMost(s, d, p) {
		s--
	}
	return s
}

// powAtMost reports whether s^d <= p, for s >= 1, without overflowing.
func powAtMost(s, d, p int) bool {
	v := 1
	for ; d > 0; d-- {
		if v > p/s {
			return false
		}
		v *= s
	}
	return true
}

// splitBalanced cuts s into at most parts contiguous pieces whose sizes
// differ by at most one. Empty pieces are never produced.
func splitBalanced(s []branch, parts int) [][]branch {
	if parts < 1 {
		parts = 1
	}
	if parts > len(s) {
		parts = len(s)
	}
	out := make([][]branch, 0, parts)
	base := len(s) / parts
	extra := len(s) % parts
	off := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, s[off:off+size])
		off += size
	}
	return out
}

// repairUnderfull enforces the minimum fill on a freshly packed level: an
// under-full chunk either merges with its predecessor (if the union fits in
// one node) or the two rebalance evenly (each half then meets the minimum
// because MinEntries <= MaxEntries/2). A single under-full chunk with no
// predecessor is legal only as the root, which BulkLoad handles by never
// packing a level with a single node. Merged chunks are fresh slices: the
// chunks handed in are windows of one array.
func (t *Tree) repairUnderfull(chunks [][]branch) [][]branch {
	join := func(a, b []branch) []branch {
		return append(append(make([]branch, 0, len(a)+len(b)), a...), b...)
	}
	for i := 1; i < len(chunks); i++ {
		if len(chunks[i]) >= t.minEntries {
			continue
		}
		combined := join(chunks[i-1], chunks[i])
		if len(combined) <= t.maxEntries {
			chunks[i-1] = combined
			chunks = append(chunks[:i], chunks[i+1:]...)
			i--
			continue
		}
		half := len(combined) / 2
		chunks[i-1], chunks[i] = combined[:half], combined[half:]
	}
	// A leading under-full chunk can only be followed by full ones; merge it
	// forward symmetrically.
	if len(chunks) > 1 && len(chunks[0]) < t.minEntries {
		combined := join(chunks[0], chunks[1])
		if len(combined) <= t.maxEntries {
			chunks[1] = combined
			chunks = chunks[1:]
		} else {
			half := len(combined) / 2
			chunks[0], chunks[1] = combined[:half], combined[half:]
		}
	}
	return chunks
}
