package rtree

import (
	"fmt"
	"math"
	"sort"
)

// BulkLoad builds the tree from scratch with Sort-Tile-Recursive (STR)
// packing. The tree must be empty. Bulk loading produces tightly packed,
// low-overlap leaves and is dramatically faster than one-at-a-time
// insertion for the paper's larger experiments (up to 12,000 sequences in
// Figure 9/11); the bulk-vs-incremental ablation benchmark quantifies the
// difference.
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

	entries := make([]entry, len(items))
	for i, it := range items {
		entries[i] = entry{rect: it.Rect.Clone(), id: it.ID}
	}
	level := 0
	for len(entries) > t.maxEntries {
		nodes := t.strPack(entries, level)
		entries = make([]entry, 0, len(nodes))
		for _, n := range nodes {
			entries = append(entries, entry{rect: n.mbr(), child: n})
		}
		level++
	}
	t.root = &node{level: level, entries: entries}
	t.syncFlat(t.root)
	t.height = level + 1
	t.size = len(items)
	return nil
}

// strPack tiles the entries into nodes of capacity maxEntries: recursively
// sort by the center of each dimension in turn, slicing into balanced slabs
// sized so that roughly nodeCount^(1/dims) divisions happen per dimension,
// then chunk the final groups into nodes. A repair pass rebalances any
// under-full trailing node so the R*-tree minimum fill holds everywhere.
func (t *Tree) strPack(entries []entry, level int) []*node {
	nodeCount := (len(entries) + t.maxEntries - 1) / t.maxEntries
	slabsPerDim := int(math.Ceil(math.Pow(float64(nodeCount), 1/float64(t.dims))))
	if slabsPerDim < 1 {
		slabsPerDim = 1
	}

	groups := [][]entry{entries}
	for dim := 0; dim < t.dims-1; dim++ {
		var next [][]entry
		for _, g := range groups {
			d := dim
			sort.SliceStable(g, func(i, j int) bool {
				return g[i].rect.Lo[d]+g[i].rect.Hi[d] < g[j].rect.Lo[d]+g[j].rect.Hi[d]
			})
			next = append(next, splitBalanced(g, slabsPerDim)...)
		}
		groups = next
	}

	var nodes []*node
	for _, g := range groups {
		d := t.dims - 1
		sort.SliceStable(g, func(i, j int) bool {
			return g[i].rect.Lo[d]+g[i].rect.Hi[d] < g[j].rect.Lo[d]+g[j].rect.Hi[d]
		})
		chunks := (len(g) + t.maxEntries - 1) / t.maxEntries
		for _, c := range splitBalanced(g, chunks) {
			chunk := make([]entry, len(c))
			copy(chunk, c)
			nodes = append(nodes, &node{level: level, entries: chunk})
		}
	}
	return t.repairUnderfull(nodes)
}

// splitBalanced cuts s into at most parts contiguous pieces whose sizes
// differ by at most one. Empty pieces are never produced.
func splitBalanced(s []entry, parts int) [][]entry {
	if parts < 1 {
		parts = 1
	}
	if parts > len(s) {
		parts = len(s)
	}
	out := make([][]entry, 0, parts)
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
// under-full node either merges with its predecessor (if the union fits in
// one node) or the two rebalance evenly (each half then meets the minimum
// because MinEntries <= MaxEntries/2). A single under-full node with no
// predecessor is legal only as the root, which BulkLoad handles by never
// packing a level with a single node.
func (t *Tree) repairUnderfull(nodes []*node) []*node {
	for i := 1; i < len(nodes); i++ {
		n := nodes[i]
		if len(n.entries) >= t.minEntries {
			continue
		}
		prev := nodes[i-1]
		combined := append(prev.entries, n.entries...)
		if len(combined) <= t.maxEntries {
			prev.entries = combined
			nodes = append(nodes[:i], nodes[i+1:]...)
			i--
			continue
		}
		half := len(combined) / 2
		prev.entries = combined[:half]
		n.entries = append([]entry(nil), combined[half:]...)
	}
	// A leading under-full node can only be followed by full ones; merge it
	// forward symmetrically.
	if len(nodes) > 1 && len(nodes[0].entries) < t.minEntries {
		first, second := nodes[0], nodes[1]
		combined := append(first.entries, second.entries...)
		if len(combined) <= t.maxEntries {
			second.entries = combined
			nodes = nodes[1:]
		} else {
			half := len(combined) / 2
			first.entries = append([]entry(nil), combined[:half]...)
			second.entries = combined[half:]
		}
	}
	for _, n := range nodes {
		t.syncFlat(n)
	}
	return nodes
}
