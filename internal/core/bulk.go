package core

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/rtree"
)

// loadBulk fills an empty shard with its partition of a bulk load, which
// the store has validated as a whole (names present and unique, lengths
// right) before any shard loads: the index is built with STR bulk loading
// instead of one-at-a-time insertion — for the larger experimental relations
// (12,000 sequences in Figures 9/11) an order of magnitude faster to build,
// and better packed (see the bulk-load ablation). points and specs are what
// derive gave for each series, or a snapshot's DERV section: feature points
// and encoded half-spectrum records (little-endian float64s), the records
// stored verbatim and owned from here on; rawVals, when non-nil, are the
// series values in the same encoding and stored verbatim too (values may
// then be nil: the adopt fast path never decodes a float). tree, when
// non-nil, is a snapshot's packed tree for exactly this partition, validated
// and adopted instead of STR bulk loading — the whole load is then O(bytes
// read) plus one validation pass.
func (sh *shard) loadBulk(names []string, values [][]float64, ids []int64, points []geom.Point, rawVals, specs [][]byte, tree *rtree.Tree) error {
	if tree != nil {
		if err := sh.adoptTree(tree, ids); err != nil {
			return err
		}
	} else if err := sh.idx.BulkLoad(points, ids); err != nil {
		return err
	}
	// The record count is known: size the per-record tables once, not by
	// doubling inside the loop.
	sh.timeRel.Reserve(len(names))
	sh.freqRel.Reserve(len(names))
	sh.recs = slices.Grow(sh.recs, len(names))
	sh.ids = slices.Grow(sh.ids, len(names))
	// Raw records transfer ownership (InsertOwned): the snapshot read or the
	// derivation allocated them for this load, so a memory-backed relation
	// adopts the buffers as its pages without copying.
	for i, name := range names {
		id := ids[i]
		var err error
		if rawVals != nil {
			err = sh.timeRel.InsertOwned(id, rawVals[i])
		} else {
			err = sh.timeRel.Insert(id, values[i])
		}
		if err != nil {
			return err
		}
		if want := 16 * halfLen(sh.length); len(specs[i]) != want {
			return fmt.Errorf("core: series %q spectrum record has %d bytes, DB expects %d", name, len(specs[i]), want)
		}
		if err := sh.freqRel.InsertOwned(id, specs[i]); err != nil {
			return err
		}
		sh.addRecord(id, name, points[i])
	}
	return nil
}

// adoptTree validates a decoded packed tree against the load — structural
// invariants (index.Adopt) plus exact leaf-ID membership — and installs it
// as the shard's k-index.
func (sh *shard) adoptTree(tree *rtree.Tree, ids []int64) error {
	if tree.Len() != len(ids) {
		return fmt.Errorf("core: adopted tree holds %d items, load has %d series", tree.Len(), len(ids))
	}
	want := make(map[int64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	bad := int64(-1)
	tree.All(func(it rtree.Item) bool {
		if !want[it.ID] {
			bad = it.ID
			return false
		}
		delete(want, it.ID)
		return true
	})
	if bad >= 0 {
		return fmt.Errorf("core: adopted tree stores unknown id %d", bad)
	}
	if len(want) != 0 {
		return fmt.Errorf("core: adopted tree is missing %d of the load's ids", len(want))
	}
	ix, err := index.Adopt(sh.schema, tree)
	if err != nil {
		return err
	}
	sh.idx = ix
	return nil
}
