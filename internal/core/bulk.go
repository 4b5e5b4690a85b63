package core

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/rtree"
)

// loadBulk fills an empty shard with its partition of a bulk load, which
// the store has validated as a whole (names present and unique, lengths
// right) before any shard loads: the index is built with STR bulk loading
// instead of one-at-a-time insertion — for the larger experimental relations
// (12,000 sequences in Figures 9/11) an order of magnitude faster to build,
// and better packed (see the bulk-load ablation). points and specs are what
// derive gave for each series: feature points and encoded half-spectrum
// records, the records owned from here on (a memory relation adopts them as
// its pages). A disk-backed shard writes both relations' pages in runs.
func (sh *shard) loadBulk(names []string, values [][]float64, ids []int64, points []geom.Point, specs [][]byte) error {
	if err := sh.idx.BulkLoad(points, ids); err != nil {
		return err
	}
	// The record count is known: size the per-record tables once, not by
	// doubling inside the loop.
	sh.timeRel.Reserve(len(names))
	sh.freqRel.Reserve(len(names))
	sh.recs = slices.Grow(sh.recs, len(names))
	sh.ids = slices.Grow(sh.ids, len(names))
	sh.timeRel.StartRun(nil)
	sh.freqRel.StartRun(nil)
	for i, name := range names {
		err := sh.timeRel.Insert(ids[i], values[i])
		if err == nil {
			err = sh.freqRel.InsertOwned(ids[i], specs[i])
		}
		if err != nil {
			endRuns(sh.timeRel, sh.freqRel)
			return err
		}
		sh.addRecord(ids[i], name, points[i])
	}
	return endRuns(sh.timeRel, sh.freqRel)
}

// endRuns ends the page runs of a relation pair, returning the first error.
func endRuns(timeRel, freqRel *relation.Relation) error {
	_, err := timeRel.EndRun()
	if _, ferr := freqRel.EndRun(); err == nil {
		err = ferr
	}
	return err
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
