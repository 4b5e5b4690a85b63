package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/rtree"
)

// loadBulk fills an empty shard with its partition of a bulk load — the
// series at batch positions at — which the store has validated as a whole
// (names present and unique, lengths right) before any shard loads: the
// index is built with STR bulk loading instead of one-at-a-time insertion —
// for the larger experimental relations (12,000 sequences in Figures 9/11)
// an order of magnitude faster to build, and better packed (see the
// bulk-load ablation). points, specs and times are what deriveBulk gave for
// each series of the batch: feature points, encoded half-spectrum records
// and encoded windows, the records carved from this shard's relations (a
// memory relation adopts them as its pages). A disk-backed shard writes
// both relations' pages in runs. STR packs the index on a goroutine of its
// own while the records go in, and the index's leaf prefixes are filled from
// the heads once both are done.
func (sh *shard) loadBulk(names []string, at []int, points []geom.Point, specs, times [][]byte) error {
	ids, pts := make([]int64, len(at)), make([]geom.Point, len(at))
	for j, i := range at {
		ids[j], pts[j] = int64(i), points[i]
	}
	packed := make(chan error, 1)
	go func() { packed <- sh.idx.BulkLoad(pts, ids) }()
	err := sh.storeBulk(names, at, points, specs, times)
	if perr := <-packed; perr != nil {
		return perr
	}
	if err != nil {
		return err
	}
	sh.idx.FillPrefix(sh.leafPrefix)
	return nil
}

// storeBulk stores a bulk load's records in both relations' page runs and
// enters them in the record directory. The relations' tables were sized
// when the records were carved.
func (sh *shard) storeBulk(names []string, at []int, points []geom.Point, specs, times [][]byte) error {
	sh.recs = slices.Grow(sh.recs, len(at))
	sh.ids = slices.Grow(sh.ids, len(at))
	sh.timeRel.StartRun(nil)
	sh.freqRel.StartRun(nil)
	for _, i := range at {
		id := int64(i)
		err := sh.timeRel.InsertOwned(id, times[i])
		if err == nil {
			err = sh.freqRel.InsertOwned(id, specs[i])
		}
		if err != nil {
			endRuns(sh.timeRel, sh.freqRel)
			return err
		}
		sh.addRecord(id, names[i], points[i])
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
// invariants (index.Adopt), exact leaf-ID membership and every leaf
// rectangle — and installs it as the shard's k-index, its leaf prefixes
// filled from the records' resident heads (the snapshot carries none). The
// fill is the membership check: it looks every leaf ID up in the frequency
// relation, which holds exactly the load's records, so with the counts
// equal an ID it cannot find or meets twice is the only way the sets can
// differ. A leaf rectangle must then be its record's DERV point, bit for
// bit: a SLAB that places a record elsewhere would dismiss it from every
// search that its true point would reach.
func (sh *shard) adoptTree(tree *rtree.Tree, ids []int64) error {
	if tree.Len() != len(ids) || sh.freqRel.Len() != len(ids) {
		return fmt.Errorf("core: adopted tree holds %d items, load has %d series", tree.Len(), len(ids))
	}
	ix, err := index.Adopt(sh.schema, tree)
	if err != nil {
		return err
	}
	seen := make([]bool, len(ids))
	bad := int64(-1)
	ix.FillPrefix(func(id int64) []complex128 {
		slot, ok := sh.freqRel.Slot(id)
		if !ok || seen[slot] {
			bad = id
			return nil
		}
		seen[slot] = true
		return sh.leafPrefix(id)
	})
	if bad >= 0 {
		return fmt.Errorf("core: adopted tree stores id %d, which the load does not hold once", bad)
	}
	var off geom.Rect
	tree.All(func(it rtree.Item) bool {
		if !samePoint(it.Rect, sh.rec(it.ID).point) {
			bad, off = it.ID, it.Rect.Clone()
			return false
		}
		return true
	})
	if bad >= 0 {
		return fmt.Errorf("core: SLAB places id %d at %v, not at its DERV point %v", bad, off, sh.rec(bad).point)
	}
	sh.idx = ix
	return nil
}

// samePoint reports whether r is the point p, bit for bit.
func samePoint(r geom.Rect, p geom.Point) bool {
	if len(r.Lo) != len(p) || len(r.Hi) != len(p) {
		return false
	}
	for i, v := range p {
		b := math.Float64bits(v)
		if math.Float64bits(r.Lo[i]) != b || math.Float64bits(r.Hi[i]) != b {
			return false
		}
	}
	return true
}
