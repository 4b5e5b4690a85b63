package core

import (
	"fmt"
	"slices"

	"repro/internal/dft"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/rtree"
	"repro/internal/series"
)

// InsertBulk loads a batch of named series into an empty DB, building the
// index with STR bulk loading instead of one-at-a-time insertion. For the
// larger experimental relations (12,000 sequences in Figures 9/11) this is
// an order of magnitude faster to build and produces better-packed nodes
// (see the bulk-load ablation). The DB must be empty; names must be unique
// and non-empty; all series must have the DB length.
func (db *DB) InsertBulk(names []string, values [][]float64) error {
	ids := make([]int64, len(names))
	for i := range ids {
		ids[i] = int64(i)
	}
	return db.insertBulkIDs(names, values, ids, nil)
}

// insertBulkIDs is InsertBulk with caller-chosen IDs (one per series,
// unique). A Sharded store uses it to bulk-load each shard with globally
// unique IDs, passing the feature points it already extracted during
// batch validation so extraction — the dominant bulk-load cost — runs
// once per series; points == nil extracts here instead.
func (db *DB) insertBulkIDs(names []string, values [][]float64, ids []int64, points []geom.Point) error {
	return db.loadBulk(names, values, ids, points, nil, nil, nil)
}

// adoptBulk is the snapshot cold-start load: the relations fill from the
// precomputed energy-ordered spectra (no FFT) and the index is adopted
// from a decoded packed tree (no extraction, no STR sort) — the whole load
// is O(bytes read) plus one validation pass. The tree's leaf IDs must be
// exactly the given ids (the snapshot writer remapped them to dense record
// positions, which are the IDs the loader assigns).
func (db *DB) adoptBulk(names []string, values [][]float64, ids []int64, points []geom.Point, rawVals, specs [][]byte, tree *rtree.Tree) error {
	if tree == nil {
		return fmt.Errorf("core: adoptBulk needs a decoded tree")
	}
	return db.loadBulk(names, values, ids, points, rawVals, specs, tree)
}

// loadBulk is the shared bulk-load body. points == nil extracts features
// here; specs == nil computes spectra with the insert path's FFT, while
// non-nil specs are already-encoded spectrum records (the snapshot's DERV
// bytes, little-endian float64s) stored verbatim; rawVals, when non-nil,
// are the series values in the same encoding and stored verbatim too. A
// raw-only load (values == nil) is the adopt fast path: it never decodes
// a float, so it requires points and specs — everything a rebuild would
// derive from the values. tree, when non-nil, is validated and adopted
// instead of STR bulk loading.
func (db *DB) loadBulk(names []string, values [][]float64, ids []int64, points []geom.Point, rawVals, specs [][]byte, tree *rtree.Tree) error {
	if db.Len() != 0 || db.nextID != 0 {
		return fmt.Errorf("core: InsertBulk requires a fresh DB (have %d live series, %d ever inserted)", db.Len(), db.nextID)
	}
	if len(names) > 0 && values == nil && (rawVals == nil || points == nil || specs == nil) {
		return fmt.Errorf("core: a raw-only bulk load needs raw records, points, and spectra")
	}
	if values != nil && len(names) != len(values) {
		return fmt.Errorf("core: %d names but %d series", len(names), len(values))
	}
	if len(names) != len(ids) {
		return fmt.Errorf("core: %d names but %d ids", len(names), len(ids))
	}
	if specs != nil && len(specs) != len(names) {
		return fmt.Errorf("core: %d names but %d spectra", len(names), len(specs))
	}
	if rawVals != nil && len(rawVals) != len(names) {
		return fmt.Errorf("core: %d names but %d raw value records", len(names), len(rawVals))
	}
	if points == nil {
		points = make([]geom.Point, len(values))
		for i := range values {
			p, err := db.schema.Extract(values[i])
			if err != nil {
				return err
			}
			points[i] = p
		}
	}
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		if name == "" {
			return fmt.Errorf("core: empty series name at position %d", i)
		}
		if seen[name] {
			return fmt.Errorf("core: duplicate series name %q", name)
		}
		seen[name] = true
		if values != nil && len(values[i]) != db.length {
			return fmt.Errorf("core: series %q has length %d, DB expects %d", name, len(values[i]), db.length)
		}
		if rawVals != nil && len(rawVals[i]) != 8*db.length {
			return fmt.Errorf("core: series %q raw record has %d bytes, DB expects %d", name, len(rawVals[i]), 8*db.length)
		}
	}
	if tree != nil {
		if err := db.adoptTree(tree, ids); err != nil {
			return err
		}
	} else if err := db.idx.BulkLoad(points, ids); err != nil {
		return err
	}
	// The record count is known: size the per-record tables once, not by
	// doubling inside the loop.
	db.timeRel.Reserve(len(names))
	db.freqRel.Reserve(len(names))
	db.recs = slices.Grow(db.recs, len(names))
	db.streams = slices.Grow(db.streams, len(names))
	db.ids = slices.Grow(db.ids, len(names))
	// Raw records transfer ownership (InsertOwned): the snapshot read
	// allocated them for this load, so a memory-backed relation adopts
	// the buffers as its pages without copying.
	for i, name := range names {
		id := ids[i]
		var err error
		if rawVals != nil {
			err = db.timeRel.InsertOwned(id, rawVals[i])
		} else {
			err = db.timeRel.Insert(id, values[i])
		}
		if err != nil {
			return err
		}
		if specs != nil {
			if len(specs[i]) != 2*8*db.length {
				return fmt.Errorf("core: series %q spectrum record has %d bytes, DB expects %d", name, len(specs[i]), 2*8*db.length)
			}
			err = db.freqRel.InsertOwned(id, specs[i])
		} else {
			spec := dft.TransformReal(series.NormalForm(values[i]))
			err = db.freqRel.Insert(id, relation.EncodeComplex(relation.Permute(spec, db.perm)))
		}
		if err != nil {
			return err
		}
		db.addRecord(id, name, points[i])
	}
	return nil
}

// adoptTree validates a decoded packed tree against the load — structural
// invariants (index.Adopt) plus exact leaf-ID membership — and installs it
// as the DB's k-index.
func (db *DB) adoptTree(tree *rtree.Tree, ids []int64) error {
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
	ix, err := index.Adopt(db.schema, tree)
	if err != nil {
		return err
	}
	db.idx = ix
	return nil
}
