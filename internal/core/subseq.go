package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/series"
	"repro/internal/stats"
)

// SubseqResult is one subsequence-scan answer: the stored series, the
// offset of its best-matching window, and the window's Euclidean distance
// to the query.
type SubseqResult struct {
	ID     int64
	Name   string
	Offset int
	Dist   float64
}

// SubsequenceScan finds, for every stored series, the contiguous window of
// the query's length nearest to the query (raw values, no normalization),
// returning the series whose best window is within eps — the comparison of
// the paper's Example 1.2 ("the Euclidean distance between p and any
// subsequence of length four of s"), run across the whole relation. This
// is a time-domain scan (the whole-sequence k-index does not index
// subsequences; FRM94's ST-index is the follow-up work that does); inner
// window sums abandon against the best window so far. Results sort by
// distance.
func (db *DB) SubsequenceScan(q []float64, eps float64) ([]SubseqResult, ExecStats, error) {
	var st ExecStats
	if len(q) == 0 || len(q) > db.length {
		return nil, st, fmt.Errorf("core: subsequence query length %d out of range [1, %d]", len(q), db.length)
	}
	if eps < 0 {
		return nil, st, fmt.Errorf("core: negative eps %g", eps)
	}
	timer := stats.StartTimer()
	reads0 := db.pageReads()
	var out []SubseqResult
	for _, id := range db.ids {
		st.Candidates++
		vals, err := db.Series(id)
		if err != nil {
			return nil, st, err
		}
		off, dist := series.BestSubsequenceMatch(vals, q)
		st.DistanceTerms += int64(len(q)) // window sums, order-of-magnitude accounting
		if dist <= eps {
			out = append(out, SubseqResult{ID: id, Name: db.Name(id), Offset: off, Dist: dist})
		}
	}
	sortSubseq(out)
	st.Results = len(out)
	st.PageReads = db.pageReads() - reads0
	st.Elapsed = timer.Elapsed()
	return out, st, nil
}

// Update replaces the values stored under an existing name, reindexing the
// series (equivalent to Delete followed by Insert, preserving the name).
// It returns the new internal ID.
func (db *DB) Update(name string, values []float64) (int64, error) {
	id, ok := db.byName[name]
	if !ok {
		return 0, fmt.Errorf("core: unknown series %q", name)
	}
	// Validate the replacement before touching the stored series, so a
	// rejected update cannot destroy data.
	if len(values) != db.length {
		return 0, fmt.Errorf("core: series %q has length %d, DB expects %d", name, len(values), db.length)
	}
	if _, err := db.schema.Extract(values); err != nil {
		return 0, err
	}
	old, err := db.Series(id)
	if err != nil {
		return 0, err
	}
	db.Delete(name)
	newID, err := db.Insert(name, values)
	if err != nil {
		// Should be unreachable after validation; restore the old series.
		if _, rerr := db.Insert(name, old); rerr != nil {
			return 0, fmt.Errorf("core: update of %q failed (%v) and restore failed: %w", name, err, rerr)
		}
		return 0, err
	}
	return newID, nil
}

// Compact rebuilds the paged relations — dropping records orphaned by
// Delete and Update — and repacks the k-index with an STR bulk load over
// the live feature points, undoing the node-occupancy decay of a long
// insert/delete history. Live IDs, names, and feature points are
// untouched. A disk-backed store builds the next relation generation's
// page files alongside the live pair and swaps atomically from the
// caller's perspective; the old generation's scratch files are removed on
// success. Memory stores keep their configured buffer pools across the
// rebuild. Returns the number of pages reclaimed.
func (db *DB) Compact() (pagesReclaimed int, err error) {
	// Materialize any spectra deferred by streaming appends, so the
	// rebuilt relation holds current records.
	if err := db.flushSpectra(); err != nil {
		return 0, err
	}
	before := db.timeRel.Pages() + db.freqRel.Pages()
	newTime, newFreq, err := newRelationPair(db.opts, db.gen+1)
	if err != nil {
		return 0, err
	}
	abort := func() {
		newTime.Close()
		newFreq.Close()
	}
	if db.opts.BufferPoolPages > 0 && db.opts.Backing == "" {
		if err := newTime.AttachPool(db.opts.BufferPoolPages); err != nil {
			abort()
			return 0, err
		}
		if err := newFreq.AttachPool(db.opts.BufferPoolPages); err != nil {
			abort()
			return 0, err
		}
	}
	// The new relations take the live series in db.ids order, so series i
	// gets slot i: its record moves there (its position in ids is i already).
	ids := append([]int64(nil), db.ids...)
	points := make([]geom.Point, len(ids))
	recs, streams := make([]record, len(ids)), make([]*streamState, len(ids))
	newTime.Reserve(len(ids))
	newFreq.Reserve(len(ids))
	for i, id := range ids {
		vals, err := db.timeRel.Get(id)
		if err != nil {
			abort()
			return 0, err
		}
		if err := newTime.Insert(id, vals); err != nil {
			abort()
			return 0, err
		}
		spec, err := db.freqRel.Get(id)
		if err != nil {
			abort()
			return 0, err
		}
		if err := newFreq.Insert(id, spec); err != nil {
			abort()
			return 0, err
		}
		recs[i], streams[i] = *db.rec(id), *db.stream(id)
		points[i] = recs[i].point
	}
	ix, err := index.New(db.schema, db.opts.RTree)
	if err != nil {
		abort()
		return 0, err
	}
	if err := ix.BulkLoad(points, ids); err != nil {
		abort()
		return 0, err
	}
	oldTime, oldFreq := db.timeRel, db.freqRel
	db.timeRel, db.freqRel, db.recs, db.streams = newTime, newFreq, recs, streams
	db.idx = ix
	db.gen++
	oldTime.Close()
	oldFreq.Close()
	return before - (newTime.Pages() + newFreq.Pages()), nil
}
