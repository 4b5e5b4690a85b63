package core

import (
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/series"
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

// subsequenceScan is one shard's share of Store.SubsequenceScan: its
// series whose best window is within eps, unsorted.
func (sh *shard) subsequenceScan(q []float64, eps float64, st *ExecStats) ([]SubseqResult, error) {
	var out []SubseqResult
	for _, id := range sh.ids {
		st.Candidates++
		vals, err := sh.timeRel.Get(id)
		if err != nil {
			return nil, err
		}
		off, dist := series.BestSubsequenceMatch(vals, q)
		st.DistanceTerms += int64(len(q)) // window sums, order-of-magnitude accounting
		if dist <= eps {
			out = append(out, SubseqResult{ID: id, Name: sh.name(id), Offset: off, Dist: dist})
		}
	}
	return out, nil
}

// compact rebuilds the shard's paged relations — dropping records orphaned
// by Delete — and repacks its k-index with an STR bulk load over
// the live feature points, undoing the node-occupancy decay of a long
// insert/delete history. Live IDs, names, and feature points are
// untouched. A disk-backed store builds the next relation generation's
// page files alongside the live pair and swaps atomically from the
// caller's perspective; the old generation's scratch files are removed on
// success. Returns the number of pages reclaimed.
func (sh *shard) compact() (pagesReclaimed int, err error) {
	before := sh.timeRel.Pages() + sh.freqRel.Pages()
	newTime, newFreq, err := newRelationPair(sh.opts, sh.gen+1)
	if err != nil {
		return 0, err
	}
	abort := func() {
		newTime.Close()
		newFreq.Close()
	}
	newTime.StartRun(nil)
	newFreq.StartRun(nil)
	// The new relations take the live series in sh.ids order, so series i
	// gets slot i: its record moves there (its position in ids is i already).
	ids := append([]int64(nil), sh.ids...)
	points := make([]geom.Point, len(ids))
	recs := make([]record, len(ids))
	newTime.Reserve(len(ids))
	newFreq.Reserve(len(ids))
	for i, id := range ids {
		vals, err := sh.timeRel.Get(id)
		if err != nil {
			abort()
			return 0, err
		}
		if err := newTime.Insert(id, vals); err != nil {
			abort()
			return 0, err
		}
		spec, err := sh.freqRel.Get(id)
		if err != nil {
			abort()
			return 0, err
		}
		if err := newFreq.Insert(id, spec); err != nil {
			abort()
			return 0, err
		}
		recs[i] = *sh.rec(id)
		points[i] = recs[i].point
	}
	if err := endRuns(newTime, newFreq); err != nil {
		abort()
		return 0, err
	}
	ix, err := index.New(sh.schema, sh.opts.RTree)
	if err != nil {
		abort()
		return 0, err
	}
	if err := ix.BulkLoad(points, ids); err != nil {
		abort()
		return 0, err
	}
	oldTime, oldFreq := sh.timeRel, sh.freqRel
	sh.timeRel, sh.freqRel, sh.recs = newTime, newFreq, recs
	sh.idx = ix
	sh.gen++
	oldTime.Close()
	oldFreq.Close()
	return before - (newTime.Pages() + newFreq.Pages()), nil
}
