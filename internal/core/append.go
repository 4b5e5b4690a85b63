package core

import (
	"fmt"
	"math"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/transform"
)

// AppendInfo reports what one Append committed.
type AppendInfo struct {
	// ID is the series' stable internal ID: unlike Update, Append never
	// reassigns it.
	ID int64
	// Point is the committed feature point after the append (a copy the
	// caller may keep; the server layer feeds it to monitor prefilters and
	// cache invalidation).
	Point geom.Point
	// InPlace reports that the index entry was rewritten in place rather
	// than deleted and reinserted — the cheap path, taken whenever the
	// feature point moved little.
	InPlace bool
}

// appendPoints slides a stored series' window forward by the given points: the
// oldest len(points) values fall off the front, the new points arrive at
// the back, and the series keeps its length, name, and ID. It is the
// in-place form of an insert: the committed window is read back from the
// time relation, shifted, and put through derive — the one derivation
// insertAt runs, on the same bits — so every stored artifact of the record
// (window, spectrum pages, resident head, feature point) is current and
// history-free after every append, and a series built by appends is
// bit-identical to the same window inserted whole. What the append saves
// over Update's remove + insert is the storage and the index work:
//
//   - both records are overwritten in place (relation.Replace), so storage
//     does not grow and no pages are orphaned;
//   - the R*-tree entry moves in place when the feature drifted little
//     (rtree.Tree.Update), instead of a delete + reinsert — the index move
//     is about three fifths of an append's cost, the derivation a third.
//
// Appending more points than the window holds is allowed; only the last
// n survive.
func (sh *shard) appendPoints(name string, points []float64) (AppendInfo, error) {
	id, ok := sh.byName[name]
	if !ok {
		return AppendInfo{}, fmt.Errorf("core: unknown series %q", name)
	}
	if len(points) == 0 {
		return AppendInfo{}, fmt.Errorf("core: append to %q carries no points", name)
	}
	for i, x := range points {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return AppendInfo{}, fmt.Errorf("core: append to %q has non-finite value at position %d", name, i)
		}
	}
	window, err := sh.timeRel.Get(id)
	if err != nil {
		return AppendInfo{}, err
	}
	if n := len(window); len(points) >= n {
		copy(window, points[len(points)-n:])
	} else {
		copy(window, window[len(points):])
		copy(window[n-len(points):], points)
	}
	newPoint, spec, err := sh.derive(window)
	if err != nil {
		return AppendInfo{}, err
	}

	// Commit both records in place (same-length records never change
	// size), then the index: an in-place entry move when the point stayed
	// inside its leaf region.
	if err := sh.timeRel.Replace(id, window); err != nil {
		return AppendInfo{}, err
	}
	if err := sh.freqRel.Replace(id, spec); err != nil {
		return AppendInfo{}, err
	}
	rec := sh.rec(id)
	inPlace, found := sh.idx.Update(id, rec.point, newPoint)
	if !found {
		return AppendInfo{}, fmt.Errorf("core: index entry for %q (id %d) missing", name, id)
	}
	rec.point = newPoint
	return AppendInfo{ID: id, Point: newPoint.Clone(), InPlace: inPlace}, nil
}

// checkWithin verifies a single stored series against a range query
// exactly — the same planning, moment filtering, and full-spectrum
// early-abandoning distance the indexed range query applies to its
// candidates, addressed to one name. The standing-query monitors use it to
// re-verify a series after an append without running the whole query. A
// name not currently stored is simply not within (dist 0, within false):
// monitor semantics treat deletion as leaving the answer set.
func (sh *shard) checkWithin(name string, q RangeQuery) (dist float64, within bool, err error) {
	p, err := sh.planRange(q)
	if err != nil {
		return 0, false, err
	}
	id, ok := sh.byName[name]
	if !ok {
		return 0, false, nil
	}
	if q.Moments != (feature.MomentBounds{}) {
		// Index answers respect the moment bounds via the search rectangle;
		// replicate that here so membership semantics agree.
		mean, std := sh.schema.MomentsOf(sh.rec(id).point)
		mb := q.Moments
		if mean < mb.MeanLo || mean > mb.MeanHi || std < mb.StdLo || std > mb.StdHi {
			return 0, false, nil
		}
	}
	var st ExecStats
	if q.WarpFactor >= 2 {
		within, dist, err = sh.verifyWarp(p, &st, id, q.Eps)
	} else {
		within, dist, err = sh.verifyFreq(&st, nil, id, p.a, p.b, p.Q, q.Eps)
	}
	if err != nil {
		return 0, false, err
	}
	return dist, within, nil
}

// Prefilter is a query's Lemma 1 geometry: its feature point, the
// transformation's affine index action, the mirror weight, and the moment
// bounds — everything needed to run the rectangle test against a single
// stored feature point. Every range and NN plan is built around one; standing
// monitors and cached answers keep one as their membership test. Building it
// costs a feature extraction; each Hit costs O(dims).
type Prefilter struct {
	schema  feature.Schema
	m       transform.AffineMap
	qp      geom.Point
	mw      mirror
	moments feature.MomentBounds
}

// planPrefilter builds a validated query's Lemma 1 geometry. A stored-record
// query (prep non-nil) centers on its indexed point instead of extracting
// one from the values.
func (sh *shard) planPrefilter(q RangeQuery, prep *QueryPrep) (*Prefilter, error) {
	var qp geom.Point
	if prep != nil {
		qp = prep.Point
	} else {
		var err error
		if qp, err = sh.queryFeaturePoint(q); err != nil {
			return nil, err
		}
	}
	m, err := sh.schema.Map(q.Transform)
	if err != nil {
		return nil, err
	}
	if q.BothSides && !m.Identity() {
		// Two-sided semantics: the search centers on the transformed query
		// point, so the filter compares T(x) against T(q).
		qp = m.ApplyPoint(qp)
	}
	// A warped query's spectra live on m*n frequencies, where n-f mirrors
	// nothing: it keeps the paper's bound whatever Transform says.
	mw := mirrorLopsided
	if q.WarpFactor < 2 {
		mw = mirrorWeight(sh.schema.K, sh.length, q.Transform)
	}
	return &Prefilter{
		schema:  sh.schema,
		m:       m,
		qp:      qp,
		mw:      mw,
		moments: q.Moments,
	}, nil
}

// Unbounded returns the prefilter without its moment bounds (itself when it
// carries none): the test matching an execution that ignored them, as the
// scan strategies do.
func (p *Prefilter) Unbounded() *Prefilter {
	if p.moments == (feature.MomentBounds{}) {
		return p
	}
	out := *p
	out.moments = feature.MomentBounds{}
	return &out
}

// Hit reports whether a series whose feature point is p could belong to
// the query's answer set at threshold eps: the transformed point is tested
// against the Section 3.1 search rectangle, with the polar space's
// modulo-2*pi angle semantics. By Lemma 1 a full-spectrum distance within
// eps implies the feature point lies in the rectangle, so a miss soundly
// proves non-membership — no false dismissals, exactly like the index
// filter step.
func (p *Prefilter) Hit(pt geom.Point, eps float64) bool {
	if math.IsInf(eps, 1) {
		return true
	}
	tp := pt
	if !p.m.Identity() {
		tp = p.m.ApplyPoint(pt)
	}
	rect := p.schema.SearchRect(p.qp, p.mw.filterRadius(eps), p.moments)
	return geom.ContainsPointMixed(rect, tp, p.m.Angular)
}

// IndexableRect returns the prefilter's search rectangle at threshold eps
// when — and only when — Hit reduces to rectangle containment of the raw
// feature point: the transformation's affine index action must be the
// identity, so the rectangle is fixed for the query's lifetime. The
// standing-query hub indexes such rectangles in a shared R-tree (one
// spatial probe per write instead of one containment test per monitor);
// prefilters with a non-identity action transform the point before the
// containment test, so their geometry cannot live in a shared tree and ok
// is false.
func (p *Prefilter) IndexableRect(eps float64) (rect geom.Rect, angular []bool, ok bool) {
	if p == nil || !p.m.Identity() || math.IsInf(eps, 1) || eps < 0 {
		return geom.Rect{}, nil, false
	}
	return p.schema.SearchRect(p.qp, p.mw.filterRadius(eps), p.moments), p.m.Angular, true
}
