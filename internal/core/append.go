package core

import (
	"fmt"
	"math"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/transform"
)

// Committed is what one single-series write — Insert, Update, Append — left
// in the store, taken under the owning shard's write lock: the one fact a
// write owes the layers above. By Lemma 1 a series sitting at Point can change
// a cached answer or a standing monitor only if Point lands in that answer's
// search rectangle, so the server decides what a write invalidates from this
// value alone and never reads the store back.
type Committed struct {
	// ID is the series' internal ID: fresh for an Insert, unchanged by an
	// Update or an Append.
	ID int64
	// Point is the feature point the index now holds for it (a copy the
	// caller may keep).
	Point geom.Point
}

// overwrite replaces the window stored under a live id, in place: derive —
// the one derivation insertAt runs, on the same bits — then both records
// rewritten where they lie (relation.ReplaceRaw: same-length records never
// change size, so storage does not grow and no page is orphaned) and the
// R*-tree entry moved with the new head's prefix, in place when the point
// stayed inside its leaf region (rtree.Tree.Update). The record keeps its id and its slot, and every stored
// artifact (window, spectrum pages, resident head, feature point) is exactly
// what an insert of the same window writes. A window derive rejects leaves
// the record untouched. It returns the point now indexed.
func (sh *shard) overwrite(id int64, window []float64) (geom.Point, error) {
	r := sh.rec(id)
	p, spec, err := sh.derive(r.name, window, nil)
	if err != nil {
		return nil, err
	}
	if err := sh.timeRel.Replace(id, window); err != nil {
		return nil, err
	}
	if err := sh.freqRel.ReplaceRaw(id, spec); err != nil {
		return nil, err
	}
	if _, found := sh.idx.Update(id, r.point, p, sh.leafPrefix(id)); !found {
		return nil, fmt.Errorf("core: index entry for %q (id %d) missing", r.name, id)
	}
	r.point = p
	return p, nil
}

// appendPoints slides a stored series' window forward by the given points: the
// oldest len(points) values fall off the front, the new points arrive at
// the back, and the series keeps its length, name, and ID. The committed
// window is read back from the time relation, shifted, and overwritten in
// place — so a series built by appends is bit-identical to the same window
// inserted whole, with no history in any stored artifact. The index move is
// about three fifths of an append's cost, the derivation a third.
//
// Appending more points than the window holds is allowed; only the last
// n survive.
func (sh *shard) appendPoints(name string, points []float64) (int64, geom.Point, error) {
	id, ok := sh.byName[name]
	if !ok {
		return 0, nil, fmt.Errorf("core: %w %q", ErrUnknownSeries, name)
	}
	if len(points) == 0 {
		return 0, nil, fmt.Errorf("core: append to %q carries no points", name)
	}
	window, err := sh.timeRel.Get(id)
	if err != nil {
		return 0, nil, err
	}
	if n := len(window); len(points) >= n {
		copy(window, points[len(points)-n:])
	} else {
		copy(window, window[len(points):])
		copy(window[n-len(points):], points)
	}
	p, err := sh.overwrite(id, window)
	return id, p, err
}

// checkWithin verifies a single stored series against a range query
// exactly — the same planning, moment filtering, and full-spectrum
// early-abandoning distance (read off the stored half) the indexed range
// query applies to its candidates, addressed to one name. The
// standing-query monitors use it to re-verify a series after an append
// without running the whole query. A name not currently stored is simply
// not within (dist 0, within false): monitor semantics treat deletion as
// leaving the answer set.
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
		ar := getArena()
		defer putArena(ar)
		ar.k = p.kernelInto(ar.k)
		within, dist, err = sh.verifyFreq(&st, &ar.pages, id, ar.k, q.Eps)
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

// planPrefilter builds a validated query's Lemma 1 geometry around its
// feature point qp (prepOf).
func (sh *shard) planPrefilter(q RangeQuery, qp geom.Point) (*Prefilter, error) {
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
