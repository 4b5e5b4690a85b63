package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/dft"
	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/relation"
	"repro/internal/series"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/transform"
)

// spectrumRefreshEvery is the default bound on how many appended points a
// series' stored spectrum record may lag behind its window before Append
// rewrites it with the exact FFT (Options.SpectrumRefreshEvery overrides
// it). Between refreshes the record is marked stale and every read of the
// series' spectrum derives it on demand from the window (the same
// canonical computation, so answers never change) — the ingest path thus
// amortizes the O(n log n) FFT over many O(K) appends.
const spectrumRefreshEvery = 32

// Bounds and recomputation period of the adaptive refresh cadence (the
// default when Options.SpectrumRefreshEvery is not pinned). The cadence
// slides between eager (4, read-heavy stores: reads then always hit fresh
// records and skip on-demand derivation) and lazy (256, append-heavy
// stores: the O(n log n) FFT amortizes over many O(K) appends), retuned
// from the store's cumulative query/append counters every
// adaptiveRefreshPeriod appended points. Answers are byte-identical at
// any cadence — only where the FFT cost lands changes.
const (
	adaptiveRefreshMin    = 4
	adaptiveRefreshMax    = 256
	adaptiveRefreshPeriod = 256
)

// refreshCadence returns the shard's current spectrum-refresh bound: the
// pinned Options.SpectrumRefreshEvery when positive, otherwise the
// adaptive cadence.
func (sh *shard) refreshCadence() int {
	if sh.refreshEvery > 0 {
		return sh.refreshEvery
	}
	return int(sh.adaptiveRefresh.Load())
}

// retuneRefreshCadence recomputes the adaptive cadence from the observed
// workload mix: the append share of all hot-path operations interpolates
// the cadence between the eager and lazy bounds.
func (sh *shard) retuneRefreshCadence() {
	a := float64(sh.appendCount.Load())
	q := float64(sh.queryCount.Load())
	if a+q <= 0 {
		return
	}
	every := adaptiveRefreshMin + int(a/(a+q)*float64(adaptiveRefreshMax-adaptiveRefreshMin))
	if every < adaptiveRefreshMin {
		every = adaptiveRefreshMin
	}
	if every > adaptiveRefreshMax {
		every = adaptiveRefreshMax
	}
	sh.adaptiveRefresh.Store(int64(every))
}

// streamState is the per-series streaming bookkeeping: the incremental
// window tracker plus the staleness of the stored spectrum record.
type streamState struct {
	tr *stream.Tracker
	// specStale marks the freqRel record as lagging the window.
	specStale bool
	// sinceRefresh counts appended points since the record was rewritten.
	sinceRefresh int
	// derived memoizes the on-demand spectrum of the current window while
	// the record is stale, so repeated reads between appends pay the FFT
	// once. Atomic because readers under shared locks memoize
	// concurrently; racing derivations store identical bits, so whichever
	// pointer wins is equivalent. Cleared by every append.
	derived atomic.Pointer[[]complex128]
}

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
// the back, and the series keeps its length, name, and ID. This is the
// streaming-ingest fast path the whole-series Insert/Update pair cannot
// provide:
//
//   - the feature point (mean, std, X_1..X_K of the normal form) is
//     maintained incrementally by a sliding-DFT recurrence in O(K) per
//     point (stream.Tracker), not re-extracted with O(n*K) trigonometry;
//   - the R*-tree entry moves in place when the feature drifted little
//     (rtree.Tree.Update), instead of a delete + reinsert;
//   - the raw window is overwritten in place (relation.Replace), so
//     storage does not grow and no pages are orphaned;
//   - the full-spectrum record is refreshed with the exact FFT only every
//     spectrumRefreshEvery appended points; in between it is marked stale
//     and reads derive the exact spectrum on demand (staleSpectrum).
//
// Every spectrum a query ever observes — whether decoded from a fresh
// record or derived on demand from a stale one — is the same canonical
// computation the insert path runs on the same window bits, so a series
// built by appends answers every query byte-identically to the same
// window inserted whole.
//
// Appending more points than the window holds is allowed; only the last
// n survive, but every point still passes through the tracker so the
// recurrence state stays exact.
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
	st, err := sh.streamStateFor(id)
	if err != nil {
		return AppendInfo{}, err
	}
	for _, x := range points {
		st.tr.Append(x)
	}
	window := st.tr.Window()

	// Commit the raw window in place (same-length records never change
	// size), then the spectrum record — eagerly on the refresh cadence,
	// otherwise just mark it stale.
	if err := sh.timeRel.Replace(id, window); err != nil {
		return AppendInfo{}, err
	}
	st.specStale = true
	st.derived.Store(nil)
	st.sinceRefresh += len(points)
	total := sh.appendCount.Add(uint64(len(points)))
	if sh.refreshEvery <= 0 && total%adaptiveRefreshPeriod < uint64(len(points)) {
		sh.retuneRefreshCadence()
	}
	if st.sinceRefresh >= sh.refreshCadence() {
		if err := sh.refreshSpectrum(id, st, window); err != nil {
			return AppendInfo{}, err
		}
	}

	// Commit the index: incremental feature point, in-place entry move
	// when it stayed inside its leaf region.
	mean, std := st.tr.Moments()
	newPoint := sh.schema.Point(mean, std, st.tr.Coeffs())
	rec := sh.rec(id)
	inPlace, found := sh.idx.Update(id, rec.point, newPoint)
	if !found {
		return AppendInfo{}, fmt.Errorf("core: index entry for %q (id %d) missing", name, id)
	}
	rec.point = newPoint
	return AppendInfo{ID: id, Point: newPoint.Clone(), InPlace: inPlace}, nil
}

// refreshSpectrum rewrites the stored spectrum record from the window —
// the exact computation the insert path runs — and clears staleness.
func (sh *shard) refreshSpectrum(id int64, st *streamState, window []float64) error {
	spec := dft.TransformReal(series.NormalForm(window))
	if err := sh.freqRel.Replace(id, relation.EncodeComplex(relation.Permute(spec, sh.perm))); err != nil {
		return err
	}
	st.specStale = false
	st.sinceRefresh = 0
	st.derived.Store(nil)
	if telemetry.Enabled() {
		telemetry.Count("tsq_spectrum_refreshes_total").Inc()
	}
	return nil
}

// flushSpectra rewrites every stale spectrum record, so operations that
// read records wholesale (compact) see fresh pages.
func (sh *shard) flushSpectra() error {
	for _, id := range sh.ids {
		st := *sh.stream(id)
		if st == nil || !st.specStale {
			continue
		}
		if err := sh.refreshSpectrum(id, st, st.tr.Window()); err != nil {
			return err
		}
	}
	return nil
}

// streamStateFor returns the series' streaming state, materializing the
// tracker from the stored values on the first append (so series loaded
// from snapshots or bulk loads are appendable with no special setup).
func (sh *shard) streamStateFor(id int64) (*streamState, error) {
	st := sh.stream(id)
	if *st != nil {
		return *st, nil
	}
	values, err := sh.timeRel.Get(id)
	if err != nil {
		return nil, err
	}
	tr, err := stream.NewTracker(values, sh.schema.K)
	if err != nil {
		return nil, err
	}
	*st = &streamState{tr: tr}
	return *st, nil
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
