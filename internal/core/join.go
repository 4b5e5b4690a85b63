package core

import (
	"fmt"
	"math"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/transform"
)

// JoinMethod selects one of the four self-join strategies the paper
// compares in Table 1.
type JoinMethod int

const (
	// JoinScanNaive is method (a): scan the frequency-domain relation,
	// compare every sequence to all sequences after it, applying the
	// transformation during the comparison, with no early abandoning.
	JoinScanNaive JoinMethod = iota
	// JoinScanEarlyAbandon is method (b): as (a), but each distance
	// computation stops as soon as it exceeds eps.
	JoinScanEarlyAbandon
	// JoinIndexPlain is method (c): for every sequence build a search
	// rectangle and pose it to the index as a range query, with no
	// transformation. Each qualifying pair is reported twice (once from
	// each side), matching the paper's answer-set accounting.
	JoinIndexPlain
	// JoinIndexTransform is method (d): as (c), but the transformation is
	// applied to both the index and the search rectangles.
	JoinIndexTransform
)

func (m JoinMethod) String() string {
	switch m {
	case JoinScanNaive:
		return "a (seq scan)"
	case JoinScanEarlyAbandon:
		return "b (seq scan, early abandon)"
	case JoinIndexPlain:
		return "c (index, no transform)"
	case JoinIndexTransform:
		return "d (index, transform)"
	default:
		return fmt.Sprintf("JoinMethod(%d)", int(m))
	}
}

// JoinPair is one joined pair of series with its (transformed) distance.
type JoinPair struct {
	A, B int64
	Dist float64
}

// orderedPair normalizes an unordered scan-join answer so A < B by ID.
// Scan iteration order is arbitrary after deletes (swap-delete), so the
// emission side can no longer guarantee the direction; normalizing keeps
// scan-method output deterministic.
func orderedPair(a, b int64, dist float64) JoinPair {
	if a > b {
		a, b = b, a
	}
	return JoinPair{A: a, B: b, Dist: dist}
}

// JoinQuery describes one planned all-pairs query. A self join (TwoSided
// false, Left == Right) finds every unordered pair {x, y} of distinct
// stored series with D(T(nf(x)), T(nf(y))) <= Eps, reported once with
// A < B; the generalized two-sided join (Section 4) finds every ordered
// pair (x, y), x != y, with D(Left(nf(x)), Right(nf(y))) <= Eps.
//
// Planned joins are the strategy-free statement of the paper's Table 1
// experiment: every execution strategy — the nested scans and the
// index-nested-loop — answers a JoinQuery identically, so the planner
// chooses among them on cost alone. The method-pinned SelfJoin keeps the
// paper's exact per-method accounting (index methods report pairs twice,
// method c ignores the transformation).
type JoinQuery struct {
	Eps         float64
	Left, Right transform.T
	TwoSided    bool
}

// joinPlan is the query-side preprocessing of a planned join: both sides'
// affine index actions and energy-permuted spectrum coefficients. Like
// rangePlan it depends only on the shared schema and length, so an
// execution computes one and reuses it across every shard.
//
// mapErr records a transformation with no affine action in this feature
// space (e.g. a translation in S_pol): the scans verify in the frequency
// domain and never need the maps, so such joins stay answerable — the
// planner just pins them to a scan and the index paths refuse.
type joinPlan struct {
	q      JoinQuery
	lm, rm transform.AffineMap
	mapErr error
	la, lb []complex128
	ra, rb []complex128
	// mw is the join's mirror weight — 2 only when both sides keep the
	// conjugate symmetry — and radius the filter radius every index probe,
	// selectivity sample and invalidation rectangle of the join uses.
	mw     mirror
	radius float64
}

// planJoin validates q and builds its execution plan.
func (sh *shard) planJoin(q JoinQuery) (*joinPlan, error) {
	if err := sh.validateJoin(q.Eps, q.Left); err != nil {
		return nil, err
	}
	if err := sh.validateJoin(q.Eps, q.Right); err != nil {
		return nil, err
	}
	jp := &joinPlan{q: q, mw: mirrorWeight(sh.schema.K, sh.length, q.Left, q.Right)}
	jp.radius = jp.mw.filterRadius(q.Eps)
	jp.la, jp.lb = sh.permuteTransform(q.Left)
	jp.ra, jp.rb = sh.permuteTransform(q.Right)
	var err error
	if jp.lm, err = sh.schema.Map(q.Left); err != nil {
		jp.mapErr = err
	} else if jp.rm, err = sh.schema.Map(q.Right); err != nil {
		jp.mapErr = err
	}
	return jp, nil
}

// selfJoinQuery lifts a method-pinned self join's parameters into the
// planned vocabulary.
func selfJoinQuery(eps float64, t transform.T) JoinQuery {
	return JoinQuery{Eps: eps, Left: t, Right: t}
}

// scanInner is one inner step of the nested scan join, against the inner
// record of this shard (the outer row may live in another): the
// record is opened once and compared with the outer row's precomputed
// transformed spectra — lx alone for a self join, whose unordered pair
// costs one comparison D(T x_i, T x_j); lx and rx for a two-sided join,
// which verifies both orientations. Matching pairs append to out; the
// comparisons, their terms and how many were decided without opening the
// inner record's pages accumulate into st.
func (sh *shard) scanInner(jp *joinPlan, outer, inner int64, lx, rx []complex128, earlyAbandon bool, pbuf *[][]byte, st *ExecStats, out []JoinPair) ([]JoinPair, error) {
	rv, err := sh.freqRel.View(inner)
	if err != nil {
		return out, err
	}
	in := innerSpec{sh: sh, rv: rv, pbuf: pbuf}
	limit := jp.q.Eps * jp.q.Eps
	found, compared := len(out), 1
	if !jp.q.TwoSided {
		sum, terms, ok := in.pairDist(lx, jp.la, jp.lb, limit, earlyAbandon)
		st.DistanceTerms += int64(terms)
		if ok && sum <= limit {
			out = append(out, orderedPair(outer, inner, math.Sqrt(sum)))
		}
	} else {
		compared = 2
		// Ordered pair (i, j): D(L x_i, R x_j).
		sum, terms, ok := in.pairDist(lx, jp.ra, jp.rb, limit, earlyAbandon)
		st.DistanceTerms += int64(terms)
		if ok && sum <= limit {
			out = append(out, JoinPair{A: outer, B: inner, Dist: math.Sqrt(sum)})
		}
		// Ordered pair (j, i): D(L x_j, R x_i).
		sum, terms, ok = in.pairDist(rx, jp.la, jp.lb, limit, earlyAbandon)
		st.DistanceTerms += int64(terms)
		if ok && sum <= limit {
			out = append(out, JoinPair{A: inner, B: outer, Dist: math.Sqrt(sum)})
		}
	}
	if in.err != nil {
		return out[:found], in.err
	}
	st.Candidates += compared
	if in.pages == nil {
		st.HeadResolved += compared
	} else {
		sh.freqRel.ReleaseView(in.rv)
	}
	return out, nil
}

// innerSpec is the inner record of one scan-join step, opened once for the
// one or two comparisons the step makes: its pages are pinned by the first
// comparison that outlives the resident prefix and shared by the second.
type innerSpec struct {
	sh    *shard
	rv    relation.View // its Head is the resident prefix
	pbuf  *[][]byte
	pages [][]byte // non-nil once pinned
	err   error    // a failed page fault; the step's answers are void
}

// pairDist accumulates the squared distance between a precomputed
// transformed outer spectrum and the inner record's coefficients mapped
// through (a, b) — resident prefix as a plain slice, then the pinned tail —
// abandoning past limit when earlyAbandon is set. ok is false only on
// abandonment (or a failed fault, left in in.err), so sum <= limit decides
// membership exactly as the index verifier does.
func (in *innerSpec) pairDist(outer, a, b []complex128, limit float64, earlyAbandon bool) (sum float64, terms int, ok bool) {
	for f, y := range in.rv.Head {
		d := outer[f] - (a[f]*y + b[f])
		sum += real(d)*real(d) + imag(d)*imag(d)
		if earlyAbandon && sum > limit {
			return sum, f + 1, false
		}
	}
	if len(in.rv.Head) == len(outer) || in.err != nil {
		return sum, len(in.rv.Head), in.err == nil
	}
	if in.pages == nil {
		if in.pages, in.err = in.sh.freqRel.ViewPagesInto(in.rv, (*in.pbuf)[:0]); in.err != nil {
			return sum, len(in.rv.Head), false
		}
		*in.pbuf = in.pages
	}
	cur := relation.CursorAt(in.pages, in.sh.freqRel.PageSize(), len(in.rv.Head))
	for f := len(in.rv.Head); f < len(outer); f++ {
		d := outer[f] - (a[f]*cur.Next() + b[f])
		sum += real(d)*real(d) + imag(d)*imag(d)
		if earlyAbandon && sum > limit {
			return sum, f + 1, false
		}
	}
	return sum, len(outer), true
}

func (sh *shard) validateJoin(eps float64, t transform.T) error {
	if eps < 0 {
		return fmt.Errorf("core: negative eps %g", eps)
	}
	if t.Dims() != sh.length {
		return fmt.Errorf("core: transformation %s spans %d coefficients, DB length is %d", t, t.Dims(), sh.length)
	}
	return nil
}

// JoinPrefilter is the dependency geometry of a cached join answer: the
// join's transformed store extents at caching time, against which a
// committed write's feature point is tested. A new or moved series could
// change the join only if some stored series lies within eps of it in the
// full spectra, which by Lemma 1 requires the stored side's transformed
// extent to intersect the eps search rectangle around the written point —
// a miss soundly proves the cached answer unchanged. Retained points are
// absorbed into the extents, so two consecutive far-away writes that are
// close to each other still evict.
//
// Hit mutates the extents and must be externally serialized (the server
// calls it under its cache-invalidation lock).
type JoinPrefilter struct {
	schema   feature.Schema
	angular  []bool
	lm, rm   transform.AffineMap
	radius   float64 // the join's filter radius (joinPlan.radius)
	twoSided bool
	lB, rB   geom.Rect // left-/right-transformed store extents
	// absorbed counts the write points folded into the extents since the
	// prefilter was built or last retagged. Each absorption can only grow
	// the extents, so a long-lived entry under scattered writes drifts
	// toward hitting on everything; the server watches this counter and
	// calls Retag to re-anchor the geometry to the store's real bounds.
	absorbed int
}

func newJoinPrefilter(schema feature.Schema, jp *joinPlan, bounds geom.Rect) *JoinPrefilter {
	return &JoinPrefilter{
		schema:   schema,
		angular:  schema.Angular(),
		lm:       jp.lm,
		rm:       jp.rm,
		radius:   jp.radius,
		twoSided: jp.q.TwoSided,
		lB:       applyBounds(bounds, jp.lm).Clone(),
		rB:       applyBounds(bounds, jp.rm).Clone(),
	}
}

// JoinPrefilter builds the cached-join invalidation geometry across all
// shards (the union of the shard extents).
func (s *Store) JoinPrefilter(q JoinQuery) (*JoinPrefilter, error) {
	jp, err := s.shards[0].planJoin(q)
	if err != nil {
		return nil, err
	}
	if jp.mapErr != nil {
		return nil, jp.mapErr
	}
	bounds, _ := s.featureBounds()
	return newJoinPrefilter(s.Schema(), jp, bounds), nil
}

// Hit reports whether a series committed at feature point pt could pair
// with any series inside the tracked extents. On a miss the point is
// absorbed into the extents — the written series is now part of the
// store the cached answer must be defended against.
func (p *JoinPrefilter) Hit(pt geom.Point) bool {
	rp := pt
	if !p.rm.Identity() {
		rp = p.rm.ApplyPoint(pt)
	}
	// The written series on the probe (right) side against stored
	// left-side points.
	if p.rectHit(rp, p.lB) {
		return true
	}
	lp := rp
	if p.twoSided {
		lp = pt
		if !p.lm.Identity() {
			lp = p.lm.ApplyPoint(pt)
		}
		// And on the left side against stored right-side points.
		if p.rectHit(lp, p.rB) {
			return true
		}
	}
	absorb(&p.lB, lp)
	absorb(&p.rB, rp)
	p.absorbed++
	return false
}

// Absorbed returns the number of write points folded into the extents
// since construction or the last Retag.
func (p *JoinPrefilter) Absorbed() int { return p.absorbed }

// Retag re-anchors the extents to the store's current feature bounds
// (Engine.FeatureBounds), discarding the absorbed write points. The
// absorbed points are live series by the time Retag runs, so the store's
// own MBR covers them — the swap is sound and strictly tighter than the
// accumulated union, which never shrinks on deletes or re-anchors on
// updates. Like Hit, Retag mutates the extents and must be externally
// serialized.
func (p *JoinPrefilter) Retag(bounds geom.Rect) {
	p.lB = applyBounds(bounds, p.lm).Clone()
	p.rB = applyBounds(bounds, p.rm).Clone()
	p.absorbed = 0
}

func (p *JoinPrefilter) rectHit(q geom.Point, bounds geom.Rect) bool {
	if bounds.Dims() == 0 {
		return false // empty store: nothing to pair with
	}
	rect := p.schema.SearchRect(q, p.radius, feature.MomentBounds{})
	return geom.IntersectsMixed(rect, bounds, p.angular)
}

// absorb grows a (possibly empty) extent to cover p.
func absorb(b *geom.Rect, p geom.Point) {
	if b.Dims() == 0 {
		*b = geom.Rect{Lo: p.Clone(), Hi: p.Clone()}
		return
	}
	b.UnionInPlace(geom.PointRect(p))
}

// applyBounds maps a store's feature-space MBR through an affine index
// action (the zero rect of an empty store passes through).
func applyBounds(b geom.Rect, m transform.AffineMap) geom.Rect {
	if b.Dims() == 0 || m.Identity() {
		return b
	}
	return m.ApplyRect(b)
}

// joinSampleCap bounds the stored series sampled as probes when
// estimating a join's per-probe selectivity.
const joinSampleCap = 8

// joinSelectivity estimates the average fraction of stored feature points
// falling in one probe's eps search rectangle: up to joinSampleCap stored
// series, evenly spaced over the sorted ID list, become probes; each is
// transformed through the right-side action and priced with the planner's
// geometric model against the left-transformed store extent — the same
// rectangle-vs-extent comparison the index traversal performs.
func joinSelectivity(ids []int64, point func(int64) (geom.Point, bool), schema feature.Schema, jp *joinPlan, bounds geom.Rect, series int) float64 {
	if len(ids) == 0 {
		return 0
	}
	step := len(ids) / joinSampleCap
	if step < 1 {
		step = 1
	}
	sum, cnt := 0.0, 0
	angular := schema.Angular()
	for i := 0; i < len(ids) && cnt < joinSampleCap; i += step {
		p, ok := point(ids[i])
		if !ok {
			continue
		}
		tq := p
		if !jp.rm.Identity() {
			tq = jp.rm.ApplyPoint(p)
		}
		sum += plan.Selectivity(plan.Input{
			Series:  series,
			Rect:    schema.SearchRect(tq, jp.radius, feature.MomentBounds{}),
			Bounds:  bounds,
			Angular: angular,
		})
		cnt++
	}
	if cnt == 0 {
		return 1
	}
	return sum / float64(cnt)
}

// buildJoinPlan resolves the join method for a validated planned join.
// want plan.Auto lets the planner choose among the Table 1 methods on
// cost; anything else forces the corresponding mechanism (answers are
// identical under every choice — canonical once-per-pair self joins,
// ordered-pair two-sided joins).
func buildJoinPlan(q JoinQuery, jp *joinPlan, want plan.Strategy, in plan.JoinInput, tr *plan.Tracker, shards []int) *plan.Plan {
	choice, est, reason := plan.ChooseJoin(in, tr)
	kind, tstr := "selfjoin", q.Left.String()
	if q.TwoSided {
		kind, tstr = "join", q.Left.String()+" / "+q.Right.String()
	}
	pl := &plan.Plan{
		Kind:      kind,
		Transform: tstr,
		Eps:       q.Eps,
		Strategy:  choice,
		Method:    plan.JoinMethodLetter(choice, in.Identity),
		Reason:    reason,
		Filter:    jp.mw.why,
		Shards:    shards,
		Est:       est,
		Internal:  jp,
	}
	if want != plan.Auto {
		pl.Forced = true
		pl.Strategy = want
		pl.Method = plan.JoinMethodLetter(want, in.Identity)
		pl.Reason = fmt.Sprintf("forced %v (method %s) by caller; planner would pick %v (%s)", want, pl.Method, choice, reason)
	}
	return pl
}

// scanOnlyJoinPlan builds the plan of a join whose transformation has no
// affine index action: the scans still answer it, so the planner pins
// method b (or the forced scan) and only a forced index is an error.
func scanOnlyJoinPlan(q JoinQuery, jp *joinPlan, want plan.Strategy, series int, shards []int) (*plan.Plan, error) {
	if want == plan.Index {
		return nil, jp.mapErr
	}
	kind, tstr := "selfjoin", q.Left.String()
	if q.TwoSided {
		kind, tstr = "join", q.Left.String()+" / "+q.Right.String()
	}
	pl := &plan.Plan{
		Kind:      kind,
		Transform: tstr,
		Eps:       q.Eps,
		Strategy:  plan.ScanFreq,
		Method:    "b",
		Reason:    fmt.Sprintf("scan method b: index unavailable (%v)", jp.mapErr),
		Shards:    shards,
		Est:       plan.Estimate{Series: series},
		Internal:  jp,
	}
	if want != plan.Auto {
		pl.Forced = true
		pl.Strategy = want
		pl.Method = plan.JoinMethodLetter(want, false)
	}
	return pl, nil
}

// joinExploreEvery is the sampling period of the planner's join
// exploration probes: every joinExploreEvery-th unforced scan-routed join
// re-measures the index side with sampled count-only probes.
const joinExploreEvery = 8

// maybeExploreJoin occasionally probes the index after scan-routed joins.
// Like maybeExploreRange, this keeps the join calibration learning while
// scans win the pricing: up to joinSampleCap stored series (evenly spaced
// over the live set) pose their transformed feature points to every shard's
// index as count-only range probes, and the scaled candidate and node counts
// feed the join calibrator. Probe costs stay out of the join's ExecStats
// — planner bookkeeping, not answer work.
func (s *Store) maybeExploreJoin(pl *plan.Plan, jp *joinPlan) {
	if pl.Strategy == plan.Index || pl.Forced || jp.mapErr != nil {
		return
	}
	if s.joinExploreTick.Add(1)%joinExploreEvery != 0 {
		return
	}
	entries := s.pinAll()
	defer s.runlockAll()
	n := len(entries)
	if n < 2 {
		return
	}
	step := max(1, n/joinSampleCap)
	cand, nodes, probes := 0, 0, 0
	var (
		sc  index.Scratch
		buf []int64
	)
	for i := 0; i < n && probes < joinSampleCap; i += step {
		qid := entries[i].id
		tq := entries[i].sh.rec(qid).point
		if !jp.rm.Identity() {
			tq = jp.rm.ApplyPoint(tq)
		}
		for _, target := range s.shards {
			cands, searchStats := target.idx.RangeIDs(tq, jp.radius, jp.lm, feature.MomentBounds{}, !target.opts.DisablePartialPrune, &sc, buf[:0])
			buf = cands
			nodes += searchStats.NodesVisited
			for _, id := range cands {
				if id != qid {
					cand++
				}
			}
		}
		probes++
	}
	// Scale the sample to a full index-nested-loop run: n probes instead
	// of `probes`. Self joins verify each unordered pair once, so their
	// candidate count halves.
	scale := float64(n) / float64(probes)
	scaledCand := float64(cand) * scale
	if !jp.q.TwoSided {
		scaledCand /= 2
	}
	s.tracker.ObserveJoin(pl.Est.Candidates, int(scaledCand), int(float64(nodes)*scale), n)
}
