package core

import (
	"fmt"
	"math"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/plan"
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
// affine index actions and the filter radius. Like rangePlan it depends only
// on the shared schema and length, so an execution computes one and reuses
// it across every shard; the verification kernels depend on the probe or
// outer row as well, so each worker states them per row (kernel, with q.Left
// and q.Right as the two sides' maps).
//
// mapErr records a transformation with no affine action in this feature
// space (e.g. a translation in S_pol): the scans verify in the frequency
// domain and never need the maps, so such joins stay answerable — the
// planner just pins them to a scan and the index paths refuse.
type joinPlan struct {
	q      JoinQuery
	lm, rm transform.AffineMap
	mapErr error
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
// record of this shard (the outer row may live in another): the record is
// opened once and walked through the outer row's kernels by recordSum, the
// walk verifyFreq makes — lx alone for a self join, whose unordered pair
// costs one comparison D(T x_i, T x_j); lx for D(L x_i, R x_j) and rx for
// D(L x_j, R x_i) in a two-sided join, which verifies both orientations and
// pins the record's pages at most once for the two. Method b abandons each
// walk past eps²; method a reads every term (limit +Inf) and decides on the
// full sum. Matching pairs append to out; the comparisons, their terms and
// — when neither walk opened the record's pages — how many were decided in
// the head accumulate into st.
func (sh *shard) scanInner(jp *joinPlan, outer, inner int64, lx, rx []twin, earlyAbandon bool, pbuf *[][]byte, st *ExecStats, out []JoinPair) ([]JoinPair, error) {
	rv, err := sh.freqRel.View(inner)
	if err != nil {
		return out, err
	}
	eps2, limit := jp.q.Eps*jp.q.Eps, math.Inf(1)
	if earlyAbandon {
		limit = eps2
	}
	kernels, compared := [2][]twin{lx, rx}, 1
	if jp.q.TwoSided {
		compared = 2
	}
	found := len(out)
	var pinned bool
	for c, k := range kernels[:compared] {
		terms, sum, err := sh.recordSum(rv, k, limit, pbuf, &pinned)
		st.DistanceTerms += int64(terms)
		if err != nil {
			return out[:found], err
		}
		if sum > eps2 {
			continue
		}
		switch d := math.Sqrt(sum); {
		case !jp.q.TwoSided:
			out = append(out, orderedPair(outer, inner, d))
		case c == 0: // ordered pair (i, j): D(L x_i, R x_j)
			out = append(out, JoinPair{A: outer, B: inner, Dist: d})
		default: // ordered pair (j, i): D(L x_j, R x_i)
			out = append(out, JoinPair{A: inner, B: outer, Dist: d})
		}
	}
	st.Candidates += compared
	if pinned {
		sh.freqRel.ReleaseView(rv)
	} else {
		st.HeadResolved += compared
	}
	return out, nil
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

// applyBounds maps a store's feature-space MBR through an affine index
// action (the zero rect of an empty store passes through).
func applyBounds(b geom.Rect, m transform.AffineMap) geom.Rect {
	if b.Dims() == 0 || m.Identity() {
		return b
	}
	return m.ApplyRect(b)
}

// joinSampleCap bounds the stored series sampled as probes when a join
// is planned.
const joinSampleCap = 8

// sampleJoin measures what the index-nested-loop join of jp would verify
// and visit: up to joinSampleCap stored series, evenly spaced over the live
// set in ID order, pose their right-transformed feature points to every
// shard's index as count-only range probes, and the counts are scaled to
// one probe per stored series. Self joins verify each unordered pair once,
// so their candidate count halves. The probes run under every shard's
// shared lock when the join is planned and stay out of its ExecStats.
func (s *Store) sampleJoin(jp *joinPlan) plan.JoinInput {
	entries, err := s.pinAll()
	if err != nil {
		return plan.JoinInput{}
	}
	defer s.runlockAll()
	n := len(entries)
	in := plan.JoinInput{Series: n}
	if n < 2 {
		return in
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
			cands, searchStats := target.idx.RangeIDs(tq, jp.radius, jp.lm, feature.MomentBounds{}, true, &sc, buf[:0])
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
	scale := float64(n) / float64(probes)
	in.Candidates = float64(cand) * scale
	if !jp.q.TwoSided {
		in.Candidates /= 2
	}
	in.NodeAccesses = float64(nodes) * scale
	return in
}

// buildJoinPlan resolves the join method for a validated planned join.
// want plan.Auto lets the planner choose among the Table 1 methods on
// cost; anything else forces the corresponding mechanism (answers are
// identical under every choice — canonical once-per-pair self joins,
// ordered-pair two-sided joins).
func buildJoinPlan(q JoinQuery, jp *joinPlan, want plan.Strategy, in plan.JoinInput, shards []int) *plan.Plan {
	choice, est, reason := plan.ChooseJoin(in)
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
		pl.Reason = "forced " + want.String() + " (method " + pl.Method + ") by caller; planner would pick " + choice.String() + " (" + reason + ")"
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
