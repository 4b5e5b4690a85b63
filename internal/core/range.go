package core

import (
	"fmt"
	"math"

	"repro/internal/feature"
	"repro/internal/plan"
	"repro/internal/rtree"
	"repro/internal/series"
	"repro/internal/transform"
)

// RangeQuery describes one similarity range query: find every stored series
// x with D(T(nf(x)), nf(q)) <= Eps, where nf is the normal form and T the
// transformation (paper Section 4's "Query" statement with the pattern
// expression denoting the whole relation).
type RangeQuery struct {
	// Values is the raw query series. Its length must be the store length,
	// except for warped queries where it must be WarpFactor * length.
	Values []float64
	// Eps is the similarity threshold.
	Eps float64
	// Transform is the safe transformation to apply to the stored side;
	// use transform.Identity(n) for plain queries. It must span the store
	// length (n coefficients).
	Transform transform.T
	// Moments optionally restricts the mean/std index dimensions
	// (GK95-style shift/scale bounds). Zero value: unbounded.
	Moments feature.MomentBounds
	// WarpFactor marks Transform as the time-warping transformation with
	// this stretch factor m >= 2: the query series has length m*n and
	// verification happens in the time domain on warped normal forms
	// (Appendix A). 0 or 1 means no warping.
	WarpFactor int
	// BothSides applies Transform to the query as well as the stored
	// series: answers satisfy D(T(nf(x)), T(nf(q))) <= Eps. This is the
	// reading of the paper's motivating examples ("their 3-day moving
	// averages look the same") and of join method (d); the default
	// (false) is the paper's formal one-sided Query statement. Not
	// compatible with WarpFactor.
	BothSides bool
	// ForceTransform routes the traversal through the full transformation
	// machinery even when Transform is the identity. The Figure 8/9
	// experiments measure the overhead of exactly this path against the
	// plain fast path ("the identity transformation was chosen ... the
	// difference between the two curves is only a constant").
	ForceTransform bool
	// Delta is the approximate tier's guaranteed relative error bound
	// (APPROX delta). A range read answers exactly whatever Delta it
	// carries: the exact answer set is already a superset of itself whose
	// members all lie within (1+Delta)*Eps. NN reads relax their stop line
	// by it (see NNQuery.Delta).
	Delta float64
	// Prep, when set, carries the stored-record planning artifacts of a
	// query that is itself a stored series (the by-name entry points and
	// the language's SERIES 'name' clause). The planner then reuses the
	// indexed feature point and the stored half spectrum instead of
	// recomputing the normal form, the feature extraction, and the query
	// FFT from Values — both artifacts are bit-identical to what the
	// recomputation would produce, so plans are unchanged, just cheaper.
	// Ignored for warped queries (their query series is not a stored
	// record's window).
	Prep *QueryPrep
}

// QueryPrep is a stored series' precomputed index-space identity: the
// feature point it is indexed under and the stored half (⌊n/2⌋+1
// coefficients; half.go) of its normal-form spectrum, as assembled by
// Engine.QueryPrep. Both are private copies or immutable snapshots, safe to
// hold across an execution.
type QueryPrep struct {
	Point    []float64
	Spectrum []complex128
}

func (sh *shard) validateRange(q RangeQuery) error {
	if q.Eps < 0 {
		return fmt.Errorf("core: negative eps %g", q.Eps)
	}
	if q.Delta < 0 || math.IsNaN(q.Delta) {
		return fmt.Errorf("core: approx delta must be >= 0, got %g", q.Delta)
	}
	if q.Transform.Dims() != sh.length {
		return fmt.Errorf("core: transformation %s spans %d coefficients, DB length is %d", q.Transform, q.Transform.Dims(), sh.length)
	}
	wantLen := sh.length
	if q.WarpFactor >= 2 {
		wantLen = sh.length * q.WarpFactor
		if q.BothSides {
			return fmt.Errorf("core: BothSides is not compatible with warped queries")
		}
	}
	if len(q.Values) != wantLen {
		return fmt.Errorf("core: query length %d, want %d", len(q.Values), wantLen)
	}
	return nil
}

// prepOf returns what a validated query plans from: the stored record's
// point and half spectrum when the query is one (q.Prep, if it fits this
// store), else one derivation of the literal query series — its feature
// point and the half of its normal form's spectrum, from one transform. A
// warped query derives from its longer series: its own normal-form
// coefficients X_1..X_K are directly comparable to the warp-transformed
// stored coefficients (Appendix A, Equation 18).
func (sh *shard) prepOf(q RangeQuery) (*QueryPrep, error) {
	if p := q.Prep; p != nil && q.WarpFactor < 2 &&
		len(p.Point) == sh.schema.Dims() && len(p.Spectrum) == halfLen(sh.length) {
		return p, nil
	}
	point, half, err := sh.schema.Derive(q.Values, nil)
	if err != nil {
		return nil, err
	}
	return &QueryPrep{Point: point, Spectrum: half}, nil
}

// rangePlan is the query-side preprocessing of Algorithm 2: the query
// feature point, the transformation's affine index action, and the query
// side of verification — its stored half spectrum, from which each
// execution states the kernel, or its normal form for warped queries. None
// of it depends on a store's contents, only on the shared schema and
// length, so a sharded execution computes one plan and reuses it across
// every shard's traversal instead of redoing two FFTs and the feature
// extraction per shard.
type rangePlan struct {
	q RangeQuery
	// The plan's Lemma 1 geometry — query feature point qp, index action m,
	// mirror weight mw — is a Prefilter, so the server can keep exactly the
	// filter an execution ran as its cached answer's invalidation test
	// (ExecStats.Filter) instead of planning the query again.
	*Prefilter
	// Verification precomputation: qn for warped queries; for
	// frequency-domain verification Q, the query's own stored half spectrum
	// — a stored series' record when the query is one (QueryPrep), so
	// planning copies nothing per coefficient. Each execution states the
	// kernel from it into its arena (kernelInto).
	qn []float64
	Q  []complex128
	// relax is the approximate tier's (1+Delta), 1 on an exact plan: it
	// shrinks the NN stop line (stopLine), so the exact plan's test
	// divides through by it as an IEEE identity.
	relax float64
}

// stopLine is where an NN traversal of this plan stops at k-th best
// distance eps, in the units the index hands over: a squared K-coefficient
// partial distance past it proves a full distance past eps. It is the
// plan's filter radius squared — the same Lemma 1 filter a range query
// runs, at a radius that tightens as the search goes — shrunk by the
// approximate tier's (1+delta), so that a skipped candidate certifies
// eps < (1+delta)*D and every reported rank stays within the guarantee.
// Exactly eps^2 on an exact plan at w = 1.
func (p *rangePlan) stopLine(eps float64) float64 {
	r := p.mw.filterRadius(eps) / p.relax
	return r * r
}

// planRange validates q and builds its execution plan.
func (sh *shard) planRange(q RangeQuery) (*rangePlan, error) {
	if err := sh.validateRange(q); err != nil {
		return nil, err
	}
	p := &rangePlan{q: q, relax: 1 + q.Delta}
	prep, err := sh.prepOf(q)
	if err != nil {
		return nil, err
	}
	if p.Prefilter, err = sh.planPrefilter(q, prep.Point); err != nil {
		return nil, err
	}
	if q.ForceTransform {
		p.m.Force = true
	}
	if q.WarpFactor >= 2 {
		p.qn = series.NormalForm(q.Values)
		return p, nil
	}
	p.Q = prep.Spectrum
	return p, nil
}

// kernelInto states the plan's frequency-domain verification into dst's
// capacity: stored spectra mapped through the transformation, against the
// query's spectrum — mapped through it too when the query is two-sided.
// Executions build it in their arena, a few hundred nanoseconds at n = 256,
// so a plan holds nothing per stored coefficient beyond the query's own
// spectrum.
func (p *rangePlan) kernelInto(dst []twin) []twin {
	qside := transform.CachedIdentity(p.q.Transform.Dims())
	if p.q.BothSides {
		qside = p.q.Transform
	}
	return kernel(dst, p.q.Transform, qside, p.Q)
}

// verifyWarp is the post-processing step of Algorithm 2 for warped
// queries: exact distance in the time domain on warped normal forms with
// early abandoning. Every length-preserving transformation verifies in the
// frequency domain instead (verifyFreq).
func (sh *shard) verifyWarp(p *rangePlan, st *ExecStats, id int64, eps float64) (bool, float64, error) {
	raw, err := sh.timeRel.Get(id)
	if err != nil {
		return false, 0, err
	}
	warped := series.Warp(series.NormalForm(raw), p.q.WarpFactor)
	within, terms := series.EuclideanWithin(warped, p.qn, eps)
	st.DistanceTerms += int64(terms)
	if !within {
		return false, 0, nil
	}
	return true, series.EuclideanDistance(warped, p.qn), nil
}

// verify is the post-processing step of Algorithm 2 for one candidate,
// whichever strategy found it: an exact, early-abandoning distance within
// eps over the stored record — in the time domain for a warped plan
// (verifyWarp), over the stored spectrum through the arena's kernel
// otherwise (verifyFreq). It is the one place a range or NN read chooses
// between them.
func (sh *shard) verify(p *rangePlan, ar *execArena, st *ExecStats, id int64, eps float64) (Result, bool, error) {
	var (
		within bool
		dist   float64
		err    error
	)
	if p.q.WarpFactor >= 2 {
		within, dist, err = sh.verifyWarp(p, st, id, eps)
	} else {
		within, dist, err = sh.verifyFreq(st, &ar.pages, id, ar.k, eps)
	}
	if err != nil || !within {
		return Result{}, false, err
	}
	return Result{ID: id, Name: sh.name(id), Dist: dist}, true, nil
}

// rangeIDs is the search phase of the paper's Algorithm 2 against this
// shard: the index traversal, applying the transformation to every
// rectangle on the fly (the preprocessing phase is the rangePlan), over the
// index's flat-slab batch traversal into arena scratch. On a
// frequency-domain plan the leaf prefix test (leafTest) resolves the
// candidates verification would dismiss within their first stored
// coefficients before their IDs are collected. Steady state it allocates
// nothing.
func (sh *shard) rangeIDs(p *rangePlan, ar *execArena, st *ExecStats) []int64 {
	var far rtree.PrefixTest
	if p.q.WarpFactor < 2 {
		ar.lt = leafTest{k: ar.k, limit: p.q.Eps * p.q.Eps, st: st}
		far = &ar.lt
	}
	ids, searchStats := sh.idx.RangeIDsTested(p.qp, p.mw.filterRadius(p.q.Eps), p.m, p.q.Moments, true, far, &ar.sc, ar.ids[:0])
	ar.ids, ar.lt = ids, leafTest{}
	st.NodeAccesses += searchStats.NodesVisited
	return ids
}

// rangeScanTimeInto is the naive baseline: sequentially scan the raw
// time-domain relation, reconstruct each normal form, apply the
// transformation in the time domain, and compute the full distance with no
// early abandoning. It has no approximate tier: answers are exact whatever
// Delta the plan carries.
func (sh *shard) rangeScanTimeInto(p *rangePlan, st *ExecStats, dst []Result) ([]Result, error) {
	st.Filter = p.Prefilter
	q := p.q
	warp := q.WarpFactor >= 2
	qn := series.NormalForm(q.Values)
	if q.BothSides {
		qn = q.Transform.ApplyTime(qn)
	}
	for _, id := range sh.ids {
		st.Candidates++
		raw, err := sh.timeRel.Get(id)
		if err != nil {
			return dst, err
		}
		var tx []float64
		if warp {
			tx = series.Warp(series.NormalForm(raw), q.WarpFactor)
		} else {
			tx = q.Transform.ApplyTime(series.NormalForm(raw))
		}
		st.DistanceTerms += int64(len(tx))
		if d := series.EuclideanDistance(tx, qn); d <= q.Eps {
			dst = append(dst, Result{ID: id, Name: sh.name(id), Dist: d})
		}
	}
	return dst, nil
}

// runRange runs a range plan's resolved strategy against this shard,
// appending verified answers to dst and accumulating costs into st. The
// index and the frequency-domain scan — the stronger of the paper's two
// scan baselines ("the distance computation process can skip many
// sequences within the first few coefficients") — are one read that
// differs only in its candidate list: the index's (rangeIDs) or every
// stored id. Each candidate is verified once (verify), through the arena's
// kernel, stated here (empty for a warped plan, which verifies in the time
// domain).
func (sh *shard) runRange(strategy plan.Strategy, p *rangePlan, ar *execArena, st *ExecStats, dst []Result) ([]Result, error) {
	ar.k = p.kernelInto(ar.k)
	var ids []int64
	switch strategy {
	case plan.Index:
		ids = sh.rangeIDs(p, ar, st)
	case plan.ScanFreq:
		ids = sh.ids
	case plan.ScanTime:
		return sh.rangeScanTimeInto(p, st, dst)
	default:
		return dst, fmt.Errorf("core: plan carries unresolved strategy %v", strategy)
	}
	stampPlan(p, st)
	st.Candidates += len(ids)
	for _, id := range ids {
		r, within, err := sh.verify(p, ar, st, id, p.q.Eps)
		if err != nil {
			return dst, err
		}
		if within {
			dst = append(dst, r)
		}
	}
	return dst, nil
}

// stampPlan stamps an execution's stats with what its plan decided: the
// Lemma 1 geometry it filtered with and the approximate tier's delta (0 on
// an exact plan). runRange and runNN call it once per run, whichever
// candidate list the run verifies.
func stampPlan(p *rangePlan, st *ExecStats) {
	st.Filter = p.Prefilter
	st.Delta = p.q.Delta
}
