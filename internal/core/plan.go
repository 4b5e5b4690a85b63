package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/plan"
)

// This file is the engine half of plan-first query execution: the store
// builds first-class plan.Plan values — resolving the index-vs-scan decision
// per query from its own statistics — and executes them, reusing the plan's
// precomputed transforms and spectra so planning is paid once per query, not
// once per strategy probe or shard.
//
// The planner compares the query's Lemma 1 search rectangle against the
// store's feature-space extent (the union of the shards' k-index root MBRs,
// mapped through the query transformation — the exact space the traversal
// intersects in) and calibrates the geometric estimate with an EWMA of
// measured candidate counts fed back after every indexed execution, forced
// or chosen. See package plan for the cost model.

// ShardExec is one shard's share of a fan-out execution — the per-shard
// provenance the merge step records so EXPLAIN can show where cost and
// answers came from and the server can tag cached results.
type ShardExec struct {
	Shard        int
	NodeAccesses int
	PageReads    int64
	Candidates   int
	// HeadResolved is the shard's share of ExecStats.HeadResolved.
	HeadResolved int
	Results      int
	// Elapsed is this shard's wall time inside the fan-out; zero when the
	// execution strides workers across shards instead of fanning per shard
	// (the global nested-scan join).
	Elapsed time.Duration
}

// buildRangePlan resolves the strategy for a validated range query. want
// is the caller's request: plan.Auto lets the planner choose between the
// index and the frequency-domain scan; anything else is forced. Moment-
// bounded queries pin the index even under Auto — the scan baselines
// deliberately ignore mean/std bounds, so the strategies are not
// answer-equivalent there.
func buildRangePlan(q RangeQuery, p *rangePlan, want plan.Strategy, in plan.Input, tr *plan.Tracker, shards []int, kind string) *plan.Plan {
	choice, est, reason := plan.Choose(in, tr)
	pl := &plan.Plan{
		Kind:      kind,
		Transform: q.Transform.String(),
		Eps:       q.Eps,
		Strategy:  choice,
		Reason:    reason,
		Filter:    p.mw.why,
		Rect:      in.Rect,
		Shards:    shards,
		Est:       est,
		Internal:  p,
	}
	switch {
	case want != plan.Auto:
		pl.Forced = true
		pl.Strategy = want
		pl.Reason = fmt.Sprintf("forced %v by caller; planner would pick %v (%s)", want, choice, reason)
	case q.Moments != (feature.MomentBounds{}):
		pl.Strategy = plan.Index
		pl.Reason = "index: moment-bounded query (scan baselines ignore mean/std bounds)"
	}
	attachApprox(pl, p, q.Delta, tr)
	return pl
}

// attachApprox prices the approximate tier on a built plan and installs
// the planner-selected first ladder rung on the engine-side
// precomputation (planRange seeds a cold default; the planner refines it
// from measured resolve depths). The time-domain scan has no approximate
// tier — it answers exactly whatever delta the query carries — so its plan
// prices none and its executions teach that model nothing.
func attachApprox(pl *plan.Plan, p *rangePlan, delta float64, tr *plan.Tracker) {
	if delta <= 0 || pl.Strategy == plan.ScanTime {
		return
	}
	length := 0
	if p.energy > 0 {
		length = len(p.Q)
	}
	plan.AttachApprox(pl, delta, length, tr)
	if pl.Approx != nil && pl.Approx.Rung > 0 {
		p.rung0 = pl.Approx.Rung
	}
}

// PlanRange validates a range query and builds its execution plan — one
// plan for the whole store (the preprocessing depends only on the shared
// schema and length), priced against the union of the shards' feature-space
// extents and the store's own execution feedback; want plan.Auto defers the
// index-vs-scan choice to the planner. The returned plan carries this
// store's precomputed query spectrum and transformation coefficients —
// execute it on the same store with ExecRangeInto.
func (s *Store) PlanRange(q RangeQuery, want plan.Strategy) (*plan.Plan, error) {
	p, err := s.shards[0].planRange(q)
	if err != nil {
		return nil, err
	}
	bounds, height := s.featureBounds()
	in := plan.Input{
		Series:  s.Len(),
		Height:  height,
		LeafCap: s.shards[0].opts.RTree.MaxEntries,
		Angular: s.Schema().Angular(),
		Rect:    s.Schema().SearchRect(p.qp, p.mw.filterRadius(q.Eps), q.Moments),
		Bounds:  applyBounds(bounds, p.m),
	}
	return buildRangePlan(q, p, want, in, s.tracker, plan.AllShards(len(s.shards)), "range"), nil
}

// ExecRangeInto executes a plan built by PlanRange — whatever strategy it
// resolved or was forced to — fanned out to every shard, appending the
// merged answers to dst (pass a [:0] slice to reuse its backing array),
// recording per-shard provenance in the merged ExecStats and feeding
// measured selectivity back to the planner after indexed executions. On a
// one-shard store this is the engine's zero-allocation hot path: the whole
// execution — batch index traversal, page-view verification, sorting,
// planner feedback, history, metrics bookkeeping — runs inside a pooled
// arena on the caller's goroutine (inline), so a warm index or
// frequency-scan call whose dst has capacity allocates nothing. Across
// shards the fan-out's per-shard buffers allocate (parallel workers need
// private slices).
func (s *Store) ExecRangeInto(q RangeQuery, pl *plan.Plan, dst []Result) ([]Result, ExecStats, error) {
	rp, ok := pl.Internal.(*rangePlan)
	if !ok || rp == nil {
		// The plan came from elsewhere: replan (defensive; plans are
		// documented store-specific).
		var err error
		if rp, err = s.shards[0].planRange(q); err != nil {
			return nil, ExecStats{}, err
		}
	}
	var (
		st  ExecStats
		err error
	)
	if len(s.shards) == 1 {
		ar := getArena()
		defer putArena(ar)
		err = s.inline(&st, pl.Trace, func(sh *shard) (err error) {
			dst, err = sh.runRange(pl.Strategy, rp, ar, &st, dst)
			return err
		}, func() int {
			sortResults(dst)
			return len(dst)
		})
	} else {
		dst, st, err = s.fanRange(pl, rp, dst)
	}
	if err != nil {
		return nil, st, err
	}
	series := s.Len()
	if feedRange(q, pl) {
		s.tracker.ObserveRange(pl.Est.Candidates, st.Candidates, st.NodeAccesses, series)
	}
	observeApprox(s.tracker, pl, &st, series)
	s.maybeExploreRange(q, pl, rp, series)
	s.history.Observe(pl, st.Candidates, st.NodeAccesses, st.Results, st.Elapsed)
	finishExec(pl, &st)
	return dst, st, nil
}

// fanRange is ExecRangeInto's fan-out across shards (in a function of its
// own so that the buffers its closures share stay off the one-shard path).
func (s *Store) fanRange(pl *plan.Plan, rp *rangePlan, dst []Result) ([]Result, ExecStats, error) {
	parts := make([][]Result, len(s.shards))
	st, err := s.fan(func(si int, sh *shard, pst *ExecStats) (err error) {
		ar := getArena()
		defer putArena(ar)
		parts[si], err = sh.runRange(pl.Strategy, rp, ar, pst, nil)
		return err
	}, func(counts []int) int {
		for si, part := range parts {
			counts[si] = len(part)
			dst = append(dst, part...)
		}
		sortResults(dst)
		return len(dst)
	})
	return dst, st, err
}

// probe sums a count-only index probe over every shard, one after the
// other on the caller's goroutine, each under its shared lock: what the
// planner's exploration measures the index with. It is bookkeeping beside
// a read, not the read — it takes no second core and allocates nothing —
// and its costs stay out of the query's ExecStats.
func (s *Store) probe(count func(sh *shard, ar *execArena) (candidates, nodes int)) (candidates, nodes int) {
	ar := getArena()
	defer putArena(ar)
	for _, sh := range s.shards {
		sh.mu.RLock()
		c, n := count(sh, ar)
		sh.mu.RUnlock()
		candidates += c
		nodes += n
	}
	return candidates, nodes
}

// exploreEvery is the sampling period of the planner's range exploration
// probes: every exploreEvery-th unforced scan-routed range execution
// re-measures the index side with a count-only traversal.
const exploreEvery = 16

// maybeExploreRange occasionally probes the index on scan-routed range
// queries. Scan executions produce no index feedback, so a planner that
// settles on scans would otherwise never notice the index becoming
// cheaper again (store shrinkage, eps drift, calibration overshoot); the
// probe runs every shard's batch traversal without verification — node
// accesses and a candidate count only — and feeds the sums to the range
// calibrator.
func (s *Store) maybeExploreRange(q RangeQuery, pl *plan.Plan, rp *rangePlan, series int) {
	if pl.Strategy != plan.ScanFreq || pl.Forced || q.Moments != (feature.MomentBounds{}) {
		return
	}
	if s.exploreTick.Add(1)%exploreEvery != 0 {
		return
	}
	cand, nodes := s.probe(func(sh *shard, ar *execArena) (int, int) {
		ids, searchStats := sh.idx.RangeIDs(rp.qp, rp.mw.filterRadius(rp.q.Eps), rp.m, rp.q.Moments, !sh.opts.DisablePartialPrune, &ar.sc, ar.ids[:0])
		ar.ids = ids
		return len(ids), searchStats.NodesVisited
	})
	s.tracker.ObserveRange(pl.Est.Candidates, cand, nodes, series)
}

// feedRange reports whether an execution's measured costs may calibrate
// the planner: indexed runs only, and never moment-bounded queries — the
// moment bounds shrink the rectangle in ways the selectivity estimate
// does not model, so their candidate counts would drag the calibration
// toward zero and mislead every later unbounded query.
func feedRange(q RangeQuery, pl *plan.Plan) bool {
	return pl.Strategy == plan.Index && q.Moments == (feature.MomentBounds{})
}

// PlanNN validates a nearest-neighbor query and builds its plan. NN
// queries carry no threshold at planning time, so the decision comes from
// measured NN feedback (index is the cold default).
func (s *Store) PlanNN(q NNQuery, want plan.Strategy) (*plan.Plan, error) {
	p, err := s.shards[0].planNN(q)
	if err != nil {
		return nil, err
	}
	return buildNNPlan(q, p, want, s.Len(), s.tracker, plan.AllShards(len(s.shards))), nil
}

// buildNNPlan resolves the strategy for a validated NN query. There is no
// time-domain NN baseline: a plan.ScanTime request — USING SCANTIME in the
// language, UseScanTime in the library — selects the frequency scan.
func buildNNPlan(q NNQuery, p *rangePlan, want plan.Strategy, series int, tr *plan.Tracker, shards []int) *plan.Plan {
	if want == plan.ScanTime {
		want = plan.ScanFreq
	}
	choice, est, reason := plan.ChooseNN(series, q.Delta, tr)
	pl := &plan.Plan{
		Kind:      "nn",
		Transform: q.Transform.String(),
		K:         q.K,
		Strategy:  choice,
		Reason:    reason,
		Filter:    p.mw.why,
		Shards:    shards,
		Est:       est,
		Internal:  p,
	}
	if want != plan.Auto {
		pl.Forced = true
		pl.Strategy = want
		pl.Reason = fmt.Sprintf("forced %v by caller; planner would pick %v (%s)", want, choice, reason)
	}
	attachApprox(pl, p, q.Delta, tr)
	return pl
}

// ExecNNInto executes a plan built by PlanNN with its strategy fanned out to
// every shard under one shared k-th-best bound, appending answers to dst
// (pass a [:0] slice to reuse its backing array): every shard traversal
// verifies against — and tightens — the same global threshold, so sharding
// does not inflate candidate counts. The contract: Matches are
// byte-identical at every shard count on every schedule; Candidates and
// NodeAccesses depend on when the other shards' answers reach the bound,
// and are only bounded — the shared k-th best is never looser than a
// shard's own would be, so no shard verifies more than it would searching
// alone (TestApproxZeroParity pins both halves). The merged answer's
// per-shard provenance attributes each neighbor to its owning shard through
// the catalog. Like ExecRangeInto, a warm one-shard call whose dst has
// capacity for k results allocates nothing.
func (s *Store) ExecNNInto(q NNQuery, pl *plan.Plan, dst []Result) ([]Result, ExecStats, error) {
	rp, ok := pl.Internal.(*rangePlan)
	if !ok || rp == nil {
		var err error
		if rp, err = s.shards[0].planNN(q); err != nil {
			return nil, ExecStats{}, err
		}
	}
	var (
		st  ExecStats
		err error
	)
	if len(s.shards) == 1 {
		// The arena's stats, not a local's: the arena-held NN visitor keeps
		// a pointer to them, which a stack value would escape through.
		ar := getArena()
		defer putArena(ar)
		ast := ar.resetStats()
		ar.top.reset(q.K)
		err = s.inline(ast, pl.Trace, func(sh *shard) error {
			return sh.runNN(pl.Strategy, rp, &ar.top, ar, ast)
		}, func() int {
			dst = ar.top.appendResults(dst)
			return len(dst)
		})
		st = *ast
	} else {
		dst, st, err = s.fanNN(pl, rp, q.K, dst)
	}
	if err != nil {
		return nil, st, err
	}
	series := s.Len()
	// Approximate runs feed their own model: the relaxed traversal's
	// shrunken candidate counts would corrupt the exact NN estimate.
	if pl.Strategy == plan.Index && pl.Approx == nil {
		s.tracker.ObserveNN(st.Candidates, st.NodeAccesses, series)
	}
	observeApprox(s.tracker, pl, &st, series)
	if exploreNN(pl, &s.exploreNNTick, dst) {
		// Each shard counts against the global k-th distance, which is the
		// bound the fan-out's shared top-k converges to.
		kth := dst[len(dst)-1].Dist
		cand, nodes := s.probe(func(sh *shard, ar *execArena) (int, int) { return sh.countNear(rp, ar, kth) })
		s.tracker.ObserveNN(cand, nodes, series)
	}
	s.history.Observe(pl, st.Candidates, st.NodeAccesses, st.Results, st.Elapsed)
	finishExec(pl, &st)
	return dst, st, nil
}

// fanNN is ExecNNInto's fan-out across shards (see fanRange).
func (s *Store) fanNN(pl *plan.Plan, rp *rangePlan, k int, dst []Result) ([]Result, ExecStats, error) {
	best := newTopK(k)
	st, err := s.fan(func(_ int, sh *shard, pst *ExecStats) error {
		ar := getArena()
		defer putArena(ar)
		return sh.runNN(pl.Strategy, rp, best, ar, pst)
	}, func(counts []int) int {
		dst = best.appendResults(dst)
		s.mu.RLock()
		for _, r := range dst {
			if si, ok := s.owner[r.ID]; ok {
				counts[si]++
			}
		}
		s.mu.RUnlock()
		return len(dst)
	})
	return dst, st, err
}

// exploreNN reports whether a finished NN execution should probe the
// index: the NN analogue of maybeExploreRange. Only indexed NN runs feed
// tracker.ObserveNN, so once the measured candidate fraction crosses the
// scan crossover, AUTO would route every later NN to the scan and never
// measure the index again (benchmark/README, "Surprises" 1). Every
// exploreEvery-th unforced, exact, scan-routed NN with an answer therefore
// reports what the index would have done (countNear).
func exploreNN(pl *plan.Plan, tick *atomic.Uint64, answer []Result) bool {
	if pl.Strategy == plan.Index || pl.Forced || pl.Approx != nil || len(answer) == 0 {
		return false
	}
	return tick.Add(1)%exploreEvery == 0
}

// nearCounter is the FlatNNVisitor of a count-only NN traversal: it counts
// the items whose k-coefficient lower bound is within a known k-th
// distance. Arena-held, so handing it to the traversal never allocates.
type nearCounter struct {
	// bound is the plan's stopLine at the k-th distance: where nnVisit
	// stops once its k-set holds the final answer.
	bound float64
	n     int
}

func (c *nearCounter) NearBound() float64 { return c.bound }

func (c *nearCounter) VisitNear(_ int64, partialDistSq float64) bool {
	if partialDistSq > c.bound {
		return false
	}
	c.n++
	return true
}

// countNear measures what an indexed run of an answered NN plan costs this
// shard without verifying anything: the nodes it would visit, and a floor
// under the candidates it would verify. A traversal told the final k-th
// distance counts the items within its stop line. The indexed run verifies
// every one of them — each lies in a leaf whose lower bound is no larger, and
// is checked against a k-th best no better than the final one — plus the few
// items of leaves it expanded while its k-th best was still looser (about 4 %
// more on family walks, TestNNCandidatesNearTheCount). It visits exactly the
// probe's nodes: every node within the final stop line, and when it pops the
// first one past it, the leaves holding the answer lay nearer, were expanded,
// and the k-th best is final. Like the range probe, the cost stays out of
// the query's ExecStats: planner bookkeeping, not answer work.
func (sh *shard) countNear(rp *rangePlan, ar *execArena, kth float64) (candidates, nodes int) {
	ar.nc = nearCounter{bound: rp.stopLine(kth)}
	searchStats := sh.idx.NearestIDs(rp.qp, rp.m, &ar.sc, &ar.nc)
	return ar.nc.n, searchStats.NodesVisited
}

// featureBounds returns the union of every shard index's MBR plus the
// maximum index height — the store's feature-space extent, taken under each
// shard's shared lock in turn (per-shard consistency, like the fan-out
// itself).
func (s *Store) featureBounds() (geom.Rect, int) {
	var union geom.Rect
	height := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		b := sh.idx.Tree().Bounds()
		height = max(height, sh.idx.Tree().Height())
		sh.mu.RUnlock()
		if b.Dims() == 0 {
			continue
		}
		if union.Dims() == 0 {
			union = b // Bounds hands out a fresh copy
			continue
		}
		union.UnionInPlace(b)
	}
	return union, height
}

// PlanJoin validates an all-pairs query and builds its execution plan — one
// plan for the whole store (the preprocessing depends only on the shared
// schema and length) — pricing the paper's Table 1 methods from store
// cardinality, sampled eps selectivity against the union of the shards'
// transformed extents, and measured join feedback; want plan.Auto defers the
// method choice to the planner.
func (s *Store) PlanJoin(q JoinQuery, want plan.Strategy) (*plan.Plan, error) {
	jp, err := s.shards[0].planJoin(q)
	if err != nil {
		return nil, err
	}
	if jp.mapErr != nil {
		return scanOnlyJoinPlan(q, jp, want, s.Len(), plan.AllShards(len(s.shards)))
	}
	bounds, height := s.featureBounds()
	bounds = applyBounds(bounds, jp.lm)
	sel := joinSelectivity(s.IDs(), s.FeaturePoint, s.Schema(), jp, bounds, s.Len())
	in := plan.JoinInput{
		Series:      s.Len(),
		Height:      height,
		LeafCap:     s.shards[0].opts.RTree.MaxEntries,
		Selectivity: sel,
		TwoSided:    q.TwoSided,
		Identity:    jp.lm.Identity() && jp.rm.Identity(),
	}
	return buildJoinPlan(q, jp, want, in, s.tracker, plan.AllShards(len(s.shards))), nil
}

// ExecJoin executes a plan built by PlanJoin with the planned method fanned
// out across all shards — index probes partitioned by owning shard, scans
// striding workers over the pinned catalog — recording per-shard provenance
// in the merged ExecStats, feeding measured candidate counts back to the
// join calibrator after indexed executions and recording the executed plan
// in the store's history ring.
func (s *Store) ExecJoin(q JoinQuery, pl *plan.Plan) ([]JoinPair, ExecStats, error) {
	jp, ok := pl.Internal.(*joinPlan)
	if !ok || jp == nil {
		var err error
		jp, err = s.shards[0].planJoin(q)
		if err != nil {
			return nil, ExecStats{}, err
		}
	}
	var (
		out []JoinPair
		st  ExecStats
		err error
	)
	switch pl.Strategy {
	case plan.Index:
		if jp.mapErr != nil {
			return nil, ExecStats{}, jp.mapErr
		}
		out, st, err = s.joinIndexFan(jp, !jp.q.TwoSided)
	case plan.ScanFreq:
		out, st, err = s.joinScanFan(jp, true)
	case plan.ScanTime:
		out, st, err = s.joinScanFan(jp, false)
	default:
		return nil, ExecStats{}, fmt.Errorf("core: plan carries unresolved strategy %v", pl.Strategy)
	}
	if err != nil {
		return nil, st, err
	}
	if pl.Strategy == plan.Index {
		s.tracker.ObserveJoin(pl.Est.Candidates, st.Candidates, st.NodeAccesses, s.Len())
	}
	s.maybeExploreJoin(pl, jp)
	s.history.Observe(pl, st.Candidates, st.NodeAccesses, st.Results, st.Elapsed)
	finishExec(pl, &st)
	return out, st, nil
}

// PlannerStats exposes the store's planner feedback (diagnostics, tests).
func (s *Store) PlannerStats() plan.Snapshot { return s.tracker.Stats() }

// PlanHistory returns the store's recent executed plans, oldest first.
func (s *Store) PlanHistory() []plan.Record { return s.history.Recent() }

// PlanDrift returns the store's per-kind cost-error percentile
// checkpoints — planner calibration drift over time, where PlanHistory
// shows only the current ring.
func (s *Store) PlanDrift() []plan.DriftPoint { return s.history.Drift() }
