package core

import (
	"fmt"
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
// A range plan compares the query's Lemma 1 search rectangle against the
// store's feature-space extent (the union of the shards' k-index root MBRs,
// mapped through the query transformation — the exact space the traversal
// intersects in). A join plan counts what a few sampled count-only index
// probes select and visit. Neither reads what earlier queries measured, so
// a plan depends only on the store and the query. See package plan for the
// cost model.

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
func buildRangePlan(q RangeQuery, p *rangePlan, want plan.Strategy, in plan.Input, shards []int, kind string) *plan.Plan {
	choice, est, reason := plan.Choose(in)
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
		pl.Reason = "forced " + want.String() + " by caller; planner would pick " + choice.String() + " (" + reason + ")"
	case q.Moments != (feature.MomentBounds{}):
		pl.Strategy = plan.Index
		pl.Reason = "index: moment-bounded query (scan baselines ignore mean/std bounds)"
	}
	attachApprox(pl, q.Delta)
	return pl
}

// attachApprox states the approximate tier of a built plan: its delta,
// also at the end of its reason. The time-domain scan has no approximate
// tier — it answers exactly whatever delta the query carries — so its plan
// carries none.
func attachApprox(pl *plan.Plan, delta float64) {
	if delta <= 0 || pl.Strategy == plan.ScanTime {
		return
	}
	pl.Approx = &plan.ApproxInfo{Delta: delta}
	pl.Reason += fmt.Sprintf("; approx delta=%g", delta)
}

// PlanRange validates a range query and builds its execution plan — one
// plan for the whole store (the preprocessing depends only on the shared
// schema and length), priced against the union of the shards' feature-space
// extents; want plan.Auto defers the index-vs-scan choice to the planner.
// The returned plan carries this store's precomputed query spectrum and
// transformation coefficients — execute it on the same store with
// ExecRangeInto.
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
	return buildRangePlan(q, p, want, in, plan.AllShards(len(s.shards)), "range"), nil
}

// ExecRangeInto executes a plan built by PlanRange — whatever strategy it
// resolved or was forced to — fanned out to every shard, appending the
// merged answers to dst (pass a [:0] slice to reuse its backing array) and
// recording per-shard provenance in the merged ExecStats. On a one-shard
// store this is the engine's zero-allocation hot path: the whole
// execution — batch index traversal, page-view verification, sorting,
// metrics bookkeeping — runs inside a pooled arena on the caller's
// goroutine (inline), so a warm index or frequency-scan call whose dst has
// capacity allocates nothing. Across shards the fan-out's per-shard buffers
// allocate (parallel workers need private slices).
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
		// The arena's stats, as in ExecNNInto: the arena-held leaf test
		// keeps a pointer to them.
		ar := getArena()
		defer putArena(ar)
		ast := ar.resetStats()
		err = s.inline(ast, pl.Trace, func(sh *shard) (err error) {
			dst, err = sh.runRange(pl.Strategy, rp, ar, ast, dst)
			return err
		}, func() int {
			sortResults(dst)
			return len(dst)
		})
		st = *ast
	} else {
		dst, st, err = s.fanRange(pl, rp, dst)
	}
	if err != nil {
		return nil, st, err
	}
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

// PlanNN validates a nearest-neighbor query and builds its plan: the
// index walk unless the caller forces the scan (see buildNNPlan).
func (s *Store) PlanNN(q NNQuery, want plan.Strategy) (*plan.Plan, error) {
	p, err := s.shards[0].planNN(q)
	if err != nil {
		return nil, err
	}
	return buildNNPlan(q, p, want, s.Len(), plan.AllShards(len(s.shards))), nil
}

// nnReason is why an NN plan walks the index.
const nnReason = "index: branch-and-bound walk verifies a subset of the scan's candidates"

// buildNNPlan resolves the strategy for a validated NN query: the index,
// whatever the store has served. The frequency scan hands every stored id
// to the same visitor the walk hands a subset of, in best-first order and
// behind the leaf prefix test, so at the planner's own prices the scan can
// save at most the nodes the walk visits. There is no time-domain NN
// baseline: a plan.ScanTime request — USING SCANTIME in the language,
// UseScanTime in the library — selects the frequency scan.
func buildNNPlan(q NNQuery, p *rangePlan, want plan.Strategy, series int, shards []int) *plan.Plan {
	if want == plan.ScanTime {
		want = plan.ScanFreq
	}
	pl := &plan.Plan{
		Kind:      "nn",
		Transform: q.Transform.String(),
		K:         q.K,
		Strategy:  plan.Index,
		Reason:    nnReason,
		Filter:    p.mw.why,
		Shards:    shards,
		Est:       plan.Estimate{Series: series},
		Internal:  p,
	}
	if want != plan.Auto {
		pl.Forced = true
		pl.Strategy = want
		pl.Reason = "forced " + want.String() + " by caller; planner would pick index (" + nnReason + ")"
	}
	attachApprox(pl, q.Delta)
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
// cardinality and the candidates and nodes that sampled count-only index
// probes measure (see sampleJoin); want plan.Auto defers the method choice
// to the planner.
func (s *Store) PlanJoin(q JoinQuery, want plan.Strategy) (*plan.Plan, error) {
	jp, err := s.shards[0].planJoin(q)
	if err != nil {
		return nil, err
	}
	if jp.mapErr != nil {
		return scanOnlyJoinPlan(q, jp, want, s.Len(), plan.AllShards(len(s.shards)))
	}
	in := s.sampleJoin(jp)
	in.TwoSided = q.TwoSided
	in.Identity = jp.lm.Identity() && jp.rm.Identity()
	return buildJoinPlan(q, jp, want, in, plan.AllShards(len(s.shards))), nil
}

// ExecJoin executes a plan built by PlanJoin with the planned method fanned
// out across all shards — index probes partitioned by owning shard, scans
// striding workers over the pinned catalog — recording per-shard provenance
// in the merged ExecStats and reporting the executed plan to the metrics
// registry.
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
	finishExec(pl, &st)
	return out, st, nil
}
