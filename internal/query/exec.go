package query

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/plan"
	"repro/internal/transform"
)

// Output is the result of executing a statement.
type Output struct {
	Kind    StatementKind
	Results []core.Result   // range and NN queries
	Pairs   []core.JoinPair // self joins
	Stats   core.ExecStats
	// Plan is the executed plan, populated for EXPLAIN statements:
	// strategy, planner reasoning, search rectangle, shard targets, and
	// the estimate to hold against Stats.
	Plan *plan.Plan
	// Traced marks a TRACE statement: consumers should surface
	// Stats.Spans (which on planned executions carries the plan span
	// prepended here, then the engine's fan-out/merge tree) alongside the
	// results.
	Traced bool
}

// withPlanSpan prepends the planning step's wall time to an execution's
// span tree, completing the plan → fan-out → merge trace.
func withPlanSpan(st *core.ExecStats, planD time.Duration) {
	spans := make([]core.Span, 0, len(st.Spans)+1)
	spans = append(spans, core.Span{Name: "plan", Shard: -1, Duration: planD})
	spans = append(spans, st.Spans...)
	st.Spans = spans
}

// Run parses and executes src against db — a single DB or a Sharded
// store; the query language is engine-agnostic.
func Run(db core.Engine, src string) (*Output, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Exec(db, stmt)
}

// Exec executes a parsed statement against db.
func Exec(db core.Engine, stmt *Statement) (*Output, error) {
	tr, warp, err := buildTransform(db.Length(), stmt.Transform)
	if err != nil {
		return nil, err
	}
	switch stmt.Kind {
	case StmtRange:
		return execRange(db, stmt, tr, warp)
	case StmtNN:
		return execNN(db, stmt, tr, warp)
	case StmtSelfJoin:
		return execSelfJoin(db, stmt, tr, warp)
	case StmtJoin:
		return execJoin(db, stmt)
	default:
		return nil, fmt.Errorf("query: unknown statement kind %v", stmt.Kind)
	}
}

// buildTransform assembles the transformation pipeline into a single
// composed transformation over length-n spectra. warp(m) is special: it
// changes the query length and must be the only element of its pipeline;
// its stretch factor is returned separately.
func buildTransform(n int, calls []TransformCall) (transform.T, int, error) {
	if len(calls) == 0 {
		return transform.CachedIdentity(n), 0, nil
	}
	var composed transform.T
	warpFactor := 0
	for i, c := range calls {
		var t transform.T
		switch c.Name {
		case "identity":
			if err := wantArgs(c, 0); err != nil {
				return transform.T{}, 0, err
			}
			t = transform.CachedIdentity(n)
		case "mavg":
			if err := wantArgs(c, 1); err != nil {
				return transform.T{}, 0, err
			}
			l, err := intArg(c, 0, 1, n)
			if err != nil {
				return transform.T{}, 0, err
			}
			t = transform.MovingAverage(n, l)
		case "wmavg":
			if len(c.Args) < 1 || len(c.Args) > n {
				return transform.T{}, 0, fmt.Errorf("query: wmavg takes 1..%d weights, got %d", n, len(c.Args))
			}
			t = transform.WeightedMovingAverage(n, c.Args)
		case "reverse":
			if err := wantArgs(c, 0); err != nil {
				return transform.T{}, 0, err
			}
			t = transform.Reverse(n)
		case "scale":
			if err := wantArgs(c, 1); err != nil {
				return transform.T{}, 0, err
			}
			t = transform.Scale(n, c.Args[0])
		case "shift":
			if err := wantArgs(c, 1); err != nil {
				return transform.T{}, 0, err
			}
			t = transform.Shift(n, c.Args[0])
		case "warp":
			if err := wantArgs(c, 1); err != nil {
				return transform.T{}, 0, err
			}
			m, err := intArg(c, 0, 2, 64)
			if err != nil {
				return transform.T{}, 0, err
			}
			if len(calls) != 1 {
				return transform.T{}, 0, fmt.Errorf("query: warp cannot be composed with other transformations")
			}
			return transform.Warp(n, m), m, nil
		default:
			return transform.T{}, 0, fmt.Errorf("query: unknown transformation %q", c.Name)
		}
		if i == 0 {
			composed = t
		} else {
			composed, _ = composed.Compose(t)
		}
	}
	return composed, warpFactor, nil
}

func wantArgs(c TransformCall, n int) error {
	if len(c.Args) != n {
		return fmt.Errorf("query: %s takes %d argument(s), got %d", c.Name, n, len(c.Args))
	}
	return nil
}

func intArg(c TransformCall, i, lo, hi int) (int, error) {
	v := c.Args[i]
	if v != math.Trunc(v) || int(v) < lo || int(v) > hi {
		return 0, fmt.Errorf("query: %s argument %d must be an integer in [%d, %d], got %g", c.Name, i+1, lo, hi, v)
	}
	return int(v), nil
}

// querySeries resolves the query-side series of a statement. For a
// SERIES 'name' clause it also returns the stored record's planning
// artifacts, so the engine plans off the indexed feature point and the
// stored spectrum instead of recomputing both from the raw values.
func querySeries(db core.Engine, stmt *Statement) ([]float64, *core.QueryPrep, error) {
	if stmt.SeriesName != "" {
		id, ok := db.IDByName(stmt.SeriesName)
		if !ok {
			return nil, nil, fmt.Errorf("query: unknown series %q", stmt.SeriesName)
		}
		values, err := db.Series(id)
		if err != nil {
			return nil, nil, err
		}
		prep, _ := db.QueryPrep(id)
		return values, prep, nil
	}
	if len(stmt.Literal) == 0 {
		return nil, nil, fmt.Errorf("query: statement has no query series")
	}
	return stmt.Literal, nil, nil
}

func momentBounds(stmt *Statement) feature.MomentBounds {
	if stmt.MeanBounds == nil && stmt.StdBounds == nil {
		return feature.MomentBounds{}
	}
	mb := feature.Unbounded()
	if stmt.MeanBounds != nil {
		mb.MeanLo, mb.MeanHi = stmt.MeanBounds[0], stmt.MeanBounds[1]
	}
	if stmt.StdBounds != nil {
		mb.StdLo, mb.StdHi = stmt.StdBounds[0], stmt.StdBounds[1]
	}
	return mb
}

// wantStrategy maps the USING clause onto the planner's request
// vocabulary.
func wantStrategy(e ExecStrategy) (plan.Strategy, error) {
	switch e {
	case ExecAuto:
		return plan.Auto, nil
	case ExecIndex:
		return plan.Index, nil
	case ExecScan:
		return plan.ScanFreq, nil
	case ExecScanTime:
		return plan.ScanTime, nil
	default:
		return plan.Auto, fmt.Errorf("query: unknown execution strategy %v", e)
	}
}

// execRange runs a range statement plan-first: the engine builds the plan
// — resolving AUTO against its store statistics — and executes it, so the
// language, the HTTP server, and EXPLAIN all share one pipeline.
func execRange(db core.Engine, stmt *Statement, tr transform.T, warp int) (*Output, error) {
	values, prep, err := querySeries(db, stmt)
	if err != nil {
		return nil, err
	}
	rq := core.RangeQuery{
		Values:     values,
		Eps:        stmt.Eps,
		Delta:      stmt.Delta,
		Transform:  tr,
		Moments:    momentBounds(stmt),
		WarpFactor: warp,
		BothSides:  stmt.Both,
		Prep:       prep,
	}
	want, err := wantStrategy(stmt.Exec)
	if err != nil {
		return nil, err
	}
	planT := time.Now()
	pl, err := db.PlanRange(rq, want)
	if err != nil {
		return nil, err
	}
	planD := time.Since(planT)
	pl.Trace = stmt.Trace
	res, st, err := db.ExecRangeInto(rq, pl, nil)
	if err != nil {
		return nil, err
	}
	withPlanSpan(&st, planD)
	if stmt.Limit > 0 && len(res) > stmt.Limit {
		res = res[:stmt.Limit]
	}
	out := &Output{Kind: StmtRange, Results: res, Stats: st, Traced: stmt.Trace}
	if stmt.Explain {
		out.Plan = pl
	}
	return out, nil
}

func execNN(db core.Engine, stmt *Statement, tr transform.T, warp int) (*Output, error) {
	values, prep, err := querySeries(db, stmt)
	if err != nil {
		return nil, err
	}
	nq := core.NNQuery{Values: values, K: stmt.K, Delta: stmt.Delta, Transform: tr, WarpFactor: warp, BothSides: stmt.Both, Prep: prep}
	want, err := wantStrategy(stmt.Exec)
	if err != nil {
		return nil, err
	}
	planT := time.Now()
	pl, err := db.PlanNN(nq, want)
	if err != nil {
		return nil, err
	}
	planD := time.Since(planT)
	pl.Trace = stmt.Trace
	res, st, err := db.ExecNNInto(nq, pl, nil)
	if err != nil {
		return nil, err
	}
	withPlanSpan(&st, planD)
	if stmt.Limit > 0 && len(res) > stmt.Limit {
		res = res[:stmt.Limit]
	}
	out := &Output{Kind: StmtNN, Results: res, Stats: st, Traced: stmt.Trace}
	if stmt.Explain {
		out.Plan = pl
	}
	return out, nil
}

// execSelfJoin runs a SELFJOIN statement. Without a METHOD clause the
// join is planned: the engine prices the Table 1 methods (USING AUTO, the
// default) or runs the forced mechanism (USING INDEX/SCAN/SCANTIME), and
// each qualifying pair is reported once. A METHOD clause pins the paper's
// per-method semantics exactly (index methods report pairs twice, method
// c ignores the transformation) and yields a descriptive EXPLAIN plan.
func execSelfJoin(db core.Engine, stmt *Statement, tr transform.T, warp int) (*Output, error) {
	if warp != 0 {
		return nil, fmt.Errorf("query: warp is not supported in SELFJOIN")
	}
	if stmt.JoinMethod == "" {
		jq := core.JoinQuery{Eps: stmt.Eps, Left: tr, Right: tr}
		return execPlannedJoin(db, stmt, jq, StmtSelfJoin)
	}
	var method core.JoinMethod
	switch stmt.JoinMethod {
	case "a":
		method = core.JoinScanNaive
	case "b":
		method = core.JoinScanEarlyAbandon
	case "c":
		method = core.JoinIndexPlain
	case "d":
		method = core.JoinIndexTransform
	default:
		return nil, fmt.Errorf("query: unknown join method %q", stmt.JoinMethod)
	}
	pairs, st, err := db.SelfJoin(stmt.Eps, tr, method)
	if err != nil {
		return nil, err
	}
	if stmt.Limit > 0 && len(pairs) > stmt.Limit {
		pairs = pairs[:stmt.Limit]
	}
	out := &Output{Kind: StmtSelfJoin, Pairs: pairs, Stats: st, Traced: stmt.Trace}
	if stmt.Explain {
		// Method-pinned self joins carry the paper's per-method semantics
		// (once/twice reporting), so the plan is descriptive: what ran,
		// where, at what measured cost.
		out.Plan = &plan.Plan{
			Kind:      "selfjoin",
			Transform: tr.String(),
			Eps:       stmt.Eps,
			Strategy:  selfJoinStrategy(method),
			Method:    stmt.JoinMethod,
			Forced:    true,
			Reason:    fmt.Sprintf("Table 1 method (%s): %s", stmt.JoinMethod, joinMethodName(method)),
			Shards:    plan.AllShards(db.Shards()),
			Est:       plan.Estimate{Series: db.Len()},
		}
	}
	return out, nil
}

// execJoin runs a two-sided JOIN statement through the planner.
func execJoin(db core.Engine, stmt *Statement) (*Output, error) {
	left, lw, err := buildTransform(db.Length(), stmt.LeftTransform)
	if err != nil {
		return nil, err
	}
	right, rw, err := buildTransform(db.Length(), stmt.RightTransform)
	if err != nil {
		return nil, err
	}
	if lw != 0 || rw != 0 {
		return nil, fmt.Errorf("query: warp is not supported in JOIN")
	}
	jq := core.JoinQuery{Eps: stmt.Eps, Left: left, Right: right, TwoSided: true}
	return execPlannedJoin(db, stmt, jq, StmtJoin)
}

// execPlannedJoin plans and executes an all-pairs query, attaching the
// executed plan for EXPLAIN statements.
func execPlannedJoin(db core.Engine, stmt *Statement, jq core.JoinQuery, kind StatementKind) (*Output, error) {
	want, err := wantStrategy(stmt.Exec)
	if err != nil {
		return nil, err
	}
	planT := time.Now()
	pl, err := db.PlanJoin(jq, want)
	if err != nil {
		return nil, err
	}
	planD := time.Since(planT)
	pairs, st, err := db.ExecJoin(jq, pl)
	if err != nil {
		return nil, err
	}
	withPlanSpan(&st, planD)
	if stmt.Limit > 0 && len(pairs) > stmt.Limit {
		pairs = pairs[:stmt.Limit]
	}
	out := &Output{Kind: kind, Pairs: pairs, Stats: st, Traced: stmt.Trace}
	if stmt.Explain {
		out.Plan = pl
	}
	return out, nil
}

func selfJoinStrategy(m core.JoinMethod) plan.Strategy {
	switch m {
	case core.JoinScanNaive:
		return plan.ScanTime
	case core.JoinScanEarlyAbandon:
		return plan.ScanFreq
	default:
		return plan.Index
	}
}

func joinMethodName(m core.JoinMethod) string {
	switch m {
	case core.JoinScanNaive:
		return "nested sequential scan, no early abandoning"
	case core.JoinScanEarlyAbandon:
		return "nested scan with early abandoning"
	case core.JoinIndexPlain:
		return "index-nested-loop without the transformation"
	default:
		return "index-nested-loop with the transformation"
	}
}
