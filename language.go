package tsq

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/query"
)

// Output is the result of a query-language statement.
type Output struct {
	// Kind is "RANGE", "NN", "SELFJOIN", or "JOIN".
	Kind string
	// Matches holds range/NN answers (sorted by distance).
	Matches []Match
	// Pairs holds join answers.
	Pairs []Pair
	// Stats reports the execution cost.
	Stats Stats
	// Explain carries the execution plan for EXPLAIN-prefixed statements
	// (nil otherwise): the planner's choice and reasoning, the Lemma 1
	// search rectangle, the shard targets, and the estimated cost to hold
	// against Stats' actuals.
	Explain *ExplainInfo
	// Trace carries the execution's span tree for TRACE-prefixed
	// statements (nil otherwise): plan, fan-out with per-shard wall
	// times, and merge — the way Explain carries the plan.
	Trace *TraceInfo
}

// TraceInfo is the rendered span tree of one TRACE statement.
type TraceInfo struct {
	// Total is the statement's end-to-end wall time: planning plus
	// execution.
	Total time.Duration
	// Spans is the trace forest, in execution order.
	Spans []SpanInfo
}

// ExplainInfo is the rendered execution plan of one EXPLAIN statement.
type ExplainInfo struct {
	// Kind is the planned query kind ("range", "nn", "selfjoin", "join").
	Kind string
	// Strategy is the resolved execution strategy ("index", "scan",
	// "scantime"); Forced reports the caller pinned it (USING clause,
	// moment bounds make the planner pin without Forced). Reason is the
	// planner's justification.
	Strategy string
	Forced   bool
	Reason   string
	// Filter names the Lemma 1 filter radius of the plan's index path:
	// "eps/√2 (conjugate symmetry)" when every indexed coefficient counts
	// twice under the transformation, else "eps (asymmetric transform)" or
	// "eps (2K ≥ n)". It is why two look-alike statements can touch
	// different candidate counts. Empty when the plan has no index path.
	Filter string
	// Method is the paper's Table 1 method letter of a join plan ("a",
	// "b", "d", or "c/d" when the identity action makes c and d
	// coincide); empty for range/NN plans.
	Method string
	// Transform is the canonical transformation pipeline.
	Transform string
	// Series is the store size at planning; Shards the fan-out targets.
	Series int
	Shards []int
	// Selectivity, EstCandidates, EstNodeAccesses, EstIndexCost, and
	// EstScanCost are the planner's cost model outputs (zero for plans
	// with no index-vs-scan freedom).
	Selectivity     float64
	EstCandidates   float64
	EstNodeAccesses float64
	EstIndexCost    float64
	EstScanCost     float64
	// RectLo/RectHi are the corners of the feature-space search rectangle
	// (nil when the query kind carries none, e.g. NN).
	RectLo []float64
	RectHi []float64
	// ActualCandidates and ActualNodeAccesses echo the execution's
	// measured cost — EXPLAIN's "estimated vs actual" — and
	// ActualHeadResolved how many of the candidates were decided in the
	// resident spectrum heads, without a page.
	ActualCandidates   int
	ActualNodeAccesses int
	ActualHeadResolved int
	// ApproxDelta, ApproxRung, ApproxEstSpeedup, and ApproxTightness
	// describe an approximate plan (APPROX delta > 0): the guaranteed
	// (1+delta) error bound, the feature-ladder rung verification starts
	// bound checks at, the planner's estimated verification speedup, and
	// the EWMA of realized bound tightness the rung was tuned from (0 =
	// no feedback yet). All zero on exact plans.
	ApproxDelta      float64
	ApproxRung       int
	ApproxEstSpeedup float64
	ApproxTightness  float64
	// PerShard is the fan-out's per-shard provenance (nil on single-store
	// executions).
	PerShard []ShardExecInfo
}

// ShardExecInfo is one shard's share of a fan-out execution.
type ShardExecInfo struct {
	Shard        int
	NodeAccesses int
	PageReads    int64
	Candidates   int
	HeadResolved int
	Results      int
}

func explainFrom(pl *plan.Plan, st core.ExecStats) *ExplainInfo {
	if pl == nil {
		return nil
	}
	out := &ExplainInfo{
		Kind:               pl.Kind,
		Strategy:           pl.Strategy.String(),
		Forced:             pl.Forced,
		Reason:             pl.Reason,
		Filter:             pl.Filter,
		Method:             pl.Method,
		Transform:          pl.Transform,
		Series:             pl.Est.Series,
		Shards:             append([]int(nil), pl.Shards...),
		Selectivity:        pl.Est.Selectivity,
		EstCandidates:      pl.Est.Candidates,
		EstNodeAccesses:    pl.Est.NodeAccesses,
		EstIndexCost:       pl.Est.IndexCost,
		EstScanCost:        pl.Est.ScanCost,
		ActualCandidates:   st.Candidates,
		ActualNodeAccesses: st.NodeAccesses,
		ActualHeadResolved: st.HeadResolved,
	}
	if pl.Approx != nil {
		out.ApproxDelta = pl.Approx.Delta
		out.ApproxRung = pl.Approx.Rung
		out.ApproxEstSpeedup = pl.Approx.EstSpeedup
		out.ApproxTightness = pl.Approx.Tightness
	}
	if pl.Rect.Dims() > 0 {
		out.RectLo = append([]float64(nil), pl.Rect.Lo...)
		out.RectHi = append([]float64(nil), pl.Rect.Hi...)
	}
	for _, sh := range st.Shards {
		out.PerShard = append(out.PerShard, ShardExecInfo{
			Shard:        sh.Shard,
			NodeAccesses: sh.NodeAccesses,
			PageReads:    sh.PageReads,
			Candidates:   sh.Candidates,
			HeadResolved: sh.HeadResolved,
			Results:      sh.Results,
		})
	}
	return out
}

// Query parses and executes one statement of the query language:
//
//	RANGE SERIES 'IBM' EPS 2.5 TRANSFORM mavg(20) USING INDEX
//	RANGE VALUES (20, 21, 20, 23) EPS 1.0 TRANSFORM warp(2)
//	NN SERIES 'BBA' K 5 TRANSFORM reverse() | mavg(20)
//	SELFJOIN EPS 1.0 TRANSFORM mavg(20)
//	JOIN EPS 1.0 LEFT reverse() | mavg(20) RIGHT mavg(20)
//	RANGE SERIES 'ZTR' EPS 3 MEAN [5, 15] STD [0.5, 2]
//	EXPLAIN SELFJOIN EPS 1.0 TRANSFORM mavg(20) USING AUTO
//
// Keywords are case-insensitive. Available transformations: identity(),
// mavg(l), wmavg(w1, ..., wm), reverse(), scale(c), shift(c), warp(m);
// they compose left-to-right with '|'. USING selects AUTO (the default:
// the planner chooses the execution per query from per-store statistics —
// index vs scan for RANGE/NN, the Table 1 join method for joins), INDEX,
// SCAN (frequency-domain sequential scan), or SCANTIME (naive scan).
// Planned joins report each qualifying pair once; SELFJOIN's METHOD
// clause instead pins one of Table 1's a, b, c, d with the paper's exact
// per-method accounting (index methods report pairs twice). JOIN is the
// generalized two-sided join: ordered pairs (x, y) with
// D(L(nf(x)), R(nf(y))) <= eps, the sides given by LEFT and RIGHT
// pipelines. An EXPLAIN prefix executes the statement and attaches the
// plan — strategy, join method, planner reasoning, search rectangle,
// estimated vs actual cost, per-shard provenance — as Output.Explain.
func (db *DB) Query(src string) (*Output, error) {
	out, err := query.Run(db.eng, src)
	if err != nil {
		return nil, err
	}
	return db.convertOutput(out), nil
}

// convertOutput renders one executed statement into the public Output
// shape — shared by Query and the progressive delivery path.
func (db *DB) convertOutput(out *query.Output) *Output {
	res := &Output{
		Kind:    out.Kind.String(),
		Matches: toMatches(out.Results),
		Pairs:   db.toPairs(out.Pairs),
		Stats:   fromExec(out.Stats),
		Explain: explainFrom(out.Plan, out.Stats),
	}
	if out.Traced {
		// Stats.Elapsed is engine execution only; fold the plan span back
		// in so Total covers the statement end to end.
		total := out.Stats.Elapsed
		spans := spansFrom(out.Stats.Spans)
		for _, sp := range spans {
			if sp.Name == "plan" {
				total += sp.Duration
			}
		}
		res.Trace = &TraceInfo{Total: total, Spans: spans}
	}
	return res
}

// DefaultProgressiveDelta is the approximation slack of the first stage
// of a progressive query whose statement carries no APPROX clause.
const DefaultProgressiveDelta = 0.1

// ProgressiveStage is one delivery of a progressive query execution: the
// approximate stage arrives first (Phase "approximate", every Match
// carrying its certified error bound), then the exact refinement (Phase
// "exact", Final true).
type ProgressiveStage struct {
	Phase  string
	Output *Output
	Final  bool
}

// QueryProgressive executes a RANGE or NN statement progressively: an
// approximate stage — the statement's APPROX delta, or
// DefaultProgressiveDelta when the statement is exact — is computed and
// emitted immediately, then the exact answer (APPROX 0) follows as the
// final stage. emit is called once per stage, in order; a non-nil error
// from emit aborts the refinement and is returned. Each stage executes
// independently, so the exact refinement reflects writes that landed
// between the stages.
func (db *DB) QueryProgressive(src string, emit func(ProgressiveStage) error) error {
	stmt, err := query.Parse(src)
	if err != nil {
		return err
	}
	if stmt.Kind != query.StmtRange && stmt.Kind != query.StmtNN {
		return fmt.Errorf("tsq: progressive execution applies to RANGE and NN statements, not %s", stmt.Kind)
	}
	delta := stmt.Delta
	if delta == 0 {
		delta = DefaultProgressiveDelta
	}
	approx := *stmt
	approx.Delta = delta
	out, err := query.Exec(db.eng, &approx)
	if err != nil {
		return err
	}
	if err := emit(ProgressiveStage{Phase: "approximate", Output: db.convertOutput(out)}); err != nil {
		return err
	}
	exact := *stmt
	exact.Delta = 0
	out, err = query.Exec(db.eng, &exact)
	if err != nil {
		return err
	}
	return emit(ProgressiveStage{Phase: "exact", Output: db.convertOutput(out), Final: true})
}
