package tsq

import (
	"fmt"
	"strings"
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

// ExplainInfo is the rendered execution plan of one EXPLAIN statement. Its
// JSON encoding is the "explain" object of an HTTP query response.
type ExplainInfo struct {
	// Kind is the planned query kind ("range", "nn", "selfjoin", "join").
	Kind string `json:"kind"`
	// Strategy is the resolved execution strategy ("index", "scan",
	// "scantime"). Method is the paper's Table 1 method letter of a join
	// plan ("a", "b", "d", or "c/d" when the identity action makes c and d
	// coincide); empty for range/NN plans. Forced reports the caller pinned
	// the strategy (USING clause; moment bounds make the planner pin
	// without Forced). Reason is the planner's justification.
	Strategy string `json:"strategy"`
	Method   string `json:"method,omitempty"`
	Forced   bool   `json:"forced,omitempty"`
	Reason   string `json:"reason"`
	// Filter names the Lemma 1 filter radius of the plan's index path:
	// "eps/√2 (conjugate symmetry)" when every indexed coefficient counts
	// twice under the transformation, else "eps (asymmetric transform)" or
	// "eps (2K ≥ n)". It is why two look-alike statements can touch
	// different candidate counts. Empty when the plan has no index path.
	Filter string `json:"filter,omitempty"`
	// Transform is the canonical transformation pipeline.
	Transform string `json:"transform,omitempty"`
	// Series is the store size at planning; Shards the fan-out targets.
	Series int   `json:"series"`
	Shards []int `json:"shards,omitempty"`
	// Selectivity, EstCandidates, EstNodeAccesses, EstIndexCost, and
	// EstScanCost are the planner's cost model outputs (zero for plans
	// with no index-vs-scan freedom).
	Selectivity     float64 `json:"selectivity,omitempty"`
	EstCandidates   float64 `json:"est_candidates,omitempty"`
	EstNodeAccesses float64 `json:"est_node_accesses,omitempty"`
	EstIndexCost    float64 `json:"est_index_cost,omitempty"`
	EstScanCost     float64 `json:"est_scan_cost,omitempty"`
	// RectLo/RectHi are the corners of the feature-space search rectangle
	// (nil when the query kind carries none, e.g. NN).
	RectLo []float64 `json:"rect_lo,omitempty"`
	RectHi []float64 `json:"rect_hi,omitempty"`
	// ActualCandidates and ActualNodeAccesses echo the execution's
	// measured cost — EXPLAIN's "estimated vs actual" — and
	// ActualHeadResolved how many of the candidates were decided in the
	// resident spectrum heads, without a page.
	ActualCandidates   int `json:"actual_candidates"`
	ActualNodeAccesses int `json:"actual_node_accesses"`
	ActualHeadResolved int `json:"actual_head_resolved"`
	// PerShard is the fan-out's per-shard provenance (nil on a one-shard
	// store).
	PerShard []ShardExecInfo `json:"per_shard,omitempty"`
	// ApproxDelta is an approximate plan's guaranteed (1+delta) error
	// bound (APPROX delta > 0); zero on exact plans.
	ApproxDelta float64 `json:"approx_delta,omitempty"`
}

// ShardExecInfo is one shard's share of a fan-out execution.
type ShardExecInfo struct {
	Shard        int   `json:"shard"`
	NodeAccesses int   `json:"node_accesses"`
	PageReads    int64 `json:"page_reads"`
	Candidates   int   `json:"candidates"`
	HeadResolved int   `json:"head_resolved"`
	Results      int   `json:"results"`
}

func explainFrom(pl *plan.Plan, st core.ExecStats) *ExplainInfo {
	if pl == nil {
		return nil
	}
	out := &ExplainInfo{
		Kind:               pl.Kind,
		Strategy:           pl.Strategy.String(),
		Method:             pl.Method,
		Forced:             pl.Forced,
		Reason:             pl.Reason,
		Filter:             pl.Filter,
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
// MEAN and STD bound a RANGE query's answers by the stored series' moments;
// every other statement kind refuses them.
// Planned joins report each qualifying pair once; SELFJOIN's METHOD
// clause instead pins one of Table 1's a, b, c, d with the paper's exact
// per-method accounting (index methods report pairs twice). JOIN is the
// generalized two-sided join: ordered pairs (x, y) with
// D(L(nf(x)), R(nf(y))) <= eps, the sides given by LEFT and RIGHT
// pipelines. An EXPLAIN prefix executes the statement and attaches the
// plan — strategy, join method, planner reasoning, search rectangle,
// estimated vs actual cost, per-shard provenance — as Output.Explain.
func (db *DB) Query(src string) (*Output, error) {
	return db.read(compileText(src, nil))
}

// compileText parses and compiles one statement, timing the two as the
// read's parse span. A statement that fails either step still yields a spec
// — kind readInvalid, carrying the error — so the failure runs through the
// same read path, and is counted and recorded by a Server like any other.
func compileText(src string, opts []QueryOpt) readSpec {
	start := time.Now()
	stmt, err := query.Parse(src)
	var sp readSpec
	if err == nil {
		sp, err = compile(stmt)
	}
	if err != nil {
		sp = readSpec{kind: readInvalid, err: err}
	}
	sp.text = strings.TrimSpace(src)
	sp.opts.reqID = applyOpts(opts).reqID
	sp.parse = time.Since(start)
	return sp
}

// usingStrategy maps the USING clause onto the library's Strategy
// vocabulary.
var usingStrategy = [...]Strategy{
	query.ExecIndex:    UseIndex,
	query.ExecScan:     UseScan,
	query.ExecScanTime: UseScanTime,
	query.ExecAuto:     UseAuto,
}

// compile translates a parsed statement into the read the typed methods
// state for the same query: the language is given its meaning by this
// translation, not by an evaluator of its own.
func compile(stmt *query.Statement) (readSpec, error) {
	if stmt.Exec < 0 || int(stmt.Exec) >= len(usingStrategy) {
		return readSpec{}, fmt.Errorf("tsq: unknown execution strategy %v", stmt.Exec)
	}
	qo := queryOpts{strategy: usingStrategy[stmt.Exec], both: stmt.Both, delta: stmt.Delta}
	if b := stmt.MeanBounds; b != nil {
		MeanRange(b[0], b[1])(&qo)
	}
	if b := stmt.StdBounds; b != nil {
		StdRange(b[0], b[1])(&qo)
	}
	t, err := transformOf(stmt.Transform)
	if err != nil {
		return readSpec{}, err
	}
	var sp readSpec
	switch stmt.Kind {
	case query.StmtRange:
		sp = newSpec(readRange, stmt.SeriesName, stmt.Literal, t, qo)
		sp.eps = stmt.Eps
	case query.StmtNN:
		sp = newSpec(readNN, stmt.SeriesName, stmt.Literal, t, qo)
		sp.k = stmt.K
	case query.StmtSelfJoin:
		sp = newSpec(readSelfJoin, "", nil, t, qo)
		sp.eps = stmt.Eps
		if m := stmt.JoinMethod; m != "" {
			sp.method = JoinMethod(m[0] - 'a') // the parser admits a..d
		}
	case query.StmtJoin:
		left, err := transformOf(stmt.LeftTransform)
		if err != nil {
			return readSpec{}, err
		}
		right, err := transformOf(stmt.RightTransform)
		if err != nil {
			return readSpec{}, err
		}
		sp = newSpec(readJoin, "", nil, left, qo)
		sp.eps, sp.right = stmt.Eps, right
	default:
		return readSpec{}, fmt.Errorf("tsq: unknown statement kind %v", stmt.Kind)
	}
	sp.limit, sp.explain, sp.trace = stmt.Limit, stmt.Explain, stmt.Trace
	return sp, sp.err
}

// DefaultProgressiveDelta is the approximation slack of the first stage
// of a progressive query whose statement carries no APPROX clause.
const DefaultProgressiveDelta = 0.1

// ProgressiveStage is one delivery of a progressive query execution: the
// approximate stage arrives first (Phase "approximate", exact distances
// whose i-th is within (1+delta) of the exact i-th), then the exact
// refinement (Phase "exact", Final true).
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
	return progressive(compileText(src, nil), db.read, emit)
}

// progressive delivers one compiled statement in two reads of the same
// spec: at the approximate stage's delta, then at delta 0. Both bypass any
// cache — their value is the live two-stage delivery.
func progressive(sp readSpec, read func(readSpec) (*Output, error), emit func(ProgressiveStage) error) error {
	if sp.err == nil && sp.kind != readRange && sp.kind != readNN {
		sp.err = fmt.Errorf("tsq: progressive execution applies to RANGE and NN statements, not %s", readKindNames[sp.kind].keyword)
	}
	sp.bypass = true
	approx := sp
	if approx.opts.delta == 0 {
		approx.opts.delta = DefaultProgressiveDelta
	}
	out, err := read(approx)
	if err != nil {
		return err
	}
	if err := emit(ProgressiveStage{Phase: "approximate", Output: out}); err != nil {
		return err
	}
	sp.opts.delta = 0
	if out, err = read(sp); err != nil {
		return err
	}
	return emit(ProgressiveStage{Phase: "exact", Output: out, Final: true})
}
