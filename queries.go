package tsq

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/plan"
)

// Match is one similarity-query answer: a stored series and its Euclidean
// distance to the query (between transformed normal forms).
type Match struct {
	Name     string
	Distance float64
	// Bound is the certified distance upper bound of an approximate answer
	// (APPROX delta > 0): the true distance lies in [Distance, Bound] for
	// range answers and is at most Bound for NN answers, with
	// Bound <= (1+delta) * exact. Zero on exact executions.
	Bound float64
}

// Pair is one all-pairs (join) answer.
type Pair struct {
	A, B     string
	Distance float64
}

// Stats reports the cost of one query execution.
type Stats struct {
	// Elapsed wall-clock time.
	Elapsed time.Duration
	// NodeAccesses counts index nodes visited (the paper's index "disk
	// accesses").
	NodeAccesses int
	// PageReads counts simulated relation pages read.
	PageReads int64
	// Candidates is how many series reached exact verification.
	Candidates int
	// HeadResolved is how many of them verification decided from the
	// resident spectrum heads without opening the record's pages;
	// Candidates - HeadResolved records had their pages opened.
	HeadResolved int
	// Cached reports that the result came from a Server's query cache;
	// the remaining fields then describe the original execution.
	Cached bool
	// Strategy is the execution strategy the plan resolved or was forced to
	// ("index", "scan", "scantime"); empty only for the method-pinned
	// SelfJoin and for Subsequence, which run no plan.
	Strategy string
	// Spans is the execution's trace tree (plan → fan-out → merge with
	// per-shard timings; a statement's opens with its parse span).
	Spans []SpanInfo
	// RequestID is the query's correlation ID, stamped by the Server
	// layer: the same ID appears in slow-log entries, retained traces
	// (GET /traces), and log lines, so any one signal resolves to the
	// others. Empty on direct DB-level executions.
	RequestID string
	// Delta is the approximation slack the execution ran under (0 =
	// exact); Rung is the planner's estimated accepting ladder
	// checkpoint. EarlyAccepts counts candidates accepted from the
	// truncated bound without a full verification walk, and
	// BoundTightness is their mean realized lower/upper bound ratio
	// (1 = the bound closed exactly; 0 when no early accepts happened).
	Delta          float64
	Rung           int
	EarlyAccepts   int
	BoundTightness float64
}

// SpanInfo is one timed step of a query execution's trace tree.
type SpanInfo struct {
	// Name identifies the step: "parse" (statements only), "plan",
	// "fanout", "shard", "search", "merge", "cache-tag".
	Name string
	// Shard is the shard a shard-scoped span ran on; -1 otherwise.
	Shard int
	// Duration is the span's wall time.
	Duration time.Duration
	// HeadResolved, on "search" and "scan" spans, is the candidates the
	// step verified without opening their pages.
	HeadResolved int
	// Children are the nested steps, in execution order.
	Children []SpanInfo
}

func spansFrom(spans []core.Span) []SpanInfo {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanInfo, len(spans))
	for i, s := range spans {
		out[i] = SpanInfo{
			Name:         s.Name,
			Shard:        s.Shard,
			Duration:     s.Duration,
			HeadResolved: s.HeadResolved,
			Children:     spansFrom(s.Children),
		}
	}
	return out
}

// fromExec renders an execution's cost; lead is what ran before the engine
// (parse, plan) and opens the span tree.
func fromExec(st core.ExecStats, lead ...SpanInfo) Stats {
	out := Stats{
		Elapsed:      st.Elapsed,
		NodeAccesses: st.NodeAccesses,
		PageReads:    st.PageReads,
		Candidates:   st.Candidates,
		HeadResolved: st.HeadResolved,
		Strategy:     st.Strategy,
		Spans:        append(lead, spansFrom(st.Spans)...),
		Delta:        st.Delta,
		Rung:         st.Rung,
		EarlyAccepts: st.EarlyAccepts,
	}
	if st.EarlyAccepts > 0 {
		out.BoundTightness = st.BoundTightSum / float64(st.EarlyAccepts)
	}
	return out
}

// Strategy selects the execution plan for Range and NN queries. Naming one
// forces the plan, it does not bypass it: a forced read is planned, traced,
// recorded in the plan history and fed back to the planner like any other.
type Strategy int

const (
	// UseIndex runs the paper's Algorithm 2 over the k-index. The default
	// for the library API (the query language and HTTP API default to
	// UseAuto instead).
	UseIndex Strategy = iota
	// UseScan runs the frequency-domain sequential scan with early
	// abandoning (the paper's stronger baseline).
	UseScan
	// UseScanTime runs the naive time-domain scan. NN queries have no
	// time-domain baseline and run the frequency scan instead.
	UseScanTime
	// UseAuto lets the query planner choose between UseIndex and UseScan
	// per query from maintained per-store statistics (series count,
	// feature-space spread, measured selectivity). Answers are identical
	// under every strategy; only cost differs. Moment-bounded queries pin
	// the index (the scan baselines deliberately ignore mean/std bounds).
	UseAuto
)

// QueryOpt refines Range and NN queries.
type QueryOpt func(*queryOpts)

type queryOpts struct {
	strategy Strategy
	moments  feature.MomentBounds
	both     bool
	delta    float64
	// reqID is the caller-supplied correlation ID (see WithRequest). It
	// is deliberately excluded from cache keys: two identical queries
	// with different request IDs are the same query.
	reqID string
}

// With selects the execution strategy.
func With(s Strategy) QueryOpt {
	return func(o *queryOpts) { o.strategy = s }
}

// WithRequest attaches a correlation ID to a Server query: the ID is
// stamped into the returned Stats, the slow-query log, the retained
// flight-recorder trace, and (at the HTTP layer) log lines and error
// responses. The server boundary adopts a client's X-TSQ-Request-ID
// header through this option; embedded callers may pass their own.
// Queries without one get a freshly minted ID. The ID never enters
// cache keys, so it does not fragment the result cache. Ignored by
// DB-level queries, which have no observability session.
func WithRequest(id string) QueryOpt {
	return func(o *queryOpts) { o.reqID = id }
}

// WithApprox runs the query approximately with a guaranteed (1+delta)
// error bound: range answers are a superset of the exact answer set and
// every reported Match carries Distance <= true distance <= Bound with
// Bound <= (1+delta)*eps; NN answers report each rank within a (1+delta)
// factor of the exact k-th distance. delta 0 (or a negative value,
// clamped) runs the exact path byte-identically. The engine trades the
// slack for latency by early-accepting candidates from Lemma 1's
// truncated-coefficient bounds instead of completing every verification
// walk.
func WithApprox(delta float64) QueryOpt {
	return func(o *queryOpts) {
		if delta > 0 {
			o.delta = delta
		}
	}
}

// TransformBoth applies the transformation to the query as well as the
// stored series, so answers satisfy D(T(nf(x)), T(nf(q))) <= eps — the
// semantics of the paper's motivating examples ("their 3-day moving
// averages look the same") and of join method (d). Without this option
// the transformation applies to the stored side only, matching the
// paper's formal Query statement. Incompatible with Warp.
func TransformBoth() QueryOpt {
	return func(o *queryOpts) { o.both = true }
}

// MeanRange restricts answers to stored series whose mean lies in
// [lo, hi] — the GK95-style shift bound the paper's mean/std index
// dimensions enable.
func MeanRange(lo, hi float64) QueryOpt {
	return func(o *queryOpts) {
		if o.moments == (feature.MomentBounds{}) {
			o.moments = feature.Unbounded()
		}
		o.moments.MeanLo, o.moments.MeanHi = lo, hi
	}
}

// StdRange restricts answers by standard deviation (scale bound).
func StdRange(lo, hi float64) QueryOpt {
	return func(o *queryOpts) {
		if o.moments == (feature.MomentBounds{}) {
			o.moments = feature.Unbounded()
		}
		o.moments.StdLo, o.moments.StdHi = lo, hi
	}
}

func toMatches(res []core.Result) []Match {
	out := make([]Match, len(res))
	for i, r := range res {
		out[i] = Match{Name: r.Name, Distance: r.Dist, Bound: r.Bound}
	}
	return out
}

// Range finds every stored series x with D(T(nf(x)), nf(q)) <= eps, where
// nf is the normal form. For Warp(m) transforms the query must have length
// m * Length(). Results are sorted by distance.
func (db *DB) Range(q []float64, eps float64, t Transform, opts ...QueryOpt) ([]Match, Stats, error) {
	return matchesOf(db.read(rangeSpec("", q, eps, t, opts)))
}

// RangeByName runs Range with a stored series as the query. Because the
// query is a stored record, its plan reuses the indexed feature point
// and stored spectrum instead of recomputing them from the raw values.
func (db *DB) RangeByName(name string, eps float64, t Transform, opts ...QueryOpt) ([]Match, Stats, error) {
	return matchesOf(db.read(rangeSpec(name, nil, eps, t, opts)))
}

// NN finds the k stored series minimizing D(T(nf(x)), nf(q)), sorted by
// distance. Moment bounds (MeanRange, StdRange) apply to range queries
// only and are rejected here.
func (db *DB) NN(q []float64, k int, t Transform, opts ...QueryOpt) ([]Match, Stats, error) {
	return matchesOf(db.read(nnSpec("", q, k, t, opts)))
}

// NNByName runs NN with a stored series as the query. Like RangeByName,
// the plan reuses the stored record's indexed feature point and spectrum.
func (db *DB) NNByName(name string, k int, t Transform, opts ...QueryOpt) ([]Match, Stats, error) {
	return matchesOf(db.read(nnSpec(name, nil, k, t, opts)))
}

// JoinMethod selects the Table 1 self-join strategy.
type JoinMethod int

const (
	// JoinScanNaive is Table 1's method (a): nested sequential scan, no
	// early abandoning.
	JoinScanNaive JoinMethod = iota
	// JoinScanEarlyAbandon is method (b): nested scan with early
	// abandoning.
	JoinScanEarlyAbandon
	// JoinIndexPlain is method (c): index-nested-loop without the
	// transformation (each pair reported twice).
	JoinIndexPlain
	// JoinIndexTransform is method (d): index-nested-loop with the
	// transformation applied to index and search rectangles (each pair
	// reported twice).
	JoinIndexTransform
	// JoinAuto lets the query planner choose among the Table 1 methods per
	// join from store cardinality, sampled eps selectivity, and measured
	// join feedback. Planned joins answer canonically — each qualifying
	// unordered pair reported once with A < B — so every strategy the
	// planner may choose returns byte-identical pairs; the method-pinned
	// constants above keep the paper's exact per-method accounting
	// instead. The default for the query language and the HTTP API.
	JoinAuto
)

// SelfJoin finds all pairs of distinct stored series (x, y) with
// D(T(nf(x)), T(nf(y))) <= eps using the chosen method. Scan methods
// report each unordered pair once; index methods report each pair twice
// (Table 1's accounting); JoinAuto defers the method to the planner and
// reports each pair once (the planned joins' canonical accounting).
func (db *DB) SelfJoin(eps float64, t Transform, method JoinMethod) ([]Pair, Stats, error) {
	return pairsOf(db.read(selfJoinSpec(eps, t, method, nil)))
}

// selfJoinSpec states SelfJoin's read: the planned self join under JoinAuto,
// else the join pinned to one of Table 1's methods.
func selfJoinSpec(eps float64, t Transform, method JoinMethod, opts []QueryOpt) readSpec {
	sp := joinSpec(readSelfJoin, eps, t, Transform{}, UseAuto, opts)
	sp.method = method
	return sp
}

// runPinnedSelfJoin executes a self join pinned to a Table 1 method. It
// runs no plan — the paper's per-method accounting (index methods report
// pairs twice, method c ignores the transformation) is part of its answer —
// so what EXPLAIN gets is descriptive: what ran, where, at what measured
// cost.
func (db *DB) runPinnedSelfJoin(sp readSpec) (result, error) {
	if sp.method < 0 || int(sp.method) >= len(pinnedJoinMethods) {
		return result{}, fmt.Errorf("tsq: unknown join method %d", int(sp.method))
	}
	m := pinnedJoinMethods[sp.method]
	jq, err := db.joinQuery(sp)
	if err != nil {
		return result{}, err
	}
	pairs, st, err := db.eng.SelfJoin(sp.eps, jq.Left, m.engine)
	if err != nil {
		return result{}, err
	}
	out := result{pairs: db.toPairs(pairs), stats: fromExec(st, sp.leadSpans()...)}
	if sp.explain {
		letter := string(rune('a' + int(sp.method)))
		out.explain = explainFrom(&plan.Plan{
			Kind:      "selfjoin",
			Transform: jq.Left.String(),
			Eps:       sp.eps,
			Strategy:  m.strategy,
			Method:    letter,
			Forced:    true,
			Reason:    fmt.Sprintf("Table 1 method (%s): %s", letter, m.name),
			Shards:    plan.AllShards(db.Shards()),
			Est:       plan.Estimate{Series: db.eng.Len()},
		}, st)
	}
	return out, nil
}

// pinnedJoinMethods names, per Table 1 method, the engine's method, the
// mechanism it runs on and what the paper calls it.
var pinnedJoinMethods = [...]struct {
	engine   core.JoinMethod
	strategy plan.Strategy
	name     string
}{
	JoinScanNaive:        {core.JoinScanNaive, plan.ScanTime, "nested sequential scan, no early abandoning"},
	JoinScanEarlyAbandon: {core.JoinScanEarlyAbandon, plan.ScanFreq, "nested scan with early abandoning"},
	JoinIndexPlain:       {core.JoinIndexPlain, plan.Index, "index-nested-loop without the transformation"},
	JoinIndexTransform:   {core.JoinIndexTransform, plan.Index, "index-nested-loop with the transformation"},
}

// SelfJoinPlanned runs the planned self join: the planner prices the
// paper's Table 1 methods and executes the cheapest (strategy UseAuto),
// or the forced mechanism (UseIndex = index-nested-loop, UseScan =
// early-abandoning nested scan, UseScanTime = naive nested scan). Every
// strategy answers identically: each qualifying unordered pair once,
// A < B, sorted.
func (db *DB) SelfJoinPlanned(eps float64, t Transform, strategy Strategy) ([]Pair, Stats, error) {
	return pairsOf(db.read(joinSpec(readSelfJoin, eps, t, Transform{}, strategy, nil)))
}

// JoinTwoSided finds all ordered pairs (x, y), x != y, with
// D(L(nf(x)), R(nf(y))) <= eps — different transformations on the two join
// sides, e.g. L = Reverse().Then(MovingAverage(20)), R = MovingAverage(20)
// for Example 2.2's opposite-movement stocks. The join method is chosen
// by the planner (see JoinTwoSidedPlanned to force one); answers are
// identical under every method.
func (db *DB) JoinTwoSided(eps float64, left, right Transform) ([]Pair, Stats, error) {
	return db.JoinTwoSidedPlanned(eps, left, right, UseAuto)
}

// JoinTwoSidedPlanned is JoinTwoSided with an explicit strategy request
// (UseAuto lets the planner choose).
func (db *DB) JoinTwoSidedPlanned(eps float64, left, right Transform, strategy Strategy) ([]Pair, Stats, error) {
	return pairsOf(db.read(joinSpec(readJoin, eps, left, right, strategy, nil)))
}

func (db *DB) toPairs(pairs []core.JoinPair) []Pair {
	out := make([]Pair, len(pairs))
	for i, p := range pairs {
		out[i] = Pair{A: db.eng.Name(p.A), B: db.eng.Name(p.B), Distance: p.Dist}
	}
	return out
}

// Distance computes the plain Euclidean distance between the transformed
// normal forms of two raw series (without touching the DB) — the measure
// all queries are defined over. Both series must share a length; warp
// transforms are not supported here.
func Distance(x, y []float64, t Transform) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("tsq: length mismatch %d vs %d", len(x), len(y))
	}
	tx, err := t.Apply(normalForm(x))
	if err != nil {
		return 0, err
	}
	ty, err := t.Apply(normalForm(y))
	if err != nil {
		return 0, err
	}
	var sum float64
	for i := range tx {
		d := tx[i] - ty[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// SubseqMatch is one subsequence-search answer: the stored series, the
// offset of its best window, and that window's distance to the query.
type SubseqMatch struct {
	Name     string
	Offset   int
	Distance float64
}

// Subsequence finds the stored series containing a contiguous window
// within eps (raw Euclidean distance) of q, which may be shorter than the
// DB length — the whole-relation form of the paper's Example 1.2
// subsequence comparison. This is a time-domain scan: the whole-sequence
// index does not cover subsequences (that is FRM94's follow-up work).
func (db *DB) Subsequence(q []float64, eps float64) ([]SubseqMatch, Stats, error) {
	res, st, err := db.eng.SubsequenceScan(q, eps)
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]SubseqMatch, len(res))
	for i, r := range res {
		out[i] = SubseqMatch{Name: r.Name, Offset: r.Offset, Distance: r.Dist}
	}
	return out, fromExec(st), nil
}

// Update replaces the values stored under an existing name, in place: the
// series keeps its internal ID and its storage, and is left exactly as an
// insert of the same values would leave it. A replacement of the wrong length
// or with a non-finite value is rejected with the stored series untouched.
func (db *DB) Update(name string, values []float64) error {
	_, err := db.eng.Update(name, values)
	return err
}
