package tsq

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/plan"
	"repro/internal/transform"
)

// This file is the one read body above internal/core. A similarity query is
// one triple — a query object, a transformation, and eps or k — and every way
// of asking for one (a typed DB or Server method, a query-language statement,
// a standing monitor's evaluation) first states it as a readSpec and then
// runs it through DB.run. The typed methods are spec builders; compile
// (language.go) is the statement front end; Server.read (server.go) files the
// answer under the key and the invalidation predicate the spec's kind names.

// readKind is the query kind of a read. Its String is the kind label of the
// query metrics and of flight-recorder entries, so typed and statement reads
// of one kind share a label by construction.
type readKind uint8

const (
	readRange readKind = iota
	readNN
	readSelfJoin
	readJoin
	// readInvalid is a statement that did not parse or compile: the spec
	// carries its text and its error, so a Server counts and records the
	// failure through the same epilogue as any other read.
	readInvalid
)

var readKindNames = [...]struct{ label, keyword string }{
	readRange:    {"range", "RANGE"},
	readNN:       {"nn", "NN"},
	readSelfJoin: {"selfjoin", "SELFJOIN"},
	readJoin:     {"join", "JOIN"},
	readInvalid:  {"statement", "STATEMENT"},
}

func (k readKind) String() string { return readKindNames[k].label }

// readSpec describes one read: what is asked, how to execute it, and how to
// hand the answer out.
type readSpec struct {
	kind readKind
	// name is the query series of a by-name range or NN read; values is the
	// literal query series when name is empty.
	name   string
	values []float64
	eps    float64 // range and joins
	k      int     // NN
	// t is the transformation; for a two-sided join, its left side and
	// right the other.
	t, right Transform
	// opts carries the strategy, the moment bounds (range only), the
	// both-sides flag, the approximation slack and the request ID.
	opts queryOpts
	// method pins a self join to one of Table 1's methods, with the paper's
	// per-method accounting; JoinAuto leaves the join to the planner.
	method JoinMethod
	// limit caps the answer handed out (0 = all of it); the answer filed
	// in a Server's cache is never truncated.
	limit int
	// explain and trace attach the plan and the span tree to the output;
	// bypass marks a progressive stage. All three make the read uncached.
	explain, trace, bypass bool
	// text is the statement the read arrived as ("" for a typed call) and
	// parse what reading it cost; retained traces show the text.
	text  string
	parse time.Duration
	// err is why the spec cannot run: run returns it before touching the
	// store.
	err error
}

// newSpec is the one place a read is stated, and so the one place a read
// that cannot mean anything is refused.
func newSpec(kind readKind, name string, values []float64, t Transform, qo queryOpts) readSpec {
	sp := readSpec{kind: kind, name: name, values: values, t: t, opts: qo, method: JoinAuto}
	if kind != readRange && qo.moments != (feature.MomentBounds{}) {
		sp.err = fmt.Errorf("tsq: moment bounds apply to RANGE queries only, not %s", readKindNames[kind].keyword)
	}
	return sp
}

func rangeSpec(name string, values []float64, eps float64, t Transform, opts []QueryOpt) readSpec {
	sp := newSpec(readRange, name, values, t, applyOpts(opts))
	sp.eps = eps
	return sp
}

func nnSpec(name string, values []float64, k int, t Transform, opts []QueryOpt) readSpec {
	sp := newSpec(readNN, name, values, t, applyOpts(opts))
	sp.k = k
	return sp
}

// joinSpec states a self join (kind readSelfJoin, right unused) or a
// two-sided join. Of a typed join's QueryOpts only the request ID applies.
func joinSpec(kind readKind, eps float64, left, right Transform, strategy Strategy, opts []QueryOpt) readSpec {
	sp := newSpec(kind, "", nil, left, queryOpts{strategy: strategy, reqID: applyOpts(opts).reqID})
	sp.eps, sp.right = eps, right
	return sp
}

func applyOpts(opts []QueryOpt) queryOpts {
	var qo queryOpts
	for _, o := range opts {
		o(&qo)
	}
	return qo
}

// uncached reports whether the read must execute and must not be filed:
// EXPLAIN and TRACE are worth their live plan and timings, a progressive
// stage its live two-stage delivery, and a failed spec has nothing to file.
func (sp readSpec) uncached() bool {
	return sp.explain || sp.trace || sp.bypass || sp.err != nil
}

// key renders the read's cache key: everything that decides the answer
// (source, eps or k, Transform.Canonical, strategy, both-sides, delta,
// moment bounds, join method) and nothing that does not (request ID, LIMIT,
// spelling) — so a statement and the typed call it compiles to share an
// entry. hash says whether a literal query vector is hashed into the key;
// without a cache the key only labels the read, and the length does that.
// It is built by appending into one buffer: a range or NN key is
//
//	kind|n="name"|eps=%g|k=%d|t=canonical|s%d.b%t.d%g.m(-|%g:%g:%g:%g)
//
// (v=length.hash for a literal series), a join key kind|eps=%g|l=…|r=…|m=%d
// for a pinned Table 1 method and …|u=%d (the strategy) otherwise.
func (sp readSpec) key(hash bool) string {
	var buf [192]byte
	b := append(buf[:0], sp.kind.String()...)
	switch sp.kind {
	case readRange, readNN:
		if sp.name == "" {
			b = append(append(b, "|v="...), valuesKey(sp.values, hash)...)
		} else {
			b = strconv.AppendQuote(append(b, "|n="...), sp.name)
		}
		b = appendG(append(b, "|eps="...), sp.eps)
		b = strconv.AppendInt(append(b, "|k="...), int64(sp.k), 10)
		b = append(append(b, "|t="...), sp.t.Canonical()...)
		b = strconv.AppendInt(append(b, "|s"...), int64(sp.opts.strategy), 10)
		b = strconv.AppendBool(append(b, ".b"...), sp.opts.both)
		b = appendG(append(b, ".d"...), sp.opts.delta)
		b = appendMoments(append(b, ".m"...), sp.opts.moments)
	case readSelfJoin, readJoin:
		b = appendG(append(b, "|eps="...), sp.eps)
		b = append(append(b, "|l="...), sp.t.Canonical()...)
		b = append(append(b, "|r="...), sp.right.Canonical()...)
		// A pinned Table 1 method is part of the answer (m=), a planned
		// join's strategy is not but always was part of the key (u=).
		if sp.method != JoinAuto {
			b = strconv.AppendInt(append(b, "|m="...), int64(sp.method), 10)
		} else {
			b = strconv.AppendInt(append(b, "|u="...), int64(sp.opts.strategy), 10)
		}
	default:
		return sp.text
	}
	return string(b)
}

// appendG appends x as fmt's %g writes it.
func appendG(b []byte, x float64) []byte { return strconv.AppendFloat(b, x, 'g', -1, 64) }

// valuesKey hashes a literal query series for use in cache keys. SHA-256
// makes accidental (or adversarial) key collisions between different
// query vectors a non-concern.
func valuesKey(v []float64, hash bool) string {
	if !hash {
		return strconv.Itoa(len(v)) + ".-"
	}
	h := sha256.New()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return strconv.Itoa(len(v)) + "." + hex.EncodeToString(h.Sum(nil))
}

// appendMoments appends the moment bounds' part of a key: "-" when there
// are none.
func appendMoments(b []byte, m feature.MomentBounds) []byte {
	if m == (feature.MomentBounds{}) {
		return append(b, '-')
	}
	b = appendG(b, m.MeanLo)
	b = appendG(append(b, ':'), m.MeanHi)
	b = appendG(append(b, ':'), m.StdLo)
	return appendG(append(b, ':'), m.StdHi)
}

// result is one executed read before it is handed out: the whole answer,
// its cost, the plan when the spec asked to see it, and the Lemma 1 filter
// of the plan that ran — which a Server keeps as the filed answer's
// invalidation test.
type result struct {
	matches []Match
	pairs   []Pair
	stats   Stats
	explain *ExplainInfo
	filter  *core.Prefilter
}

// source resolves the query side of a range or NN spec: the
// transformation at this store's length and the query series — for a
// by-name read the stored record's values plus its planning artifacts, so
// the plan reuses the indexed feature point and the stored spectrum instead
// of recomputing both.
func (db *DB) source(sp readSpec) (values []float64, prep *core.QueryPrep, tr transform.T, warp int, err error) {
	if tr, warp, err = sp.t.materialize(db.Length()); err != nil {
		return nil, nil, tr, 0, err
	}
	if sp.name == "" {
		return sp.values, nil, tr, warp, nil
	}
	id, ok := db.eng.IDByName(sp.name)
	if !ok {
		return nil, nil, tr, 0, fmt.Errorf("tsq: %w %q", core.ErrUnknownSeries, sp.name)
	}
	if values, err = db.eng.Series(id); err != nil {
		return nil, nil, tr, 0, err
	}
	prep, _ = db.eng.QueryPrep(id)
	return values, prep, tr, warp, nil
}

// rangeQuery is the engine's range query for a spec — also the shape a
// standing monitor's prefilter and per-series check are built from, an NN
// monitor's included (eps is then supplied per test).
func (db *DB) rangeQuery(sp readSpec) (core.RangeQuery, error) {
	values, prep, tr, warp, err := db.source(sp)
	if err != nil {
		return core.RangeQuery{}, err
	}
	return core.RangeQuery{
		Values:     values,
		Eps:        sp.eps,
		Delta:      sp.opts.delta,
		Transform:  tr,
		Moments:    sp.opts.moments,
		WarpFactor: warp,
		BothSides:  sp.opts.both,
		Prep:       prep,
	}, nil
}

func (db *DB) nnQuery(sp readSpec) (core.NNQuery, error) {
	values, prep, tr, warp, err := db.source(sp)
	if err != nil {
		return core.NNQuery{}, err
	}
	return core.NNQuery{Values: values, K: sp.k, Delta: sp.opts.delta, Transform: tr, WarpFactor: warp, BothSides: sp.opts.both, Prep: prep}, nil
}

// joinQuery is the engine's all-pairs query for a join spec.
func (db *DB) joinQuery(sp readSpec) (core.JoinQuery, error) {
	lt, lw, err := sp.t.materialize(db.Length())
	if err != nil {
		return core.JoinQuery{}, err
	}
	rt, rw := lt, lw // a self join has the one transformation on both sides
	if sp.kind == readJoin {
		if rt, rw, err = sp.right.materialize(db.Length()); err != nil {
			return core.JoinQuery{}, err
		}
	}
	if lw != 0 || rw != 0 {
		return core.JoinQuery{}, fmt.Errorf("tsq: warp is not supported in joins")
	}
	return core.JoinQuery{Eps: sp.eps, Left: lt, Right: rt, TwoSided: sp.kind == readJoin}, nil
}

// planWant maps the library's Strategy vocabulary onto the planner's.
func planWant(s Strategy) (plan.Strategy, error) {
	switch s {
	case UseAuto:
		return plan.Auto, nil
	case UseIndex:
		return plan.Index, nil
	case UseScan:
		return plan.ScanFreq, nil
	case UseScanTime:
		return plan.ScanTime, nil
	default:
		return plan.Auto, fmt.Errorf("tsq: unknown strategy %d", int(s))
	}
}

// run executes one read the way every read runs: build the engine's query,
// plan it — the caller's strategy forced, or UseAuto left to the planner —
// and execute the plan. The planning step is timed here, for every caller,
// and opens the span tree (after the parse span of a statement).
func (db *DB) run(sp readSpec) (result, error) {
	if sp.err != nil {
		return result{}, sp.err
	}
	if sp.kind == readSelfJoin && sp.method != JoinAuto {
		return db.runPinnedSelfJoin(sp)
	}
	want, err := planWant(sp.opts.strategy)
	if err != nil {
		return result{}, err
	}
	var (
		planFn func() (*plan.Plan, error)
		execFn func(*plan.Plan) (core.ExecStats, error)
		res    []core.Result
		pairs  []core.JoinPair
	)
	switch sp.kind {
	case readRange:
		rq, err := db.rangeQuery(sp)
		if err != nil {
			return result{}, err
		}
		planFn = func() (*plan.Plan, error) { return db.eng.PlanRange(rq, want) }
		execFn = func(pl *plan.Plan) (st core.ExecStats, err error) {
			res, st, err = db.eng.ExecRangeInto(rq, pl, nil)
			return st, err
		}
	case readNN:
		nq, err := db.nnQuery(sp)
		if err != nil {
			return result{}, err
		}
		planFn = func() (*plan.Plan, error) { return db.eng.PlanNN(nq, want) }
		execFn = func(pl *plan.Plan) (st core.ExecStats, err error) {
			res, st, err = db.eng.ExecNNInto(nq, pl, nil)
			return st, err
		}
	default:
		jq, err := db.joinQuery(sp)
		if err != nil {
			return result{}, err
		}
		planFn = func() (*plan.Plan, error) { return db.eng.PlanJoin(jq, want) }
		execFn = func(pl *plan.Plan) (st core.ExecStats, err error) {
			pairs, st, err = db.eng.ExecJoin(jq, pl)
			return st, err
		}
	}
	start := time.Now()
	pl, err := planFn()
	if err != nil {
		return result{}, err
	}
	planned := time.Since(start)
	pl.Trace = sp.trace
	st, err := execFn(pl)
	if err != nil {
		return result{}, err
	}
	out := result{
		matches: toMatches(res),
		pairs:   db.toPairs(pairs),
		stats:   fromExec(st, sp.leadSpans(SpanInfo{Name: "plan", Shard: -1, Duration: planned})...),
		filter:  st.Filter,
	}
	if sp.explain {
		out.explain = explainFrom(pl, st)
	}
	return out, nil
}

// leadSpans is what precedes the engine's span tree: the parse span of a
// statement, then the steps run recorded itself.
func (sp readSpec) leadSpans(steps ...SpanInfo) []SpanInfo {
	if sp.text == "" {
		return steps
	}
	return append([]SpanInfo{{Name: "parse", Shard: -1, Duration: sp.parse}}, steps...)
}

// output hands an executed read out in the statement shape: LIMIT applied,
// the plan attached for EXPLAIN, the span tree for TRACE.
func (sp readSpec) output(r result) *Output {
	out := &Output{
		Kind:    readKindNames[sp.kind].keyword,
		Matches: head(r.matches, sp.limit),
		Pairs:   head(r.pairs, sp.limit),
		Stats:   r.stats,
		Explain: r.explain,
	}
	if sp.trace {
		// Stats.Elapsed is engine execution only; fold the plan span back
		// in so Total covers planning plus execution.
		total := r.stats.Elapsed
		for _, s := range r.stats.Spans {
			if s.Name == "plan" {
				total += s.Duration
			}
		}
		out.Trace = &TraceInfo{Total: total, Spans: r.stats.Spans}
	}
	return out
}

// head is the first limit elements of s; all of it when limit is 0.
func head[T any](s []T, limit int) []T {
	if limit > 0 && len(s) > limit {
		return s[:limit]
	}
	return s
}

// read runs a spec against the store and hands the answer out.
func (db *DB) read(sp readSpec) (*Output, error) {
	r, err := db.run(sp)
	if err != nil {
		return nil, err
	}
	return sp.output(r), nil
}

// matchesOf and pairsOf unwrap a read for the typed methods.
func matchesOf(out *Output, err error) ([]Match, Stats, error) {
	if err != nil {
		return nil, Stats{}, err
	}
	return out.Matches, out.Stats, nil
}

func pairsOf(out *Output, err error) ([]Pair, Stats, error) {
	if err != nil {
		return nil, Stats{}, err
	}
	return out.Pairs, out.Stats, nil
}
