package tsq

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Server wraps a DB for long-lived concurrent use: many readers execute
// queries simultaneously while writers insert, update, and delete. It
// also keeps a small LRU cache of query results, keyed by the query's
// canonical encoding (source, eps/k, Transform.Canonical, strategy,
// bounds), so repeated queries — the common shape of dashboard and
// monitoring traffic — skip the engine entirely.
//
// There is one read discipline and one write discipline, whatever the
// store. Every write ends in commit, fed by what the engine returned for it
// under the shard's write lock: the event is published to the cache — version
// bump, write log and eviction in one step under the cache's lock — and then
// handed to the monitors. A query result is filed only if no write it cannot
// account for was published between the query starting and finishing, so a
// reader that overlapped an eviction can never re-insert a stale answer (see
// resultCache). The store's own synchronization sits underneath and has no
// part in that: it locks per shard internally at every shard count, so a
// writer to one shard never blocks readers of the others, and the Server adds
// no lock of its own around the engine.
//
// The cache is dependency-tagged. Every cached range or NN answer carries
// an invalidation predicate built from its own plan geometry — the
// query's Lemma 1 search rectangle, its membership set, and the shard set
// those members live in — and every single-series write (insert, update,
// delete, append) is checked against it: an entry survives when the
// written series is not the query series, is not among the cached
// matches, and (for writes that leave a feature point) the committed point
// misses the rectangle; a delete in a shard outside the entry's tag set
// is dismissed by the tag alone. Cached join answers carry the analogous
// proof over the whole store: the written point is tested against the
// join's transformed store extent expanded by eps (see joinAffected).
// Only barriers (large batch inserts, bulk loads, compaction) still purge
// everything — batches of at most smallBatchThreshold series
// emit per-name events instead (see InsertAll). Subsequence entries carry
// no predicate and are evicted on any write. A
// query-language statement is filed as the typed call it compiles to, under
// the same key and the same predicate.
//
// Server is the session layer behind cmd/tsqd's HTTP API, and equally
// usable embedded in any concurrent program.
type Server struct {
	db    *DB
	cache *resultCache
	hub   *stream.Hub // standing-query monitors (tsqlive)

	// testHookAfterCompute, when set, runs between a cache-miss
	// computation and its filing — test instrumentation for the
	// write-overlap window.
	testHookAfterCompute func()

	started time.Time

	// slow is the bounded slow-query log (newest slowLogCap entries),
	// guarded by slowMu; slowThreshold <= 0 disables it.
	slowMu        sync.Mutex
	slow          []SlowQuery
	slowThreshold time.Duration

	// flight is the tail-sampled trace store: per-{kind,strategy}
	// slowest-N and most-recent-N executions plus every error, each with
	// its full span tree, keyed by request ID (see Traces/TraceByID).
	// Nil disables retention.
	flight *flight.Recorder[[]SpanInfo]

	queries      atomic.Int64
	writes       atomic.Int64
	appends      atomic.Int64
	nodeAccesses atomic.Int64
	pageReads    atomic.Int64
	candidates   atomic.Int64
	headResolved atomic.Int64
	elapsed      atomic.Int64 // nanoseconds of real query execution
}

// ServerOptions configures a Server.
type ServerOptions struct {
	// CacheSize is the number of query results kept in the LRU cache.
	// 0 selects the default (256); negative disables caching.
	CacheSize int
	// MonitorRetain is the number of recent events retained per monitor
	// for watcher reconnect replay. 0 selects the default (256); negative
	// retains none (reconnecting watchers always get a fresh snapshot).
	MonitorRetain int
	// SlowThreshold is the server-side wall time beyond which a query is
	// retained in the slow-query log (Server.SlowQueries, /stats?slow=1).
	// 0 selects the default (25ms); negative disables the log.
	SlowThreshold time.Duration
	// TraceRetain is the flight recorder's per-{kind,strategy} retention
	// depth for both the most-recent and the slowest execution traces
	// (errors are retained separately and always). 0 selects the default
	// (8); negative disables trace retention entirely.
	TraceRetain int
}

// DefaultCacheSize is the result-cache capacity used when
// ServerOptions.CacheSize is zero.
const DefaultCacheSize = 256

// DefaultMonitorRetain is the per-monitor event retention used when
// ServerOptions.MonitorRetain is zero.
const DefaultMonitorRetain = 256

// NewServer wraps db. The Server owns the DB from here on: all access must
// go through Server methods or the locking guarantees are void.
func NewServer(db *DB, opts ServerOptions) *Server {
	size := opts.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	retain := opts.MonitorRetain
	if retain == 0 {
		retain = DefaultMonitorRetain
	}
	if retain < 0 {
		retain = 0
	}
	slow := opts.SlowThreshold
	if slow == 0 {
		slow = DefaultSlowThreshold
	}
	if slow < 0 {
		slow = 0
	}
	s := &Server{
		db:            db,
		cache:         newResultCache(size),
		hub:           stream.NewHub(retain),
		slowThreshold: slow,
		started:       time.Now(),
	}
	if opts.TraceRetain >= 0 {
		s.flight = flight.NewRecorder[[]SpanInfo](flight.Options{
			RecentN:  opts.TraceRetain,
			SlowestN: opts.TraceRetain,
		})
	}
	return s
}

// ServerStats is a point-in-time snapshot of a Server's cumulative
// counters — the paper's per-query cost measures (node accesses, page
// reads, verified candidates) summed over every query served, plus cache
// and traffic totals.
type ServerStats struct {
	Series int
	Length int
	Shards int

	Queries     int64
	Writes      int64
	Appends     int64
	Monitors    int
	CacheHits   int64
	CacheMisses int64
	CacheLen    int
	CacheCap    int

	// Cumulative execution cost over all non-cached queries.
	NodeAccesses int64
	PageReads    int64
	Candidates   int64
	// HeadResolved is how many of Candidates were decided in the resident
	// spectrum heads; the rest had their pages opened.
	HeadResolved int64
	Elapsed      time.Duration

	// Plans is the engine's recent executed-plan ring (oldest first):
	// every planned range/NN/join execution with its estimated-vs-actual
	// cost, so planner drift and mispredictions stay visible behind
	// /stats.
	Plans []PlanRecord

	// Drift is the engine's per-kind cost-error percentile history
	// (oldest first): every 16 executed plans of a kind freeze that
	// window's p50/p95 of |actual-est|/max(est,1), so calibration drift
	// over time stays visible where the ring alone shows only the
	// current population.
	Drift []PlanDriftPoint

	Uptime time.Duration
}

// PlanDriftPoint is one per-kind percentile checkpoint of planner cost
// error over time.
type PlanDriftPoint struct {
	Kind    string
	Seq     int64
	Samples int
	P50     float64
	P95     float64
}

// PlanRecord is one executed plan from the engine's history ring.
type PlanRecord struct {
	Seq                int64
	Kind               string
	Strategy           string
	Method             string
	Forced             bool
	Reason             string
	Series             int
	Shards             int
	EstCandidates      float64
	EstCost            float64
	ActualCandidates   int
	ActualNodeAccesses int
	Results            int
	ElapsedUS          float64
}

// Stats returns the Server's cumulative counters. It takes no shard lock —
// the series count is one shared acquisition of the store's catalog lock,
// which no writer holds across storage work, the window length and shard
// count are immutable after Open, and every other field is an atomic counter
// or internally synchronized — so a stats scrape never waits behind a query
// or a writer's critical section.
func (s *Server) Stats() ServerStats {
	hits, misses, cached := s.cache.counts()
	return ServerStats{
		Series:       s.db.Len(),
		Length:       s.db.Length(),
		Shards:       s.db.Shards(),
		Queries:      s.queries.Load(),
		Writes:       s.writes.Load(),
		Appends:      s.appends.Load(),
		Monitors:     len(s.hub.List()),
		CacheHits:    hits,
		CacheMisses:  misses,
		CacheLen:     cached,
		CacheCap:     s.cache.capacity,
		NodeAccesses: s.nodeAccesses.Load(),
		PageReads:    s.pageReads.Load(),
		Candidates:   s.candidates.Load(),
		HeadResolved: s.headResolved.Load(),
		Elapsed:      time.Duration(s.elapsed.Load()),
		Plans:        s.planHistory(),
		Drift:        s.planDrift(),
		Uptime:       time.Since(s.started),
	}
}

// planDrift converts the engine's cost-error checkpoint history to the
// public type.
func (s *Server) planDrift() []PlanDriftPoint {
	pts := s.db.eng.PlanDrift()
	if len(pts) == 0 {
		return nil
	}
	out := make([]PlanDriftPoint, len(pts))
	for i, p := range pts {
		out[i] = PlanDriftPoint{Kind: p.Kind, Seq: p.Seq, Samples: p.Samples, P50: p.P50, P95: p.P95}
	}
	return out
}

// planHistory converts the engine's executed-plan ring to the public
// record type.
func (s *Server) planHistory() []PlanRecord {
	recs := s.db.eng.PlanHistory()
	out := make([]PlanRecord, len(recs))
	for i, r := range recs {
		out[i] = PlanRecord{
			Seq:                r.Seq,
			Kind:               r.Kind,
			Strategy:           r.Strategy,
			Method:             r.Method,
			Forced:             r.Forced,
			Reason:             r.Reason,
			Series:             r.Series,
			Shards:             r.Shards,
			EstCandidates:      r.EstCandidates,
			EstCost:            r.EstCost,
			ActualCandidates:   r.ActualCandidates,
			ActualNodeAccesses: r.ActualNodeAccesses,
			Results:            r.Results,
			ElapsedUS:          r.ElapsedUS,
		}
	}
	return out
}

func (s *Server) record(st Stats) {
	s.nodeAccesses.Add(int64(st.NodeAccesses))
	s.pageReads.Add(st.PageReads)
	s.candidates.Add(int64(st.Candidates))
	s.headResolved.Add(int64(st.HeadResolved))
	s.elapsed.Add(int64(st.Elapsed))
}

// commit is where every write ends, once its mutation is visible in the
// store: the events are published to the cache (resultCache.publish: bump,
// log, evict — in that order, after the mutation, so a reader of
// pre-mutation state cannot file across it) and then handed to the monitors.
// It is the only function that does either. A put carries the core.Committed
// the engine took under the shard's write lock, so nothing is read back from
// the store; a rejected insert or a delete of a missing name commits nothing
// and evicts nothing. A barrier means one thing, whoever raises it —
// InsertBulk, an InsertAll past smallBatchThreshold or rolled back, Compact:
// nothing can be proved about what readers and monitor evaluations saw, so
// the cache is purged and every monitor re-evaluated in full.
func (s *Server) commit(evs ...writeEvent) {
	s.cache.publish(evs...)
	for _, ev := range evs {
		switch ev.kind {
		case writePut:
			s.hub.NotifyWrite(ev.name, ev.point)
		case writeDelete:
			s.hub.NotifyDelete(ev.name)
		default:
			s.hub.RefreshAll()
		}
	}
}

// put is the event of a committed insert, update or append.
func put(name string, c core.Committed) writeEvent {
	return writeEvent{kind: writePut, name: name, shard: c.Shard, point: c.Point}
}

// Insert stores a named series. See DB.Insert. The cache is invalidated
// selectively: a cached range or NN answer provably out of the new
// series' reach — its feature point misses the answer's Lemma 1 search
// rectangle — survives.
func (s *Server) Insert(name string, values []float64) error {
	c, err := s.db.eng.Insert(name, values)
	if err != nil {
		return err
	}
	s.writes.Add(1)
	s.commit(put(name, c))
	return nil
}

// smallBatchThreshold is the batch size up to which InsertAll emits
// per-name write events instead of a barrier: each event costs one predicate
// pass over the cache, so a small batch stays cheap while a bulk load (whose
// events would mostly purge everything anyway) keeps the single barrier.
const smallBatchThreshold = 16

// InsertAll inserts a batch atomically: on any error (duplicate name,
// wrong length) every series inserted so far is rolled back and the store
// is unchanged — unlike DB.InsertAll, which stops at the first error and
// keeps the prefix. Atomicity makes failed uploads cleanly retryable.
// Batches of at most smallBatchThreshold series commit one event per series,
// like Insert; larger ones commit a barrier.
func (s *Server) InsertAll(batch []NamedSeries) error {
	evs := make([]writeEvent, 0, len(batch))
	for _, b := range batch {
		c, err := s.db.eng.Insert(b.Name, b.Values)
		if err != nil {
			for j := len(evs) - 1; j >= 0; j-- {
				s.db.Delete(evs[j].name)
			}
			// The store is back to its pre-batch state, but the rolled-back
			// inserts were visible to concurrent queries and monitor
			// evaluations (writes lock per shard, not the store), with no
			// committed point left to defend against.
			if len(evs) > 0 {
				s.writes.Add(1)
				s.commit(barrier)
			}
			return err
		}
		evs = append(evs, put(b.Name, c))
	}
	if len(evs) == 0 {
		return nil
	}
	if len(evs) > smallBatchThreshold {
		evs = []writeEvent{barrier}
	}
	s.writes.Add(1)
	s.commit(evs...)
	return nil
}

// InsertBulk bulk-loads a batch into an empty DB. See DB.InsertBulk. Even a
// failed bulk load commits its barrier: unlike Insert/Update, a late error
// can leave partial state behind.
func (s *Server) InsertBulk(batch []NamedSeries) error {
	err := s.db.InsertBulk(batch)
	s.writes.Add(1)
	s.commit(barrier)
	return err
}

// Update replaces the values stored under an existing name, in place. Cached
// entries survive when the replaced series was not among their answers
// and its new feature point misses their search rectangles.
func (s *Server) Update(name string, values []float64) error {
	c, err := s.db.eng.Update(name, values)
	if err != nil {
		return err
	}
	s.writes.Add(1)
	s.commit(put(name, c))
	return nil
}

// Append slides a stored series' window forward — an Update of the shifted
// window, so it commits the same event (the file comment of stream.go says
// what survives it). See DB.Append for the storage semantics.
func (s *Server) Append(name string, points []float64) error {
	c, err := s.db.eng.Append(name, points)
	if err != nil {
		return err
	}
	s.appends.Add(1)
	if telemetry.Enabled() {
		mAppends.Inc()
	}
	s.commit(put(name, c))
	return nil
}

// Delete removes a series by name, reporting whether it was present.
// Cached entries whose answers the deleted series did not appear in —
// checked through their shard tags first — survive.
func (s *Server) Delete(name string) bool {
	if !s.db.Delete(name) {
		return false
	}
	s.writes.Add(1)
	s.commit(writeEvent{kind: writeDelete, name: name, shard: s.db.eng.ShardOf(name)})
	return true
}

// Compact rebuilds the storage pages. See DB.Compact.
func (s *Server) Compact() (int, error) {
	n, err := s.db.Compact()
	s.writes.Add(1)
	s.commit(barrier)
	return n, err
}

// Len returns the number of stored series.
func (s *Server) Len() int { return s.db.Len() }

// Length returns the fixed series length.
func (s *Server) Length() int { return s.db.Length() }

// Shards returns the number of hash partitions the wrapped store runs
// with.
func (s *Server) Shards() int { return s.db.Shards() }

// Names returns the stored series names in insertion order.
func (s *Server) Names() []string { return s.db.Names() }

// Series returns a copy of the stored values for a name.
func (s *Server) Series(name string) ([]float64, error) { return s.db.Series(name) }

// WriteTo serializes a consistent snapshot of the DB. See DB.WriteTo (the
// store pins every shard for the duration, so the snapshot is a consistent
// cut even under concurrent writers).
func (s *Server) WriteTo(w io.Writer) (int64, error) { return s.db.WriteTo(w) }

// readID names one read for readQuery: the cache key, the kind label of its
// metrics, what the slow log and retained traces show for it, the caller's
// correlation ID, and whether it skips the cache.
type readID struct {
	key, kind, label, reqID string
	uncached                bool
}

// readQuery serves one query, consulting the result cache first.
//
// On a miss the query computes (the store takes its own per-shard read locks
// during the fan-out) and hands its answer to the cache with the write version
// the miss reported; the cache files it unless a write published since could
// have changed it (resultCache.file) — which is what keeps the cache warm under
// append bursts and still never lets a slow reader undo an eviction.
//
// An uncached read (EXPLAIN, TRACE, a progressive stage, a statement that
// did not compile) is the same read with the lookup and the filing skipped.
//
// Every served query also carries a correlation ID (minted here when the
// caller supplied none via WithRequest): it is stamped on the returned
// Stats, on any slow-log entry, and on the flight-recorder trace, so one ID
// resolves to the same execution across /stats?slow=1, /traces, and the
// server's log lines. The count → observe → slow-log → flight-record
// epilogue below is the only one: every read of every kind, however it
// arrived, ends in done.
func (s *Server) readQuery(id readID, compute func() (cachedResult, error)) (cachedResult, Stats, error) {
	s.queries.Add(1)
	start := time.Now()
	if id.reqID == "" {
		id.reqID = flight.NewID()
	}
	done := func(strategy, outcome, errMsg string, spans []SpanInfo) {
		elapsed := time.Since(start)
		observeQuery(id.kind, strategy, outcome, elapsed)
		if outcome == flight.OutcomeOK {
			s.slowRecord(id.label, elapsed, spans, id.reqID)
		}
		s.flightRecord(id.reqID, id.kind, strategy, outcome, id.label, errMsg, elapsed, spans)
	}
	var v0 int64
	if !id.uncached {
		r, v, ok := s.cache.get(id.key)
		if ok {
			st := r.stats
			st.Cached = true
			st.RequestID = id.reqID
			if telemetry.Enabled() {
				mCacheHits.Inc()
			}
			done(st.Strategy, flight.OutcomeCached, "", st.Spans)
			return r, st, nil
		}
		if telemetry.Enabled() {
			mCacheMisses.Inc()
		}
		v0 = v
	}
	r, err := compute()
	if err != nil {
		done("", flight.OutcomeError, err.Error(), nil)
		return cachedResult{}, Stats{}, err
	}
	if s.testHookAfterCompute != nil {
		s.testHookAfterCompute()
	}
	st := r.stats
	if !id.uncached {
		tagStart := time.Now()
		s.cache.file(id.key, v0, r)
		st = withCacheTag(st, time.Since(tagStart))
	}
	st.RequestID = id.reqID
	s.record(r.stats)
	done(st.Strategy, flight.OutcomeOK, "", st.Spans)
	return r, st, nil
}

// clone copies a filed answer for handing out (never nil, like a fresh one).
func clone[T any](in []T) []T {
	out := make([]T, len(in))
	copy(out, in)
	return out
}

// caching reports whether the result cache can hold anything. A server
// opened with CacheSize < 0 answers every read from the engine, so what a
// read would pay only to file its answer — hashing a raw query vector into
// the key, building the entry's invalidation predicate — is skipped.
func (s *Server) caching() bool { return s.cache.capacity > 0 }

// read serves one spec — a typed call's or a compiled statement's, the two
// are the same value — through readQuery: the cache key and the filed
// entry's invalidation predicate both derive from the spec's kind, and the
// predicate is built from the Lemma 1 filter of the plan that ran, so the
// query is planned once. What is handed out is a clone
// of the filed answer, cut to the spec's LIMIT.
func (s *Server) read(sp readSpec) (*Output, error) {
	id := readID{key: sp.key(s.caching()), kind: sp.kind.String(), label: sp.text, reqID: sp.opts.reqID, uncached: sp.uncached()}
	if id.label == "" {
		id.label = id.key // a typed call is logged under its key, a statement as written
	}
	var explain *ExplainInfo
	r, st, err := s.readQuery(id, func() (cachedResult, error) {
		res, err := s.db.run(sp)
		if err != nil {
			return cachedResult{}, err
		}
		explain = res.explain
		out := cachedResult{matches: res.matches, pairs: res.pairs, stats: res.stats}
		if s.caching() && !sp.uncached() {
			out.affected, out.shards = s.affectedFor(sp, res)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return sp.output(result{
		matches: clone(head(r.matches, sp.limit)),
		pairs:   clone(head(r.pairs, sp.limit)),
		stats:   st,
		explain: explain,
	}), nil
}

// Range runs DB.Range with result caching.
func (s *Server) Range(q []float64, eps float64, t Transform, opts ...QueryOpt) ([]Match, Stats, error) {
	return matchesOf(s.read(rangeSpec("", q, eps, t, opts)))
}

// RangeByName runs DB.RangeByName with result caching.
func (s *Server) RangeByName(name string, eps float64, t Transform, opts ...QueryOpt) ([]Match, Stats, error) {
	return matchesOf(s.read(rangeSpec(name, nil, eps, t, opts)))
}

// NN runs DB.NN with result caching.
func (s *Server) NN(q []float64, k int, t Transform, opts ...QueryOpt) ([]Match, Stats, error) {
	return matchesOf(s.read(nnSpec("", q, k, t, opts)))
}

// NNByName runs DB.NNByName with result caching.
func (s *Server) NNByName(name string, k int, t Transform, opts ...QueryOpt) ([]Match, Stats, error) {
	return matchesOf(s.read(nnSpec(name, nil, k, t, opts)))
}

// SelfJoin runs DB.SelfJoin with result caching.
// Cached join entries are dependency-tagged with the join's transformed
// store extent: single-series writes provably out of eps reach of every
// stored series retain them (see joinAffected).
// Join and subsequence methods accept QueryOpts for the cross-cutting
// options only (WithRequest); strategy/moment options are meaningless
// here and ignored.
func (s *Server) SelfJoin(eps float64, t Transform, method JoinMethod, opts ...QueryOpt) ([]Pair, Stats, error) {
	return pairsOf(s.read(selfJoinSpec(eps, t, method, opts)))
}

// SelfJoinPlanned runs DB.SelfJoinPlanned (cost-based join method
// selection under UseAuto) with result caching.
func (s *Server) SelfJoinPlanned(eps float64, t Transform, strategy Strategy, opts ...QueryOpt) ([]Pair, Stats, error) {
	return pairsOf(s.read(joinSpec(readSelfJoin, eps, t, Transform{}, strategy, opts)))
}

// JoinTwoSided runs DB.JoinTwoSided with result caching.
func (s *Server) JoinTwoSided(eps float64, left, right Transform, opts ...QueryOpt) ([]Pair, Stats, error) {
	return s.JoinTwoSidedPlanned(eps, left, right, UseAuto, opts...)
}

// JoinTwoSidedPlanned is JoinTwoSided with an explicit strategy request,
// with result caching.
func (s *Server) JoinTwoSidedPlanned(eps float64, left, right Transform, strategy Strategy, opts ...QueryOpt) ([]Pair, Stats, error) {
	return pairsOf(s.read(joinSpec(readJoin, eps, left, right, strategy, opts)))
}

// Subsequence runs DB.Subsequence with result caching.
func (s *Server) Subsequence(q []float64, eps float64, opts ...QueryOpt) ([]SubseqMatch, Stats, error) {
	key := fmt.Sprintf("subseq|v=%s|eps=%g", valuesKey(q, s.caching()), eps)
	r, st, err := s.readQuery(readID{key: key, kind: "subseq", label: key, reqID: applyOpts(opts).reqID}, func() (cachedResult, error) {
		m, qst, err := s.db.Subsequence(q, eps)
		if err != nil {
			return cachedResult{}, err
		}
		return cachedResult{subseq: m, stats: qst}, nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return clone(r.subseq), st, nil
}

// Query parses and executes one statement of the query language. The
// statement compiles to the read the typed methods state for the same query
// (see compile), so it shares their cache entries — whatever its spelling,
// case, whitespace or LIMIT — and their plan-derived invalidation: a cached
// RANGE or NN statement survives every write that provably cannot change
// its answer. EXPLAIN and TRACE statements bypass the cache: their value is
// the live plan (and the estimated-vs-actual comparison) or the live span
// timings, which a cached answer would fossilize. Of opts only WithRequest
// applies.
func (s *Server) Query(src string, opts ...QueryOpt) (*Output, error) {
	return s.read(compileText(src, opts))
}

// QueryProgressive executes a RANGE or NN statement progressively: the
// approximate stage (the statement's APPROX delta, or
// DefaultProgressiveDelta when it carries none) is computed and emitted
// first, then the exact refinement follows as the final stage. Each
// stage is a read of its own — counted, recorded under the request's one
// ID, and holding shard locks only while it executes — so writers are
// never blocked while a stage is being delivered to a slow consumer; the
// exact refinement reflects writes that landed between the stages.
// Progressive results bypass the cache — their value is the live
// two-stage delivery.
func (s *Server) QueryProgressive(src string, emit func(ProgressiveStage) error, opts ...QueryOpt) error {
	return progressive(compileText(src, opts), s.read, emit)
}
