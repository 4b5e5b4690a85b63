package tsq

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/stream"
)

// This file is the public surface of tsqlive, the streaming subsystem:
// append-oriented ingest (DB.Append, Server.Append) and continuous
// standing queries (Server.MonitorRange / MonitorNN / Watch).
//
// # Appends
//
// Append slides a stored series' fixed-length window forward: the oldest
// points fall off, the new points arrive at the back, and the series keeps
// its name and internal ID. The engine derives the new window's feature
// point and stored spectrum exactly as an insert would, rewrites both
// storage records in place, and moves the R*-tree entry in place when the
// feature drifted little — so a series built by appends is bit-identical
// to the same window inserted whole, and answers every query identically.
//
// # Monitors
//
// A monitor is a registered range or k-NN query whose answer set the
// server maintains continuously: whenever a write could change membership
// — decided cheaply per append by testing the new feature point against
// the query's Section 3.1 search rectangle (the same Lemma 1 geometry the
// index filter uses), before any exact verification — the server verifies
// exactly and emits enter/leave events to every watcher.
//
// Event semantics: per monitor, events carry a strictly increasing Seq and
// every watcher receives them in Seq order. Membership is always verified
// against the live store, so when appends race, intermediate states may
// collapse — monitors converge on the store's current answer set rather
// than narrating every transient. A slow watcher's buffer may overflow, in
// which case events are dropped (counted by Watch.Dropped) and the watcher
// should resubscribe for a fresh snapshot; the server retains the last
// ServerOptions.MonitorRetain events per monitor so a reconnecting watcher
// that asks to resume after a recent Seq gets a gapless replay instead.
//
// # Cache interaction
//
// An append commits the event an update commits — "this series now sits at
// this feature point", taken under the shard's write lock — and evicts from
// the result cache selectively: a cached range or NN answer survives when
// the appended series is not the query series, is not among the cached
// matches, and its new feature point misses the query's search rectangle —
// the Lemma 1 test proving the answer unchanged. A cached join answer is
// evicted by every append (see joinAffected). A query-language statement
// is filed as the typed call it compiles to, so it survives the same
// writes; subsequence entries are always evicted. Like every write an
// append bumps the cache's write version, so a query racing it can never
// file a stale answer (see resultCache).

// Append slides a stored series' window forward by the given points. Like
// every DB write it locks only the owning shard, and is safe beside
// concurrent reads and writes.
func (db *DB) Append(name string, points []float64) error {
	_, err := db.eng.Append(name, points)
	return err
}

// affectedPredicate is the shared core of the range and NN invalidation
// predicates: an entry is affected by a write when the written series is
// the query series or a cached member (it may leave or move), or when its
// committed feature point lands inside the answer's search rectangle at
// threshold eps (it may enter — Lemma 1's no-false-dismissals geometry,
// the same test the index filter runs). Deletes carry no point and decide
// on membership alone: a deleted non-member cannot change the answer.
func affectedPredicate(queryName string, matches []Match, pf *core.Prefilter, eps float64) func(writeEvent) bool {
	in := make(map[string]bool, len(matches))
	for _, m := range matches {
		in[m.Name] = true
	}
	return func(ev writeEvent) bool {
		if ev.name == queryName || in[ev.name] {
			return true
		}
		return ev.kind != writeDelete && pf.Hit(ev.point, eps)
	}
}

// affectedFor builds a filed answer's invalidation predicate, as the spec's
// kind names it, from the Lemma 1 filter of the plan that ran. A nil
// predicate means "cannot prove anything — always invalidate".
func affectedFor(sp readSpec, res result) func(writeEvent) bool {
	switch sp.kind {
	case readRange:
		return rangeAffected(sp, res.filter, res.matches)
	case readNN:
		return nnAffected(sp, res.filter, res.matches)
	default:
		return joinAffected(res.pairs)
	}
}

// rangeAffected is the invalidation predicate of a range answer: the entry
// survives a write unless the written series is the query series, is among
// the cached matches, was deleted while a member, or lands its new feature
// point inside the search rectangle of the plan that produced the answer
// (in which case it may have entered it).
func rangeAffected(sp readSpec, pf *core.Prefilter, matches []Match) func(writeEvent) bool {
	if pf == nil {
		return nil
	}
	// Scan strategies verify every series without consulting the index,
	// so their answers ignore moment bounds; widen the prefilter to
	// match, or a moment-filtered rectangle could wrongly retain an
	// entry the scan answer would include. UseAuto only ever resolves
	// to a scan when no moment bounds are set, so the widening is a
	// no-op there.
	if sp.opts.strategy != UseIndex {
		pf = pf.Unbounded()
	}
	return affectedPredicate(sp.name, matches, pf, sp.eps)
}

// nnAffected is the NN analogue: the search rectangle's threshold is the
// cached k-th best distance — a new point outside it provably cannot
// displace any cached neighbor. (NN plans carry no moment bounds.)
func nnAffected(sp readSpec, pf *core.Prefilter, matches []Match) func(writeEvent) bool {
	if pf == nil || len(matches) < sp.k {
		return nil // unfilled answer: any write may enter
	}
	return affectedPredicate(sp.name, matches, pf, matches[len(matches)-1].Distance)
}

// joinAffected is the invalidation predicate of a join answer. A join
// depends on every stored series, so a put — a series now sits somewhere
// new — always evicts it. A delete removes only the pairs the deleted
// series was in, so a delete of a series in no pair leaves the answer as
// it was.
func joinAffected(pairs []Pair) func(writeEvent) bool {
	in := make(map[string]bool, 2*len(pairs))
	for _, p := range pairs {
		in[p.A] = true
		in[p.B] = true
	}
	return func(ev writeEvent) bool {
		return ev.kind != writeDelete || in[ev.name]
	}
}

// MonitorEvent is one membership change of a monitored query.
type MonitorEvent struct {
	Monitor int64
	// Seq increases by one per event within a monitor; a gap at the
	// receiver means events were dropped under backpressure.
	Seq  int64
	Kind string // "enter" or "leave"
	Name string
	// Distance at entry (0 for leave events).
	Distance float64
}

func fromStreamEvent(ev stream.Event) MonitorEvent {
	return MonitorEvent{Monitor: ev.Monitor, Seq: ev.Seq, Kind: ev.Kind, Name: ev.Name, Distance: ev.Dist}
}

func membersToMatches(ms []stream.Member) []Match {
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{Name: m.Name, Distance: m.Dist}
	}
	return out
}

func matchesToMembers(ms []Match) []stream.Member {
	out := make([]stream.Member, len(ms))
	for i, m := range ms {
		out[i] = stream.Member{Name: m.Name, Dist: m.Distance}
	}
	return out
}

// MonitorInfo describes one registered monitor.
type MonitorInfo struct {
	ID       int64
	Kind     string // "range" or "nn"
	Members  int
	Watchers int
	// Events is the monitor's replay-ring depth: retained events a
	// reconnecting watcher can resume from.
	Events int
}

// MonitorRange registers a standing range query: the returned monitor
// continuously tracks every stored series within eps of q under the
// transformation, emitting enter/leave events as writes change the answer
// set. The initial membership is returned. q is captured by reference; do
// not mutate it afterwards.
func (s *Server) MonitorRange(q []float64, eps float64, t Transform, opts ...QueryOpt) (int64, []Match, error) {
	sp := rangeSpec("", q, eps, t, opts)
	pf, pfErr := s.monitorPrefilter(sp)
	// The per-series check is exact, and aligned with Eval: scan strategies
	// verify every series without consulting the index, so their answers
	// ignore moment bounds, and membership verdicts would flip-flop if the
	// prefilter and the check kept them.
	check := sp
	check.opts.delta = 0
	if sp.opts.strategy != UseIndex {
		check.opts.moments = feature.MomentBounds{}
		if sp.opts.moments != (feature.MomentBounds{}) {
			pf = nil // conservative: re-verify every write
		}
	}
	eval := s.monitorEval(sp)
	if pfErr != nil {
		// Validate eagerly: a spec the prefilter rejects would also fail
		// every evaluation.
		if _, err := eval(); err != nil {
			return 0, nil, err
		}
	}
	checkOne := func(name string) (stream.Member, bool, error) {
		rq, err := s.db.rangeQuery(check)
		if err != nil {
			return stream.Member{}, false, err
		}
		dist, within, err := s.db.eng.CheckWithin(name, rq)
		return stream.Member{Name: name, Dist: dist}, within, err
	}
	relevant := func(p []float64, _ float64) bool {
		if pf == nil || p == nil {
			return true
		}
		return pf.Hit(geom.Point(p), eps)
	}
	funcs := stream.Funcs{Eval: eval, CheckOne: checkOne, Relevant: relevant}
	if pf != nil {
		// Identity-action range monitors carry their fixed Lemma 1
		// rectangle, so the hub's R-tree can resolve an append's concerned
		// monitors with one spatial probe instead of a per-monitor test.
		if rect, ang, ok := pf.IndexableRect(eps); ok {
			funcs.Rect, funcs.Angular = rect, ang
		}
	}
	m, err := s.hub.Add("range", 0, funcs)
	if err != nil {
		return 0, nil, err
	}
	return m.ID, membersToMatches(m.Members()), nil
}

// monitorPrefilter builds the engine's Lemma 1 rectangle test for a standing
// monitor's spec — a range spec's, or an NN spec's read as range-shaped (the
// threshold is supplied per test). (Cached answers keep the filter of the
// plan that produced them instead; see Server.read.)
func (s *Server) monitorPrefilter(sp readSpec) (*core.Prefilter, error) {
	rq, err := s.db.rangeQuery(sp)
	if err != nil {
		return nil, err
	}
	return s.db.eng.PlanPrefilter(rq)
}

// monitorEval is a monitor's full evaluation: the spec's read, run against
// the store (never through the cache).
func (s *Server) monitorEval(sp readSpec) func() ([]stream.Member, error) {
	return func() ([]stream.Member, error) {
		r, err := s.db.run(sp)
		if err != nil {
			return nil, err
		}
		return matchesToMembers(r.matches), nil
	}
}

// MonitorRangeByName is MonitorRange with a stored series as the query;
// the query values are snapshotted at registration (later appends to the
// query series do not re-center the monitor).
func (s *Server) MonitorRangeByName(name string, eps float64, t Transform, opts ...QueryOpt) (int64, []Match, error) {
	values, err := s.Series(name)
	if err != nil {
		return 0, nil, err
	}
	return s.MonitorRange(values, eps, t, opts...)
}

// MonitorNN registers a standing k-nearest-neighbor query: the monitor
// tracks the current top-k and emits enter/leave events as appends move
// series in and out of it. Per append, the candidate filter is the range
// rectangle at the current k-th best distance — the same no-false-
// dismissals geometry as the index filter — so most appends cost one
// containment test.
func (s *Server) MonitorNN(q []float64, k int, t Transform, opts ...QueryOpt) (int64, []Match, error) {
	if k < 1 {
		return 0, nil, fmt.Errorf("tsq: monitor k must be >= 1, got %d", k)
	}
	sp := nnSpec("", q, k, t, opts)
	if sp.err != nil {
		return 0, nil, sp.err
	}
	pf, pfErr := s.monitorPrefilter(sp)
	eval := s.monitorEval(sp)
	if pfErr != nil {
		if _, err := eval(); err != nil {
			return 0, nil, err
		}
	}
	relevant := func(p []float64, kth float64) bool {
		if pf == nil || p == nil {
			return true
		}
		return pf.Hit(geom.Point(p), kth)
	}
	m, err := s.hub.Add("nn", k, stream.Funcs{Eval: eval, Relevant: relevant})
	if err != nil {
		return 0, nil, err
	}
	return m.ID, membersToMatches(m.Members()), nil
}

// MonitorNNByName is MonitorNN with a stored series as the query
// (snapshotted at registration).
func (s *Server) MonitorNNByName(name string, k int, t Transform, opts ...QueryOpt) (int64, []Match, error) {
	values, err := s.Series(name)
	if err != nil {
		return 0, nil, err
	}
	return s.MonitorNN(values, k, t, opts...)
}

// Unmonitor removes a monitor, closing every watcher's event channel. It
// reports whether the ID was registered.
func (s *Server) Unmonitor(id int64) bool { return s.hub.Remove(id) }

// Monitors lists the registered monitors in ID order.
func (s *Server) Monitors() []MonitorInfo {
	infos := s.hub.List()
	out := make([]MonitorInfo, len(infos))
	for i, in := range infos {
		out[i] = MonitorInfo{ID: in.ID, Kind: in.Kind, Members: in.Members, Watchers: in.Subs, Events: in.Events}
	}
	return out
}

// MonitorMembers returns a monitor's current answer set sorted by
// (distance, name).
func (s *Server) MonitorMembers(id int64) ([]Match, error) {
	m, ok := s.hub.Get(id)
	if !ok {
		return nil, fmt.Errorf("tsq: unknown monitor %d", id)
	}
	return membersToMatches(m.Members()), nil
}

// Watch is one live subscription to a monitor's events.
type Watch struct {
	Monitor int64
	// Seq is the monitor's sequence number at subscription; events on the
	// channel continue from Seq+1 with no gap.
	Seq int64
	// Snapshot holds the membership at subscription, unless Replay covers
	// the catch-up instead.
	Snapshot []Match
	// Replay holds the retained events after the requested resume point,
	// when the server still retains them all (then Snapshot is nil).
	Replay []MonitorEvent
	// Events delivers subsequent membership changes in Seq order. Closed
	// on Cancel and when the monitor is removed.
	Events <-chan MonitorEvent

	sub  *stream.Sub
	done chan struct{}
	once sync.Once
}

// Cancel detaches the watcher; Events is closed.
func (w *Watch) Cancel() {
	w.once.Do(func() {
		close(w.done)
		w.sub.Cancel()
	})
}

// Dropped reports how many events were discarded because the watcher fell
// behind its buffer.
func (w *Watch) Dropped() int64 { return w.sub.Dropped() }

// Watch subscribes to a monitor's event stream. after < 0 requests a
// fresh membership snapshot; after >= 0 asks to resume from that sequence
// number, replaying the retained events when possible (falling back to a
// snapshot when not). buf bounds the watcher's event buffer (<= 0 selects
// a default).
func (s *Server) Watch(id int64, after int64, buf int) (*Watch, error) {
	m, ok := s.hub.Get(id)
	if !ok {
		return nil, fmt.Errorf("tsq: unknown monitor %d", id)
	}
	sub, snapshot, replay, seq := m.Subscribe(after, buf)
	if buf < 1 {
		buf = 64
	}
	out := make(chan MonitorEvent, buf)
	w := &Watch{
		Monitor:  id,
		Seq:      seq,
		Snapshot: membersToMatches(snapshot),
		Events:   out,
		sub:      sub,
		done:     make(chan struct{}),
	}
	if snapshot == nil {
		w.Snapshot = nil
	}
	if len(replay) > 0 {
		w.Replay = make([]MonitorEvent, len(replay))
		for i, ev := range replay {
			w.Replay[i] = fromStreamEvent(ev)
		}
	}
	go func() {
		defer close(out)
		for {
			select {
			case ev, ok := <-sub.Events():
				if !ok {
					return
				}
				select {
				case out <- fromStreamEvent(ev):
				case <-w.done:
					return
				}
			case <-w.done:
				return
			}
		}
	}()
	return w, nil
}
