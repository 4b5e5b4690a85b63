package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	tsq "repro"
	"repro/internal/core"
	"repro/internal/dft"
	"repro/internal/feature"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/series"
	"repro/internal/server"
	"repro/internal/transform"
)

// The traced run measures the layers from outside, through their public
// functions, because this change may not touch the program. It replays
// the same reads in passes, each entering one layer deeper:
//
//	untraced  outermost surface, tracer off      (the overhead baseline)
//	surface   outermost surface (HTTP, else tsq.Server)
//	server    tsq.Server directly                (HTTP workloads only)
//	db        tsq.DB directly
//	layers    parse, resolve, plan, exec called one by one
//	replay    the index search, record fetch and distance kernel that
//	          exec runs inside, re-run on their own
//
// Every pass starts from a fresh result cache and (when streaming) its own
// copy of the store fed the same appends at the same positions, so read i
// meets the same cache and store state in every pass and per-read
// differences between passes are a layer's self time.

// spanRec is one recorded call into a layer.
type spanRec struct {
	Name   string `json:"name"`
	Pass   string `json:"pass"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []spanRec
}

func (t *tracer) begin(name, pass string, op, parent int) int {
	t.spans = append(t.spans, spanRec{Name: name, Pass: pass, Op: op, Parent: parent})
	id := len(t.spans) - 1
	t.spans[id].Start = time.Since(t.t0).Nanoseconds()
	return id
}

// end closes a span and returns its duration in microseconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	return float64(s.End-s.Start) / 1e3
}

// selfTimes returns, per span, its duration minus the part of its interval
// its children cover (children clipped to the parent, overlaps counted
// once), in nanoseconds.
func selfTimes(spans []spanRec) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, edge int64 = 0, s.Start
		for _, v := range ivs {
			if v.hi <= edge {
				continue
			}
			covered += v.hi - max(v.lo, edge)
			edge = v.hi
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// typedAPI is the read surface tsq.Server and tsq.DB share.
type typedAPI interface {
	Range(q []float64, eps float64, t tsq.Transform, opts ...tsq.QueryOpt) ([]tsq.Match, tsq.Stats, error)
	RangeByName(name string, eps float64, t tsq.Transform, opts ...tsq.QueryOpt) ([]tsq.Match, tsq.Stats, error)
	NN(q []float64, k int, t tsq.Transform, opts ...tsq.QueryOpt) ([]tsq.Match, tsq.Stats, error)
	NNByName(name string, k int, t tsq.Transform, opts ...tsq.QueryOpt) ([]tsq.Match, tsq.Stats, error)
}

// serveLoopback puts an in-process tsq.Server behind the real HTTP handler
// on a loopback listener.
func serveLoopback(srv *tsq.Server, s spec, in *inputs) (*httpStore, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: server.New(srv)}
	done := make(chan struct{})
	go func() { hs.Serve(l); close(done) }()
	base := "http://" + l.Addr().String()
	h := &httpStore{reads: newConn(base), appends: newConn(base), reqs: renderReads(s, in)}
	h.stop = func() { hs.Close(); <-done }
	return h, nil
}

// traceSet is one pass's private store: a DB, the Server over it, and the
// HTTP front when the workload has one.
type traceSet struct {
	local *localStore // the DB and the Server over it
	http  *httpStore
	// watches are the subscribers draining each monitor's events.
	watches []*tsq.Watch
	drain   chan int
	events  int
	dropped int64
}

// stopWatch ends the subscribers and returns how many events they drained
// and how many the hub dropped on them.
func (ts *traceSet) stopWatch() (events int, dropped int64) {
	for _, w := range ts.watches {
		w.Cancel()
		ts.events += <-ts.drain
		ts.dropped += w.Dropped()
	}
	ts.watches = nil
	return ts.events, ts.dropped
}

func (ts *traceSet) close() {
	ts.stopWatch()
	if ts.http != nil {
		ts.http.close()
	}
}

// appendAt is one pre-generated append of the traced run.
type appendAt struct {
	series int
	points []float64
}

// tracedReadsPerAppend is how many reads go by between two appends in the
// traced passes of a streaming workload: about what 400 appends/s beside
// the measured ~1,700 reads/s comes to, and fixed so the passes do the
// same work in every run.
const tracedReadsPerAppend = 4

// planWant maps an op's pinned strategy onto the planner's vocabulary.
var planWant = map[string]plan.Strategy{"": plan.Auto, "index": plan.Index, "scan": plan.ScanFreq}

// traceRun is the state of one traced run.
type traceRun struct {
	s         spec
	in        *inputs
	p         *prepared
	n         int // reads per pass
	streaming bool
	tr        *tracer
	mt        map[string]float64
	closers   []func()
	batch     []tsq.NamedSeries
	backings  int

	// base, surface and direct serve the untraced, surface and server
	// passes; bare is the DB the db, layers and replay passes call.
	base, surface, direct *traceSet
	shared, bare          *tsq.DB

	stmts   []string
	appends []appendAt
	// cached[i]: the Server answered read i from its result cache in the
	// pass that entered at the Server.
	cached []bool

	lat0, latOuter, latSrv, latDB []float64
	srvAppend, bareAppend         []float64

	// What the layers pass leaves for the replay pass and the reduction.
	sum          layerSums
	execUS       []float64 // exec time per read
	results      [][]core.Result
	indexed      []bool
	mavgs        map[int]transform.T
	pool0, pool1 tsq.PoolStats
}

// layerSums accumulates the layers and replay passes, in microseconds and
// counts.
type layerSums struct {
	parse, resolve, plan, exec, fanoutSelf      float64
	candidates, results, nodes, pages, indexOps float64
	// The replay pass covers index-strategy reads only.
	replayed, search, fetch, verify, verified, fft float64
}

// traced runs the passes over the first half of the read list — a fixed
// prefix, so that counts taken per read repeat exactly — and returns the
// per-layer metrics.
func traced(s spec, in *inputs, p *prepared, spanFile string) (map[string]float64, error) {
	t := &traceRun{
		s: s, in: in, p: p, n: s.readsPerRound / 2, streaming: s.appendRate > 0,
		mt: map[string]float64{}, batch: p.batch, mavgs: map[int]transform.T{},
	}
	defer func() {
		for i := len(t.closers) - 1; i >= 0; i-- {
			t.closers[i]()
		}
	}()
	t.cached = make([]bool, t.n)
	for _, step := range []func() error{t.openStores, t.generate, t.passes, t.layers, t.replay} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	t.reduce()
	return t.mt, t.tr.write(spanFile)
}

// openDB builds one store the way the workload's set-up does, timing the
// persistence step.
func (t *traceRun) openDB() (*tsq.DB, error) {
	t0 := time.Now()
	var (
		db  *tsq.DB
		err error
	)
	if t.s.disk {
		var f *os.File
		if f, err = os.Open(t.p.snapshot); err != nil {
			return nil, err
		}
		defer f.Close()
		t.backings++
		db, err = tsq.ReadFromOptions(f, tsq.Options{
			Shards: t.s.shards, CachePages: t.p.cachePages,
			Backing: filepath.Join(t.p.dir, fmt.Sprintf("trace-backing-%d", t.backings)),
		})
		t.mt["persist.adopt_s"] = time.Since(t0).Seconds()
	} else {
		db, err = openLoaded(t.s, t.batch)
		t.mt["persist.bulkload_s"] = time.Since(t0).Seconds()
	}
	if err == nil {
		t.closers = append(t.closers, func() { db.Close() })
	}
	return db, err
}

// newSet puts a Server (with the workload's monitors, a draining
// subscriber on each) over share, or over a store of its own when share is nil,
// and an HTTP front before it when asked.
func (t *traceRun) newSet(share *tsq.DB, front bool) (*traceSet, error) {
	if share == nil {
		var err error
		if share, err = t.openDB(); err != nil {
			return nil, err
		}
	}
	ts := &traceSet{local: newLocalStore(share, t.s, t.in)}
	t.closers = append(t.closers, ts.close)
	ts.drain = make(chan int, t.s.monitors)
	for r := 0; r < t.s.monitors; r++ {
		id, _, err := ts.local.srv.MonitorRangeByName(t.in.data.names[t.in.popular.top(r)], t.s.monitorEps, tsq.Identity())
		if err != nil {
			return nil, err
		}
		w, err := ts.local.srv.Watch(id, -1, 256)
		if err != nil {
			return nil, err
		}
		ts.watches = append(ts.watches, w)
		go func() {
			n := 0
			for range w.Events {
				n++
			}
			ts.drain <- n
		}()
	}
	if front {
		var err error
		if ts.http, err = serveLoopback(ts.local.srv, t.s, t.in); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// openStores builds what the passes run against. A read-only workload's
// passes share one DB (reads do not change it) behind separate Servers; a
// streaming workload's passes each own a copy, because each applies the
// appends.
func (t *traceRun) openStores() error {
	var err error
	if t.s.child {
		t0 := time.Now()
		if t.batch, err = tsq.ReadCSVFile(t.p.csv); err != nil {
			return err
		}
		t.mt["persist.parse_csv_s"] = time.Since(t0).Seconds()
	}
	if t.base, err = t.newSet(nil, t.s.child); err != nil {
		return err
	}
	if !t.streaming {
		t.shared = t.base.local.db
	}
	if t.surface, err = t.newSet(t.shared, t.s.child); err != nil {
		return err
	}
	t.direct = t.surface
	if t.s.child {
		if t.direct, err = t.newSet(t.shared, false); err != nil {
			return err
		}
	}
	t.bare = t.base.local.db
	if t.streaming {
		if t.bare, err = t.openDB(); err != nil {
			return err
		}
	}
	runtime.GC()
	return nil
}

// generate renders what every pass replays: the statements, and the
// appends with their positions.
func (t *traceRun) generate() error {
	d := t.in.data
	if t.streaming {
		last := make([]float64, len(d.values))
		for i, v := range d.values {
			last[i] = v[len(v)-1]
		}
		for i := 0; i < t.n/tracedReadsPerAppend; i++ {
			a := appendAt{series: t.in.popular.draw(t.in.traceTicks), points: make([]float64, appendPoints)}
			for j := range a.points {
				last[a.series] = round2(last[a.series] + t.in.traceTicks.NormFloat64())
				a.points[j] = last[a.series]
			}
			t.appends = append(t.appends, a)
		}
	}
	t.stmts = make([]string, t.n)
	if t.s.statements {
		for i := range t.stmts {
			t.stmts[i] = statement(d, &t.in.reads[i])
		}
	}
	t.tr = &tracer{t0: time.Now()}
	return nil
}

// pass replays the reads through read, and the appends through app at
// their positions, recording one span per read when on. It returns every
// read's and every append's duration in microseconds.
func (t *traceRun) pass(name string, on bool, read func(i int) error, app func(a appendAt) error) (lat, appLat []float64, err error) {
	lat = make([]float64, t.n)
	for i := 0; i < t.n; i++ {
		if app != nil && i%tracedReadsPerAppend == tracedReadsPerAppend-1 && i/tracedReadsPerAppend < len(t.appends) {
			a := t.appends[i/tracedReadsPerAppend]
			t0 := time.Now()
			if err := app(a); err != nil {
				return nil, nil, fmt.Errorf("%s pass, append to %s: %w", name, t.in.data.names[a.series], err)
			}
			appLat = append(appLat, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		if on {
			id := t.tr.begin(name, name, i, -1)
			err = read(i)
			lat[i] = t.tr.end(id)
		} else {
			t0 := time.Now()
			err = read(i)
			lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s pass, read %d: %w", name, i, err)
		}
	}
	return lat, appLat, nil
}

// viaServer reads through a set's tsq.Server, noting cache hits when asked.
func (t *traceRun) viaServer(ts *traceSet, note bool) func(i int) error {
	return func(i int) error {
		o := &t.in.reads[i]
		var hit bool
		if t.s.statements {
			out, err := ts.local.srv.Query(t.stmts[i])
			if err != nil {
				return err
			}
			hit = out.Stats.Cached
		} else {
			_, st, err := serverRead(ts.local.srv, t.in.data, o, ts.local.transform(o), ts.local.opts(o))
			if err != nil {
				return err
			}
			hit = st.Cached
		}
		if note {
			t.cached[i] = hit
		}
		return nil
	}
}

// outermost reads through a set's outermost surface: HTTP when it has a
// front, else its Server.
func (t *traceRun) outermost(ts *traceSet, note bool) func(i int) error {
	if ts.http != nil {
		return func(i int) error { _, err := ts.http.read(i); return err }
	}
	return t.viaServer(ts, note)
}

func (t *traceRun) appendVia(ts *traceSet) func(a appendAt) error {
	names := t.in.data.names
	switch {
	case !t.streaming:
		return nil
	case ts.http != nil:
		return func(a appendAt) error { return ts.http.append(names[a.series], a.points) }
	default:
		return func(a appendAt) error { return ts.local.srv.Append(names[a.series], a.points) }
	}
}

// passes runs the untraced, surface, server and db passes.
func (t *traceRun) passes() error {
	var err error
	if !t.streaming {
		// Warm the process (heap, connection, CPU caches) through a
		// throwaway Server, so the untraced pass is not charged for being
		// first and the overhead ratio compares like with like.
		warm, err := t.newSet(t.shared, t.s.child)
		if err != nil {
			return err
		}
		if _, _, err := t.pass("warm-up", false, t.outermost(warm, false), nil); err != nil {
			return err
		}
	}
	if t.lat0, _, err = t.pass("untraced", false, t.outermost(t.base, false), t.appendVia(t.base)); err != nil {
		return err
	}
	if t.latOuter, _, err = t.pass("surface", true, t.outermost(t.surface, !t.s.child), t.appendVia(t.surface)); err != nil {
		return err
	}
	t.latSrv = t.latOuter
	if t.s.child {
		if t.latSrv, t.srvAppend, err = t.pass("server", true, t.viaServer(t.direct, true), t.appendVia(t.direct)); err != nil {
			return err
		}
	}
	var dbAppend func(a appendAt) error
	if t.streaming {
		dbAppend = func(a appendAt) error { return t.bare.Append(t.in.data.names[a.series], a.points) }
	}
	t.latDB, t.bareAppend, err = t.pass("db", true, func(i int) error {
		o := &t.in.reads[i]
		if t.s.statements {
			_, err := t.bare.Query(t.stmts[i])
			return err
		}
		_, _, err := serverRead(t.bare, t.in.data, o, t.base.local.transform(o), t.base.local.opts(o))
		return err
	}, dbAppend)
	return err
}

// transformOf builds (once) the engine-level transformation of a read.
func (t *traceRun) transformOf(o *op) transform.T {
	if o.mavg == 0 {
		return transform.CachedIdentity(t.s.length)
	}
	tt, ok := t.mavgs[o.mavg]
	if !ok {
		tt = transform.MovingAverage(t.s.length, o.mavg)
		t.mavgs[o.mavg] = tt
	}
	return tt
}

// layers calls parse, resolve, plan and exec one by one for every read,
// as children of one op span, and takes the counts exec reports.
func (t *traceRun) layers() error {
	eng, d, tr := t.bare.Engine(), t.in.data, t.tr
	t.results, t.indexed, t.execUS = make([][]core.Result, t.n), make([]bool, t.n), make([]float64, t.n)
	t.pool0 = t.bare.PoolStats()
	var dst []core.Result
	for i := 0; i < t.n; i++ {
		o := &t.in.reads[i]
		top := tr.begin("op", "layers", i, -1)
		if t.s.statements {
			id := tr.begin("query.parse", "layers", i, top)
			_, err := query.Parse(t.stmts[i])
			t.sum.parse += tr.end(id)
			if err != nil {
				return err
			}
		}
		id := tr.begin("relation.resolve", "layers", i, top)
		values, prep := o.values, (*core.QueryPrep)(nil)
		if values == nil {
			sid, ok := eng.IDByName(d.names[o.series])
			if !ok {
				return fmt.Errorf("series %s is not stored", d.names[o.series])
			}
			var err error
			if values, err = eng.Series(sid); err != nil {
				return err
			}
			prep, _ = eng.QueryPrep(sid)
		}
		t.sum.resolve += tr.end(id)

		id = tr.begin("plan.plan", "layers", i, top)
		tt := t.transformOf(o)
		rq := core.RangeQuery{Values: values, Eps: o.eps, Transform: tt, BothSides: o.mavg > 0, Prep: prep}
		nq := core.NNQuery{Values: values, K: o.k, Transform: tt, BothSides: o.mavg > 0, Prep: prep}
		var (
			pl  *plan.Plan
			err error
		)
		if o.kind == opNN {
			pl, err = eng.PlanNN(nq, planWant[o.using])
		} else {
			pl, err = eng.PlanRange(rq, planWant[o.using])
		}
		t.sum.plan += tr.end(id)
		if err != nil {
			return err
		}

		id = tr.begin("core.exec", "layers", i, top)
		var st core.ExecStats
		if o.kind == opNN {
			dst, st, err = eng.ExecNNInto(nq, pl, dst[:0])
		} else {
			dst, st, err = eng.ExecRangeInto(rq, pl, dst[:0])
		}
		exec := tr.end(id)
		tr.end(top)
		if err != nil {
			return err
		}
		t.sum.exec += exec
		t.execUS[i] = exec
		t.results[i] = append([]core.Result(nil), dst...)
		if t.indexed[i] = pl.Strategy == plan.Index; t.indexed[i] {
			t.sum.indexOps++
		}
		t.sum.candidates += float64(st.Candidates)
		t.sum.results += float64(st.Results)
		t.sum.nodes += float64(st.NodeAccesses)
		t.sum.pages += float64(st.PageReads)
		if t.s.shards > 1 {
			var slowest time.Duration
			for _, sp := range st.Spans {
				for _, c := range sp.Children {
					if c.Name == "shard" && c.Duration > slowest {
						slowest = c.Duration
					}
				}
			}
			t.sum.fanoutSelf += exec - float64(slowest.Nanoseconds())/1e3
		}
	}
	t.pool1 = t.bare.PoolStats()
	return nil
}

// replay re-runs on their own the steps exec runs inside: the index
// search, the record fetch and the distance kernel, plus the feature
// extraction and FFT a raw query vector costs. core does not export its
// spectrum relation, so the fetch reads the candidates' raw records
// through Engine.Series and the kernel is series.EuclideanWithin on their
// normal forms. A sharded engine exposes no index, so there is no replay.
func (t *traceRun) replay() error {
	eng, tr := t.bare.Engine(), t.tr
	cdb, ok := eng.(*core.DB)
	if !ok {
		return nil
	}
	var (
		kidx   = cdb.Index()
		schema = eng.Schema()
		sc     index.Scratch
		ids    []int64
	)
	for i := 0; i < t.n; i++ {
		o := &t.in.reads[i]
		values := queryValues(t.in.data, o)
		id := tr.begin("kernel.fft", "replay", i, -1)
		qp, err := schema.Extract(values)
		dft.TransformReal(series.NormalForm(values))
		t.sum.fft += tr.end(id)
		if err != nil {
			return err
		}
		if !t.indexed[i] {
			continue
		}
		t.sum.replayed++
		m, err := schema.Map(t.transformOf(o))
		if err != nil {
			return err
		}
		if o.mavg > 0 && !m.Identity() {
			qp = m.ApplyPoint(qp)
		}
		bound := o.eps
		id = tr.begin("index.search", "replay", i, -1)
		if o.kind == opNN {
			// Best-first traversal visits exactly the items whose lower
			// bound is within the final k-th distance, so the k-th
			// distance exec found reproduces its candidate set.
			if r := t.results[i]; len(r) > 0 {
				bound = r[len(r)-1].Dist
			}
			v := &boundVisitor{limit: bound * bound * (1 + 1e-12), ids: ids[:0]}
			kidx.NearestIDs(qp, m, &sc, v)
			ids = v.ids
		} else {
			ids, _ = kidx.RangeIDs(qp, o.eps, m, feature.MomentBounds{}, true, &sc, ids[:0])
		}
		t.sum.search += tr.end(id)

		id = tr.begin("relation.fetch", "replay", i, -1)
		rows := make([][]float64, len(ids))
		for j, sid := range ids {
			if rows[j], err = eng.Series(sid); err != nil {
				return err
			}
		}
		t.sum.fetch += tr.end(id)

		qn := series.NormalForm(values)
		for j := range rows {
			rows[j] = series.NormalForm(rows[j])
		}
		id = tr.begin("kernel.verify", "replay", i, -1)
		for _, row := range rows {
			series.EuclideanWithin(row, qn, bound)
		}
		t.sum.verify += tr.end(id)
		t.sum.verified += float64(len(rows))
	}
	return nil
}

// boundVisitor collects the items of a nearest-neighbor traversal whose
// lower bound is within a known final distance.
type boundVisitor struct {
	limit float64
	ids   []int64
}

func (v *boundVisitor) VisitNear(id int64, distSq float64) bool {
	if distSq > v.limit {
		return false
	}
	v.ids = append(v.ids, id)
	return true
}

// reduce turns the passes into the per-layer metrics.
func (t *traceRun) reduce() {
	mt, sum, fn := t.mt, &t.sum, float64(t.n)
	total := func(v []float64) (s float64) {
		for _, x := range v {
			s += x
		}
		return s
	}
	// A self time that is the difference of two passes is the median of
	// the per-read differences: each pass carries its own bursts, and a
	// difference of means would carry both.
	diff := func(a, b []float64, minus func(i int) bool) []float64 {
		out := make([]float64, len(a))
		for i := range a {
			out[i] = a[i]
			if minus(i) {
				out[i] -= b[i]
			}
		}
		return out
	}
	always := func(int) bool { return true }
	if t.s.child {
		mt["server.roundtrip_self_us"] = median(diff(t.latOuter, t.latSrv, always))
		mt["server.resp_bytes_per_op"] = float64(t.surface.http.respBytes.Load()) / fn
	}
	// On a cache hit all of the Server's time is its own; on a miss its
	// own part is what the DB beneath did not spend.
	mt["tsq.server_self_us"] = median(diff(t.latSrv, t.latDB, func(i int) bool { return !t.cached[i] }))
	if st := t.direct.local.srv.Stats(); st.CacheHits+st.CacheMisses > 0 {
		mt["tsq.cache_hit_ratio"] = float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	}
	mt["query.parse_us"] = sum.parse / fn
	mt["relation.resolve_us"] = sum.resolve / fn
	mt["plan.plan_us"] = sum.plan / fn
	mt["plan.index_share"] = sum.indexOps / fn
	mt["core.exec_us"] = sum.exec / fn
	// exec's share of op time: among uncached reads, the median ratio of a
	// read's exec to the same read's op time (two passes, so a per-read
	// median and not a ratio of sums), weighted by the share of op time
	// uncached reads account for.
	var ratios []float64
	var opUncached float64
	for i, hit := range t.cached {
		if !hit {
			ratios = append(ratios, t.execUS[i]/t.latOuter[i])
			opUncached += t.latOuter[i]
		}
	}
	mt["core.exec_share"] = median(ratios) * opUncached / total(t.latOuter)
	mt["core.candidates_per_op"] = sum.candidates / fn
	if sum.candidates > 0 {
		mt["core.results_per_candidate"] = sum.results / sum.candidates
	}
	mt["core.fraction_touched"] = sum.candidates / fn / float64(t.s.count)
	mt["core.fanout_self_us"] = sum.fanoutSelf / fn
	mt["index.nodes_per_op"] = sum.nodes / fn
	mt["relation.pages_per_op"] = sum.pages / fn
	if sum.replayed > 0 {
		mt["index.search_us"] = sum.search / sum.replayed
		mt["relation.fetch_us"] = sum.fetch / sum.replayed
	}
	if sum.verified > 0 {
		mt["kernel.verify_ns_per_candidate"] = sum.verify * 1e3 / sum.verified
	}
	mt["kernel.fft_us"] = sum.fft / fn
	if looked := float64(t.pool1.Hits + t.pool1.Misses - t.pool0.Hits - t.pool0.Misses); looked > 0 {
		mt["pagefile.pool_hit_ratio"] = float64(t.pool1.Hits-t.pool0.Hits) / looked
		mt["pagefile.evictions_per_op"] = float64(t.pool1.Evictions-t.pool0.Evictions) / fn
	}
	if len(t.bareAppend) > 0 {
		mt["stream.append_us"] = total(t.bareAppend) / float64(len(t.bareAppend))
		mt["stream.notify_self_us"] = median(diff(t.srvAppend, t.bareAppend, always))
		events, dropped := t.direct.stopWatch()
		mt["stream.events_per_append"] = float64(events) / float64(len(t.srvAppend))
		mt["stream.dropped_events"] = float64(dropped)
	}
	mt["trace.op_us"] = total(t.latOuter) / fn
	mt["trace.unattributed_ratio"] = max(0, 1-(sum.parse+sum.resolve+sum.plan+sum.exec)/total(t.latDB))
	mt["trace.overhead_ratio"] = total(t.latOuter) / total(t.lat0)
}
