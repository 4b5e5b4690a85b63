package tsq_test

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	tsq "repro"
	"repro/internal/telemetry"
)

// TestStatsConcurrentScrapes is the regression test for the /stats
// recompute bug: Stats() used to walk the store under the server lock,
// so a scrape could stall (and race with) the write path. It is now a
// lock-free snapshot of atomics; this hammers it from many goroutines
// while writers churn, and checks the final counters add up. Run with
// -race.
func TestStatsConcurrentScrapes(t *testing.T) {
	const (
		length   = 64
		stable   = 24
		churn    = 8
		scrapers = 4
		iters    = 200
	)
	walks := tsq.RandomWalks(stable+churn, length, 3)
	db := tsq.MustOpen(tsq.Options{Length: length, Shards: 2})
	if err := db.InsertAll(walks[:stable]); err != nil {
		t.Fatal(err)
	}
	s := tsq.NewServer(db, tsq.ServerOptions{CacheSize: 16})

	var wg sync.WaitGroup
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				st := s.Stats()
				if st.Series < stable-churn || st.Length != length {
					t.Errorf("Stats snapshot out of range: %+v", st)
					return
				}
				if err := s.WriteMetrics(io.Discard); err != nil {
					t.Errorf("WriteMetrics: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			v := walks[stable+(i/2)%churn]
			switch i % 2 {
			case 0:
				if err := s.Insert(v.Name, v.Values); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			case 1:
				s.Delete(v.Name)
			}
			name := fmt.Sprintf("W%04d", i%stable)
			if _, _, err := s.RangeByName(name, 2, tsq.MovingAverage(10)); err != nil {
				t.Errorf("range: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// After the churn settles, the atomic series mirror must agree with
	// the store itself.
	if got, want := s.Stats().Series, s.Len(); got != want {
		t.Fatalf("Stats().Series = %d, store has %d", got, want)
	}
}

// TestTraceRetention exercises the flight recorder at the library layer:
// executions are retained with their span trees without TRACE being
// requested, fetchable by the caller's WithRequest ID (or a minted one),
// cache hits and errors are classified, filters narrow, the worst-recent
// index resolves, and concurrent readers leave every retained trace whole.
func TestTraceRetention(t *testing.T) {
	const length = 64
	walks := tsq.RandomWalks(40, length, 7)
	db := tsq.MustOpen(tsq.Options{Length: length, Shards: 2})
	if err := db.InsertAll(walks); err != nil {
		t.Fatal(err)
	}
	s := tsq.NewServer(db, tsq.ServerOptions{})

	_, st, err := s.RangeByName("W0001", 2, tsq.MovingAverage(10), tsq.WithRequest("req-ok-1"))
	if err != nil {
		t.Fatal(err)
	}
	if st.RequestID != "req-ok-1" {
		t.Fatalf("Stats.RequestID = %q, want the WithRequest ID", st.RequestID)
	}
	tr, ok := s.TraceByID("req-ok-1")
	if !ok {
		t.Fatal("execution not retained under its request ID")
	}
	if tr.Kind != "range" || tr.Outcome != "ok" || tr.Strategy == "" {
		t.Fatalf("trace classification: %+v", tr)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("retained trace has no spans (TRACE was never requested)")
	}
	if tr.Elapsed <= 0 || tr.When.IsZero() || tr.Query == "" {
		t.Fatalf("incomplete trace: %+v", tr)
	}
	// A miss files its answer, so its tree ends in the filing step.
	if last := tr.Spans[len(tr.Spans)-1]; last.Name != "cache-tag" {
		t.Fatalf("last span of a miss = %q, want cache-tag", last.Name)
	}

	// A cache hit is retained under its own ID with the cached outcome.
	_, st2, err := s.RangeByName("W0001", 2, tsq.MovingAverage(10), tsq.WithRequest("req-hit-1"))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.RequestID != "req-hit-1" {
		t.Fatalf("cache hit stats: %+v", st2)
	}
	hit, ok := s.TraceByID("req-hit-1")
	if !ok || hit.Outcome != "cached" {
		t.Fatalf("cache hit trace: %+v (ok=%v)", hit, ok)
	}
	// Its span tree is the hit's own — one cache lookup of the hit's wall
	// time — not the tree of the execution that filed the answer, whose
	// durations would sum past the hit's Elapsed. The hit's Stats still
	// describe that execution.
	if len(hit.Spans) != 1 || hit.Spans[0].Name != "cache" || hit.Spans[0].Duration != hit.Elapsed || len(hit.Spans[0].Children) != 0 {
		t.Fatalf("cache hit trace spans %+v, want one cache span of the hit's %v", hit.Spans, hit.Elapsed)
	}
	if n := len(st.Spans); n == 0 || !reflect.DeepEqual(st2.Spans, st.Spans[:n-1]) {
		t.Fatalf("cache hit Stats.Spans %+v, want the filing execution's %+v without its cache-tag", st2.Spans, st.Spans)
	}

	// Without WithRequest the server mints an ID and still retains.
	_, st3, err := s.NNByName("W0002", 3, tsq.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if st3.RequestID == "" {
		t.Fatal("no request ID minted")
	}
	if minted, ok := s.TraceByID(st3.RequestID); !ok || minted.Kind != "nn" {
		t.Fatalf("minted-ID trace: %+v (ok=%v)", minted, ok)
	}

	// Errors are always retained.
	if _, err := s.Query("RANGE SERIES 'NOPE' EPS 2 TRANSFORM identity()", tsq.WithRequest("req-err-1")); err == nil {
		t.Fatal("query over a missing series succeeded")
	}
	bad, ok := s.TraceByID("req-err-1")
	if !ok || bad.Outcome != "error" || bad.Err == "" {
		t.Fatalf("error trace: %+v (ok=%v)", bad, ok)
	}
	errTraces := s.Traces(tsq.TraceFilter{Outcome: "error"})
	found := false
	for _, e := range errTraces {
		if e.RequestID == "req-err-1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("error execution missing from outcome=error filter (%d entries)", len(errTraces))
	}

	// Filters narrow; the worst-recent index resolves to full traces.
	for _, e := range s.Traces(tsq.TraceFilter{Kind: "range"}) {
		if e.Kind != "range" {
			t.Fatalf("kind filter leaked a %q trace", e.Kind)
		}
	}
	ws := s.WorstTraces()
	if len(ws) == 0 {
		t.Fatal("worst-recent index is empty")
	}
	for _, w := range ws {
		if _, ok := s.TraceByID(w.RequestID); !ok {
			t.Fatalf("worst entry %s/%s names unresolvable request %s", w.Kind, w.Strategy, w.RequestID)
		}
	}

	// Concurrent readers each get their own minted ID, and every trace
	// the recorder keeps is complete and names one of them. Run with -race.
	busy := tsq.NewServer(db, tsq.ServerOptions{CacheSize: -1})
	const readers, reads = 8, 20
	ids := make([][]string, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				stmt := fmt.Sprintf("NN SERIES 'W%04d' K %d TRANSFORM identity()", g, i+1)
				out, err := busy.Query(stmt)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				ids[g] = append(ids[g], out.Stats.RequestID)
			}
		}(g)
	}
	wg.Wait()
	minted := map[string]bool{}
	for _, gids := range ids {
		for _, id := range gids {
			if id == "" || minted[id] {
				t.Fatalf("request ID %q is empty or was minted twice", id)
			}
			minted[id] = true
		}
	}
	kept := busy.Traces(tsq.TraceFilter{})
	if len(kept) == 0 || len(kept) > 16*len(busy.WorstTraces()) {
		t.Fatalf("recorder kept %d traces over %d buckets, want 1..16 a bucket", len(kept), len(busy.WorstTraces()))
	}
	for i, e := range kept {
		if !minted[e.RequestID] || e.Query == "" || e.Elapsed <= 0 || e.When.IsZero() || len(e.Spans) == 0 {
			t.Fatalf("incomplete trace %d after concurrent reads: %+v", i, e)
		}
	}
}

// TestTraceStatement checks the TRACE language prefix end to end at the
// library layer: the span tree comes back, totals include planning, and
// TRACE bypasses the result cache the way EXPLAIN does.
func TestTraceStatement(t *testing.T) {
	const length = 64
	walks := tsq.RandomWalks(40, length, 9)
	db := tsq.MustOpen(tsq.Options{Length: length, Shards: 4})
	if err := db.InsertAll(walks); err != nil {
		t.Fatal(err)
	}
	s := tsq.NewServer(db, tsq.ServerOptions{})

	const stmt = "TRACE RANGE SERIES 'W0001' EPS 2 TRANSFORM mavg(20)"
	out, err := s.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("TRACE statement returned no trace")
	}
	if out.Trace.Total <= 0 {
		t.Fatalf("trace total = %v, want > 0", out.Trace.Total)
	}
	names := map[string]bool{}
	shardSpans := 0
	var walk func(spans []tsq.SpanInfo)
	walk = func(spans []tsq.SpanInfo) {
		for _, sp := range spans {
			names[sp.Name] = true
			if sp.Name == "shard" {
				if sp.Shard < 0 {
					t.Fatalf("shard span with shard index %d", sp.Shard)
				}
				shardSpans++
			}
			walk(sp.Children)
		}
	}
	walk(out.Trace.Spans)
	for _, want := range []string{"plan", "fanout", "merge", "shard"} {
		if !names[want] {
			t.Fatalf("trace spans %v missing %q", names, want)
		}
	}
	if shardSpans != 4 {
		t.Fatalf("got %d shard spans, want 4 (one per shard)", shardSpans)
	}

	// The plan span is part of the total (total is planning plus execution;
	// reading the statement text comes before both and is reported beside it).
	for _, sp := range out.Trace.Spans {
		if sp.Name != "parse" && sp.Duration > out.Trace.Total {
			t.Fatalf("span %s (%v) exceeds trace total %v", sp.Name, sp.Duration, out.Trace.Total)
		}
	}

	// Total is planning plus execution — the parse span a statement now
	// opens with is reported, not folded in.
	if len(out.Trace.Spans) < 2 || out.Trace.Spans[0].Name != "parse" || out.Trace.Spans[1].Name != "plan" {
		t.Fatalf("a statement's spans should open parse, plan: %+v", out.Trace.Spans)
	}
	if want := out.Trace.Spans[1].Duration + out.Stats.Elapsed; out.Trace.Total != want {
		t.Fatalf("trace total %v, want plan %v + exec %v", out.Trace.Total, out.Trace.Spans[1].Duration, out.Stats.Elapsed)
	}

	// The typed call runs the same read: its spans open with the plan step
	// (it has no text to parse), and both arrivals carry one kind label and
	// are retained under what the caller wrote.
	_, tst, err := s.RangeByName("W0002", 2, tsq.MovingAverage(20), tsq.WithRequest("typed-1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tst.Spans) == 0 || tst.Spans[0].Name != "plan" {
		t.Fatalf("a typed read's spans should open with plan: %+v", tst.Spans)
	}
	const plainStmt = "RANGE SERIES 'W0003' EPS 2 TRANSFORM mavg(20)"
	if _, err := s.Query("  "+plainStmt+" ", tsq.WithRequest("stmt-1")); err != nil {
		t.Fatal(err)
	}
	typedTrace, ok1 := s.TraceByID("typed-1")
	stmtTrace, ok2 := s.TraceByID("stmt-1")
	if !ok1 || !ok2 || typedTrace.Kind != "range" || stmtTrace.Kind != "range" {
		t.Fatalf("retained kinds: typed %+v (%t), statement %+v (%t)", typedTrace.Kind, ok1, stmtTrace.Kind, ok2)
	}
	if stmtTrace.Query != plainStmt {
		t.Fatalf("a statement is retained as %q, want its text", stmtTrace.Query)
	}

	// TRACE statements never come from (or land in) the result cache.
	out2, err := s.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Stats.Cached {
		t.Fatal("repeated TRACE statement was served from cache")
	}
	if out2.Trace == nil {
		t.Fatal("repeated TRACE statement lost its trace")
	}

	// An untraced statement returns no trace.
	plain, err := s.Query("RANGE SERIES 'W0001' EPS 2 TRANSFORM mavg(20)")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("plain statement returned a trace")
	}
}

// TestMetricsOverhead measures the telemetry tax on an uncached range + NN
// mix over 4 shards: the same queries with the registry enabled vs disabled
// must differ by less than 3%. Timing-sensitive, so it only runs when
// TSQ_BENCH_OVERHEAD=1 (make bench-metrics-overhead).
func TestMetricsOverhead(t *testing.T) {
	if os.Getenv("TSQ_BENCH_OVERHEAD") == "" {
		t.Skip("set TSQ_BENCH_OVERHEAD=1 to run the overhead benchmark")
	}
	const (
		count  = 400
		length = 128
		chunks = 150
		pairs  = 5 // query pairs per chunk
	)
	walks := tsq.RandomWalks(count, length, 42)
	db := tsq.MustOpen(tsq.Options{Length: length, Shards: 4})
	if err := db.InsertAll(walks); err != nil {
		t.Fatal(err)
	}
	s := tsq.NewServer(db, tsq.ServerOptions{CacheSize: -1}) // no cache: measure the execute path

	chunk := func(k int) {
		for i := 0; i < pairs; i++ {
			name := fmt.Sprintf("W%04d", ((k*pairs+i)*37)%count)
			if _, _, err := s.RangeByName(name, 2, tsq.MovingAverage(20)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.NNByName(name, 5, tsq.Identity()); err != nil {
				t.Fatal(err)
			}
		}
	}
	timed := func(enabled bool, k int) time.Duration {
		telemetry.SetEnabled(enabled)
		start := time.Now()
		chunk(k)
		return time.Since(start)
	}
	defer telemetry.SetEnabled(true)

	// This box is shared, so a single long timing window is hostage to
	// whoever else is running: instead, time the same small chunk with
	// telemetry off and on back to back (alternating the order to cancel
	// warm-up bias) and take the median of the per-chunk ratios. A
	// preempted chunk produces one wild ratio; the median ignores it.
	for k := 0; k < chunks; k++ {
		chunk(k) // warm up
	}
	runtime.GC()
	ratios := make([]float64, chunks)
	for k := range ratios {
		var off, on time.Duration
		if k%2 == 0 {
			off = timed(false, k)
			on = timed(true, k)
		} else {
			on = timed(true, k)
			off = timed(false, k)
		}
		ratios[k] = float64(on) / float64(off)
	}
	sortFloats(ratios)
	ratio := ratios[len(ratios)/2]
	t.Logf("median overhead over %d paired chunks: %+.2f%%", chunks, (ratio-1)*100)
	if ratio > 1.03 {
		t.Fatalf("telemetry overhead %.2f%% exceeds the 3%% budget", (ratio-1)*100)
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
