package tsq

// Internal-package tests for the dependency-tagged result cache: write
// events, membership and Lemma 1 rectangles, and the write-log replay that keeps the cache warm
// under append bursts (the "skip the unconditional version starvation"
// fix — a naive skip of the version bump would be unsound for in-flight
// queries the append *does* affect, so the bump stays and provably
// unaffected results replay past it).

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

// cacheFixture builds a 4-shard server over deterministic series: a tight
// cluster (identical shapes "C*") and far-away outliers ("Z*"), so range
// rectangles around a cluster member never contain an outlier's feature
// point.
func cacheFixture(t *testing.T) *Server { return cacheFixtureShards(t, 4) }

// bothShardCounts runs a cache test over an unsharded and a sharded fixture:
// the read and write disciplines are the same code either way.
func bothShardCounts(t *testing.T, test func(t *testing.T, s *Server)) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) { test(t, cacheFixtureShards(t, shards)) })
	}
}

func cacheFixtureShards(t *testing.T, shards int) *Server {
	t.Helper()
	db, err := Open(Options{Length: 32, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	// Cluster: one-cycle sines with tiny perturbations — all the normal-
	// form energy sits in X_1, so the cluster's search rectangles pin a
	// large |X_1|. Outliers: pure high-frequency sines, whose |X_1| is ~0
	// — far outside any cluster rectangle in the indexed dimensions.
	for i := 0; i < 6; i++ {
		vals := clusterSeries(0.0005 * float64(i))
		if err := db.Insert(fmt.Sprintf("C%02d", i), vals); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		vals := make([]float64, 32)
		for j := range vals {
			vals[j] = 20 * sin(float64(8*j)/32+float64(i))
		}
		if err := db.Insert(fmt.Sprintf("Z%02d", i), vals); err != nil {
			t.Fatal(err)
		}
	}
	return NewServer(db, ServerOptions{})
}

func sin(turns float64) float64 {
	return math.Sin(2 * math.Pi * turns)
}

func clusterSeries(delta float64) []float64 {
	vals := make([]float64, 32)
	for j := range vals {
		vals[j] = 10*sin(float64(j)/32) + delta*sin(float64(3*j)/32)
	}
	return vals
}

// outlier is a pure high-frequency sine like the fixture's "Z*" series: far
// outside any cluster rectangle.
func outlier(i int) []float64 {
	vals := make([]float64, 32)
	for j := range vals {
		vals[j] = 20 * sin(float64(8*j)/32+float64(100+i))
	}
	return vals
}

func cacheLen(s *Server) int {
	_, _, n := s.cache.counts()
	return n
}

// TestAppendBurstDoesNotStarveCache: a query whose computation overlaps
// an append the Lemma 1 proof shows irrelevant must still cache its
// result (the write-log replay); one the append could affect must not.
func TestAppendBurstDoesNotStarveCache(t *testing.T) {
	bothShardCounts(t, testAppendBurstDoesNotStarveCache)
}

func testAppendBurstDoesNotStarveCache(t *testing.T, s *Server) {
	// Irrelevant overlap: mid-compute, append to a far-away outlier.
	s.testHookAfterCompute = func(cachedResult) {
		s.testHookAfterCompute = nil // fire once
		if err := s.Append("Z00", []float64{123.5, -321}); err != nil {
			t.Error(err)
		}
	}
	if _, _, err := s.RangeByName("C00", 0.5, Identity()); err != nil {
		t.Fatal(err)
	}
	if got := cacheLen(s); got != 1 {
		t.Fatalf("cache has %d entries after overlapped-but-unaffected append, want 1", got)
	}
	_, st, err := s.RangeByName("C00", 0.5, Identity())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Fatal("repeat query missed the cache")
	}

	// Affecting overlap: mid-compute, append to the query series itself.
	s.testHookAfterCompute = func(cachedResult) {
		s.testHookAfterCompute = nil
		if err := s.Append("C01", []float64{4}); err != nil {
			t.Error(err)
		}
	}
	before := cacheLen(s)
	if _, _, err := s.RangeByName("C01", 0.5, Identity()); err != nil {
		t.Fatal(err)
	}
	// The append also evicts the earlier C00 entry (C01 is one of its
	// members), so the cache must not have grown.
	if got := cacheLen(s); got >= before+1 {
		t.Fatalf("cache grew to %d entries despite an affecting overlapped append", got)
	}
	_, st, err = s.RangeByName("C01", 0.5, Identity())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached {
		t.Fatal("query overlapping an affecting append was wrongly cached")
	}
}

// TestTaggedCacheSurvivesUnrelatedWrites: inserts and deletes that the
// entry's rectangle and membership prove irrelevant retain
// the entry; related writes evict it.
func TestTaggedCacheSurvivesUnrelatedWrites(t *testing.T) {
	bothShardCounts(t, testTaggedCacheSurvivesUnrelatedWrites)
}

func testTaggedCacheSurvivesUnrelatedWrites(t *testing.T, s *Server) {
	warm := func() []Match {
		m, _, err := s.RangeByName("C00", 0.5, Identity())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	matches := warm()
	if len(matches) < 2 {
		t.Fatalf("fixture cluster query found %d matches, want the cluster", len(matches))
	}
	if got := cacheLen(s); got != 1 {
		t.Fatalf("cache len = %d, want 1", got)
	}

	// Insert of a far-away series: retained.
	far := make([]float64, 32)
	for j := range far {
		far[j] = 5 * sin(float64(9*j)/32)
	}
	if err := s.Insert("Z99", far); err != nil {
		t.Fatal(err)
	}
	if got := cacheLen(s); got != 1 {
		t.Fatalf("cache len after unrelated insert = %d, want 1", got)
	}

	// Delete of a non-member: retained.
	if !s.Delete("Z99") {
		t.Fatal("Z99 vanished")
	}
	if got := cacheLen(s); got != 1 {
		t.Fatalf("cache len after non-member delete = %d, want 1", got)
	}
	if _, st, _ := s.RangeByName("C00", 0.5, Identity()); !st.Cached {
		t.Fatal("entry did not survive unrelated writes")
	}

	// Delete of a member: evicted.
	if !s.Delete(matches[len(matches)-1].Name) {
		t.Fatal("member vanished")
	}
	if got := cacheLen(s); got != 0 {
		t.Fatalf("cache len after member delete = %d, want 0", got)
	}
}

// TestInsertIntoRectangleEvicts: a new series whose feature point lands
// inside a cached answer's search rectangle must evict the entry — it may
// belong to the answer now.
func TestInsertIntoRectangleEvicts(t *testing.T) {
	s := cacheFixture(t)
	if _, _, err := s.RangeByName("C00", 0.5, Identity()); err != nil {
		t.Fatal(err)
	}
	if got := cacheLen(s); got != 1 {
		t.Fatalf("cache len = %d, want 1", got)
	}
	if err := s.Insert("C99", clusterSeries(0.004)); err != nil {
		t.Fatal(err)
	}
	if got := cacheLen(s); got != 0 {
		t.Fatalf("cache len after in-rectangle insert = %d, want 0", got)
	}
	m, _, err := s.RangeByName("C00", 0.5, Identity())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, match := range m {
		if match.Name == "C99" {
			found = true
		}
	}
	if !found {
		t.Fatal("fresh answer misses the inserted cluster member (fixture assumption broken)")
	}
}

// twoCycle builds a series whose normal-form energy sits in X_2 — a
// dimension where the fixture's store (cluster in X_1, outliers in X_8)
// has essentially zero extent, so it pairs with no stored series.
func twoCycle(amp float64, phase float64) []float64 {
	vals := make([]float64, 32)
	for j := range vals {
		vals[j] = amp * sin(float64(2*j)/32+phase)
	}
	return vals
}

// TestJoinCacheSelective: a cached join answer depends on every stored
// series, so every put evicts it — an insert, an update, an append and a
// small batch, each of a series far from every other — while a delete
// keeps it unless the deleted series is in one of its pairs.
func TestJoinCacheSelective(t *testing.T) {
	s := cacheFixture(t)
	join := func() ([]Pair, bool) {
		p, st, err := s.SelfJoin(0.5, Identity(), JoinAuto)
		if err != nil {
			t.Fatal(err)
		}
		return p, st.Cached
	}
	warm := func() []Pair {
		t.Helper()
		join()
		pairs, cached := join()
		if !cached {
			t.Fatal("repeat join missed the cache")
		}
		return pairs
	}
	if pairs := warm(); len(pairs) == 0 {
		t.Fatal("fixture cluster produced no join pairs")
	}
	for _, put := range []struct {
		what  string
		write func() error
	}{
		{"far-away insert", func() error { return s.Insert("F00", twoCycle(20, 0)) }},
		{"update", func() error { return s.Update("F00", twoCycle(20, 0.25)) }},
		{"append", func() error { return s.Append("F00", []float64{3, -3}) }},
		{"small batch", func() error { return s.InsertAll([]NamedSeries{{Name: "F01", Values: twoCycle(20, 0.5)}}) }},
	} {
		warm()
		if err := put.write(); err != nil {
			t.Fatal(err)
		}
		if _, cached := join(); cached {
			t.Fatalf("a %s kept the cached join", put.what)
		}
	}

	// A delete of a series in no pair keeps the entry; a delete of a
	// paired one evicts it.
	pairs := warm()
	for _, p := range pairs {
		if p.A == "F01" || p.B == "F01" {
			t.Fatal("fixture assumption broken: F01 joined a pair")
		}
	}
	if !s.Delete("F01") {
		t.Fatal("F01 vanished")
	}
	if _, cached := join(); !cached {
		t.Fatal("unpaired delete evicted the cached join")
	}
	if !s.Delete(pairs[0].A) {
		t.Fatal("paired member vanished")
	}
	if _, cached := join(); cached {
		t.Fatal("paired-member delete kept the cached join")
	}
}

// TestSmallBatchInsertAllSelective: InsertAll batches up to the
// threshold emit per-name events — cached entries the batch provably
// cannot affect survive — while larger batches still purge.
func TestSmallBatchInsertAllSelective(t *testing.T) {
	s := cacheFixture(t)
	warm := func() bool {
		_, st, err := s.RangeByName("C00", 0.5, Identity())
		if err != nil {
			t.Fatal(err)
		}
		return st.Cached
	}
	// Small batch of far-away series: retained.
	warm()
	if !warm() {
		t.Fatal("warming query missed")
	}
	small := make([]NamedSeries, 4)
	for i := range small {
		small[i] = NamedSeries{Name: fmt.Sprintf("S%02d", i), Values: outlier(i)}
	}
	if err := s.InsertAll(small); err != nil {
		t.Fatal(err)
	}
	if !warm() {
		t.Fatal("small unrelated batch purged the cache")
	}

	// Small batch containing one series inside the cached rectangle:
	// evicted.
	hit := []NamedSeries{
		{Name: "S90", Values: outlier(90)},
		{Name: "C90", Values: clusterSeries(0.003)},
	}
	if err := s.InsertAll(hit); err != nil {
		t.Fatal(err)
	}
	if warm() {
		t.Fatal("batch entering the rectangle kept the cached entry")
	}

	// Large batch: purges even when every series is far away.
	if !warm() {
		t.Fatal("warming query missed")
	}
	big := make([]NamedSeries, smallBatchThreshold+1)
	for i := range big {
		big[i] = NamedSeries{Name: fmt.Sprintf("B%02d", i), Values: outlier(200 + i)}
	}
	if err := s.InsertAll(big); err != nil {
		t.Fatal(err)
	}
	if warm() {
		t.Fatal("bulk batch did not purge the cache")
	}
}

// TestCacheOffBuildsNoPredicate: a server opened without a cache must not
// pay for filing answers it can never store — no invalidation predicate is
// built (building one plans the query a second time) and raw query vectors
// are not hashed into the key — while every answer stays what a caching
// server returns.
func TestCacheOffBuildsNoPredicate(t *testing.T) {
	on := cacheFixture(t)
	off := NewServer(cacheFixture(t).db, ServerOptions{CacheSize: -1})
	if off.caching() || !on.caching() {
		t.Fatalf("caching(): off %t, on %t", off.caching(), on.caching())
	}

	// Every computed answer passes the compute hook on its way to filing,
	// carrying the predicate its read built, if any. No read may build a
	// stand-alone prefilter either way.
	for name, s := range map[string]*Server{"on": on, "off": off} {
		pc := &planCounter{Engine: s.db.eng}
		s.db.eng = pc
		var computed, predicates int
		s.testHookAfterCompute = func(r cachedResult) {
			computed++
			if r.affected != nil {
				predicates++
			}
		}
		if _, _, err := s.RangeByName("C00", 0.5, Identity()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Query("NN SERIES 'C00' K 3"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.SelfJoinPlanned(0.5, Identity(), UseAuto); err != nil {
			t.Fatal(err)
		}
		s.db.eng = pc.Engine
		s.testHookAfterCompute = nil
		want := map[string]int{"on": 3, "off": 0}[name]
		if computed != 3 || predicates != want || pc.prefilters != 0 {
			t.Fatalf("cache %s: %d reads computed, %d predicates built (want %d), %d stand-alone prefilters",
				name, computed, predicates, want, pc.prefilters)
		}
	}
	q := clusterSeries(0.0002)
	if key := valuesKey(q, off.caching()); key != "32.-" {
		t.Fatalf("cache off hashed the query vector into %q", key)
	}
	if key := valuesKey(q, on.caching()); len(key) != len("32.")+64 {
		t.Fatalf("cache on did not hash the query vector: %q", key)
	}

	// Same answers either way, for every match-shaped read, twice over (the
	// second pass is a cache hit on one side and a fresh execution on the
	// other).
	for pass := 0; pass < 2; pass++ {
		for name, read := range map[string]func(*Server) ([]Match, Stats, error){
			"Range":       func(s *Server) ([]Match, Stats, error) { return s.Range(q, 0.5, Identity()) },
			"RangeByName": func(s *Server) ([]Match, Stats, error) { return s.RangeByName("C01", 0.5, MovingAverage(4)) },
			"NN":          func(s *Server) ([]Match, Stats, error) { return s.NN(q, 3, Identity()) },
			"NNByName":    func(s *Server) ([]Match, Stats, error) { return s.NNByName("Z02", 4, Identity()) },
		} {
			want, _, err := read(on)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := read(off)
			if err != nil {
				t.Fatal(err)
			}
			if st.Cached {
				t.Fatalf("%s: a server without a cache served a cached answer", name)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s pass %d: cache off answered\n %v\ncache on\n %v", name, pass, got, want)
			}
		}
	}
	if n := cacheLen(off); n != 0 {
		t.Fatalf("a zero-capacity cache holds %d entries", n)
	}
}

// planCounter counts what a statement asks of the engine's planning surface:
// the two entry points that plan a range or NN query, and the stand-alone
// prefilter builder the server used to call for each answer it filed.
type planCounter struct {
	core.Engine
	plans, prefilters int
}

func (c *planCounter) PlanRange(q core.RangeQuery, want plan.Strategy) (*plan.Plan, error) {
	c.plans++
	return c.Engine.PlanRange(q, want)
}

func (c *planCounter) PlanNN(q core.NNQuery, want plan.Strategy) (*plan.Plan, error) {
	c.plans++
	return c.Engine.PlanNN(q, want)
}

func (c *planCounter) PlanPrefilter(q core.RangeQuery) (*core.Prefilter, error) {
	c.prefilters++
	return c.Engine.PlanPrefilter(q)
}

// TestCacheOnPlansOncePerStatement is TestCacheOffBuildsNoPredicate's twin:
// a caching server files every answer with an invalidation predicate, and
// builds it from the Lemma 1 filter of the plan that ran — one planning call
// per statement under every strategy, none for the predicate — while the
// predicate still tells a far write from a near one. Each read is issued as
// the typed call and, against a fresh server, spelled as a statement: the
// two are one path, so they owe the same counts and the same verdicts.
func TestCacheOnPlansOncePerStatement(t *testing.T) {
	bothShardCounts(t, func(t *testing.T, s *Server) {
		t.Run("typed", func(t *testing.T) { testCacheOnPlansOncePerStatement(t, s, false) })
		t.Run("statement", func(t *testing.T) {
			testCacheOnPlansOncePerStatement(t, cacheFixtureShards(t, s.Shards()), true)
		})
	})
}

// valuesLiteral spells a query vector as a VALUES clause that parses back to
// the same floats.
func valuesLiteral(q []float64) string {
	parts := make([]string, len(q))
	for i, v := range q {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return "VALUES (" + strings.Join(parts, ", ") + ")"
}

func testCacheOnPlansOncePerStatement(t *testing.T, s *Server, asStatement bool) {
	pc := &planCounter{Engine: s.db.eng}
	s.db.eng = pc
	q := clusterSeries(0.0002)
	lit := valuesLiteral(q)
	reads := []struct {
		name string
		run  func() ([]Match, Stats, error)
		stmt string
	}{
		{"Range", func() ([]Match, Stats, error) { return s.Range(q, 0.5, Identity()) },
			"RANGE " + lit + " EPS 0.5 USING INDEX"},
		{"Range scan", func() ([]Match, Stats, error) { return s.Range(q, 0.5, Identity(), With(UseScan)) },
			"RANGE " + lit + " EPS 0.5 USING SCAN"},
		{"Range auto", func() ([]Match, Stats, error) {
			return s.Range(q, 0.5, MovingAverage(4), With(UseAuto), TransformBoth())
		}, "RANGE " + lit + " EPS 0.5 TRANSFORM mavg(4) BOTH"},
		{"RangeByName", func() ([]Match, Stats, error) { return s.RangeByName("C01", 0.5, MovingAverage(4)) },
			"RANGE SERIES 'C01' EPS 0.5 TRANSFORM mavg(4) USING INDEX"},
		{"NN", func() ([]Match, Stats, error) { return s.NN(q, 3, Identity()) },
			"NN " + lit + " K 3 USING INDEX"},
		{"NN auto", func() ([]Match, Stats, error) { return s.NN(q, 3, Identity(), With(UseAuto)) },
			"NN " + lit + " K 3"},
		{"NNByName", func() ([]Match, Stats, error) { return s.NNByName("C02", 4, Identity(), With(UseScan)) },
			"NN SERIES 'C02' K 4 USING SCAN"},
	}
	if asStatement {
		for i := range reads {
			stmt := reads[i].stmt
			reads[i].run = func() ([]Match, Stats, error) { return matchesOf(s.Query(stmt)) }
		}
	}
	holdsC00 := map[string]bool{}
	for _, r := range reads {
		pc.plans, pc.prefilters = 0, 0
		filed := cacheLen(s)
		m, st, err := r.run()
		if err != nil || st.Cached {
			t.Fatalf("%s: err %v, cached %t", r.name, err, st.Cached)
		}
		for _, hit := range m {
			holdsC00[r.name] = holdsC00[r.name] || hit.Name == "C00"
		}
		if pc.plans != 1 || pc.prefilters != 0 {
			t.Fatalf("%s: %d planning calls and %d prefilter builds for one statement, want 1 and 0", r.name, pc.plans, pc.prefilters)
		}
		if cacheLen(s) != filed+1 {
			t.Fatalf("%s: the answer was not filed", r.name)
		}
	}
	if len(holdsC00) < 4 {
		t.Fatalf("only %d of the answers hold C00: the fixture no longer exercises eviction", len(holdsC00))
	}
	// The filed predicates are live: an outlier's append keeps every entry,
	// an append that moves a cluster member drops the ones it belongs to.
	if err := s.Append("Z03", []float64{1}); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if _, st, err := r.run(); err != nil || !st.Cached {
			t.Fatalf("%s after a far append: err %v, cached %t", r.name, err, st.Cached)
		}
	}
	if err := s.Append("C00", []float64{0.1}); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if _, st, err := r.run(); err != nil || (st.Cached && holdsC00[r.name]) {
			t.Fatalf("%s after a member's append: err %v, cached %t", r.name, err, st.Cached)
		}
	}
}

// TestStatementSharesTypedEntry: a statement compiles to the typed call, so
// the two file one answer under one key and one invalidation test — whichever
// arrives first, however the statement is spelled, whatever its LIMIT — while
// EXPLAIN and TRACE neither read nor write the cache and a Table 1 method
// keeps an entry of its own.
func TestStatementSharesTypedEntry(t *testing.T) {
	bothShardCounts(t, testStatementSharesTypedEntry)
}

func testStatementSharesTypedEntry(t *testing.T, s *Server) {
	q := clusterSeries(0.0002)
	query := func(stmt string) (*Output, Stats, error) {
		out, err := s.Query(stmt)
		if err != nil {
			return nil, Stats{}, err
		}
		return out, out.Stats, nil
	}
	typed := func(m []Match, st Stats, err error) (*Output, Stats, error) { return &Output{Matches: m}, st, err }
	joined := func(p []Pair, st Stats, err error) (*Output, Stats, error) { return &Output{Pairs: p}, st, err }
	pairs := []struct {
		name  string
		stmt  string
		typed func() (*Output, Stats, error)
	}{
		{"range by name", "RANGE SERIES 'C01' EPS 0.5 TRANSFORM mavg(4) USING AUTO",
			func() (*Output, Stats, error) {
				return typed(s.RangeByName("C01", 0.5, MovingAverage(4), With(UseAuto)))
			}},
		{"range values both", "RANGE " + valuesLiteral(q) + " EPS 0.25 TRANSFORM reverse() | mavg(4) BOTH USING INDEX",
			func() (*Output, Stats, error) {
				return typed(s.Range(q, 0.25, Reverse().Then(MovingAverage(4)), TransformBoth()))
			}},
		{"range moments approx", "RANGE SERIES 'C02' EPS 2 MEAN [-1, 1] STD [0, 50] APPROX 0.05 USING INDEX",
			func() (*Output, Stats, error) {
				return typed(s.RangeByName("C02", 2, Identity(), MeanRange(-1, 1), StdRange(0, 50), WithApprox(0.05)))
			}},
		{"nn values", "NN " + valuesLiteral(q) + " K 3 USING SCAN",
			func() (*Output, Stats, error) { return typed(s.NN(q, 3, Identity(), With(UseScan))) }},
		{"nn by name", "NN SERIES 'Z01' K 2 TRANSFORM scale(2)",
			func() (*Output, Stats, error) { return typed(s.NNByName("Z01", 2, Scale(2), With(UseAuto))) }},
		{"selfjoin planned", "SELFJOIN EPS 0.5 TRANSFORM mavg(4)",
			func() (*Output, Stats, error) { return joined(s.SelfJoinPlanned(0.5, MovingAverage(4), UseAuto)) }},
		{"selfjoin method", "SELFJOIN EPS 0.5 TRANSFORM mavg(4) METHOD b",
			func() (*Output, Stats, error) { return joined(s.SelfJoin(0.5, MovingAverage(4), JoinScanEarlyAbandon)) }},
		{"join", "JOIN EPS 0.5 LEFT reverse() RIGHT identity() USING SCAN",
			func() (*Output, Stats, error) {
				return joined(s.JoinTwoSidedPlanned(0.5, Reverse(), Identity(), UseScan))
			}},
	}
	for i, p := range pairs {
		first, second := func() (*Output, Stats, error) { return query(p.stmt) }, p.typed
		if i%2 == 1 { // the reverse order on every other row
			first, second = second, first
		}
		filed := cacheLen(s)
		a, st, err := first()
		if err != nil || st.Cached {
			t.Fatalf("%s: first arrival: err %v, cached %t", p.name, err, st.Cached)
		}
		b, st, err := second()
		if err != nil || !st.Cached {
			t.Fatalf("%s: second arrival: err %v, cached %t — the statement and its typed call filed apart", p.name, err, st.Cached)
		}
		if cacheLen(s) != filed+1 {
			t.Fatalf("%s: %d entries for one answer", p.name, cacheLen(s)-filed)
		}
		if fmt.Sprint(a.Matches, a.Pairs) != fmt.Sprint(b.Matches, b.Pairs) {
			t.Fatalf("%s: the two arrivals answered differently:\n %v\n %v", p.name, a, b)
		}
	}

	// Spelling is not identity: case, whitespace, a trailing semicolon and a
	// float spelled another way all compile to the entry filed above.
	for _, stmt := range []string{
		"range  series 'C01'\teps 0.50 transform MAVG( 4 ) using auto ;",
		"Range Series 'C01' Within 5e-1 Transform identity() | mavg(4.0)",
	} {
		filed := cacheLen(s)
		if _, st, err := query(stmt); err != nil || !st.Cached || cacheLen(s) != filed {
			t.Fatalf("%q: err %v, cached %t, %d new entries", stmt, err, st.Cached, cacheLen(s)-filed)
		}
	}

	// LIMIT cuts the clone handed out, not the entry: two limits and the
	// unlimited typed call share one entry and each gets its own prefix.
	filed := cacheLen(s)
	ten, _, err := query("RANGE SERIES 'C00' EPS 1000 USING INDEX LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	five, st, err := query("RANGE SERIES 'C00' EPS 1000 USING INDEX LIMIT 5")
	if err != nil || !st.Cached {
		t.Fatalf("LIMIT 5 after LIMIT 10: err %v, cached %t", err, st.Cached)
	}
	all, st, err := s.RangeByName("C00", 1000, Identity())
	if err != nil || !st.Cached {
		t.Fatalf("the typed call after its LIMITed statements: err %v, cached %t", err, st.Cached)
	}
	if len(ten.Matches) != 10 || len(five.Matches) != 5 || len(all) != 12 || cacheLen(s) != filed+1 {
		t.Fatalf("LIMIT 10 / LIMIT 5 / unlimited returned %d / %d / %d matches from %d entries",
			len(ten.Matches), len(five.Matches), len(all), cacheLen(s)-filed)
	}
	if fmt.Sprint(ten.Matches) != fmt.Sprint(all[:10]) || fmt.Sprint(five.Matches) != fmt.Sprint(all[:5]) {
		t.Fatal("a LIMITed answer is not the prefix of the full one")
	}
	pair, _, err := query("SELFJOIN EPS 1000 LIMIT 7")
	if err != nil || len(pair.Pairs) != 7 {
		t.Fatalf("join LIMIT 7: err %v, %d pairs", err, len(pair.Pairs))
	}

	// EXPLAIN and TRACE execute every time and leave nothing behind, even
	// with the plain statement's answer sitting in the cache.
	for _, prefix := range []string{"EXPLAIN ", "TRACE ", "TRACE EXPLAIN "} {
		for pass := 0; pass < 2; pass++ {
			filed, hits := cacheLen(s), s.Stats().CacheHits
			out, st, err := query(prefix + pairs[0].stmt)
			if err != nil || st.Cached || cacheLen(s) != filed || s.Stats().CacheHits != hits {
				t.Fatalf("%spass %d: err %v, cached %t, %d new entries, %d lookups hit",
					prefix, pass, err, st.Cached, cacheLen(s)-filed, s.Stats().CacheHits-hits)
			}
			if (out.Explain != nil) != strings.Contains(prefix, "EXPLAIN") || (out.Trace != nil) != strings.Contains(prefix, "TRACE") {
				t.Fatalf("%s: explain %t, trace %t", prefix, out.Explain != nil, out.Trace != nil)
			}
		}
	}

	// A Table 1 method is part of the answer (index methods report each pair
	// twice), so it is part of the key.
	filed = cacheLen(s)
	planned, _, err := query("SELFJOIN EPS 0.25")
	if err != nil {
		t.Fatal(err)
	}
	methodD, st, err := query("SELFJOIN EPS 0.25 METHOD d")
	if err != nil || st.Cached || cacheLen(s) != filed+2 {
		t.Fatalf("METHOD d after the planned self join: err %v, cached %t, %d new entries", err, st.Cached, cacheLen(s)-filed)
	}
	if len(planned.Pairs) == 0 || len(methodD.Pairs) != 2*len(planned.Pairs) {
		t.Fatalf("planned self join %d pairs, METHOD d %d (want double)", len(planned.Pairs), len(methodD.Pairs))
	}
	if _, st, err := s.SelfJoin(0.25, Identity(), JoinIndexTransform); err != nil || !st.Cached {
		t.Fatalf("typed method-d join after its statement: err %v, cached %t", err, st.Cached)
	}
}

// TestMomentBoundsScope: mean/std bounds restrict a range query's search
// rectangle and mean nothing anywhere else, so every other read refuses them
// where its spec is built — statement, typed call and standing monitor alike
// — instead of answering as if unbounded.
func TestMomentBoundsScope(t *testing.T) {
	s := cacheFixture(t)
	db := s.db
	q := clusterSeries(0.0002)
	bounded := []QueryOpt{MeanRange(1e9, 2e9)}
	rows := []struct {
		name    string
		run     func() error
		refused bool
	}{
		{"RANGE statement", func() error { _, err := s.Query("RANGE SERIES 'C00' EPS 1 MEAN [-1, 1] STD [0, 50]"); return err }, false},
		{"NN statement", func() error { _, err := s.Query("NN SERIES 'C00' K 3 MEAN [1e9, 2e9]"); return err }, true},
		{"SELFJOIN statement", func() error { _, err := s.Query("SELFJOIN EPS 1 STD [0, 1]"); return err }, true},
		{"JOIN statement", func() error { _, err := s.Query("JOIN EPS 1 LEFT reverse() MEAN [0, 1]"); return err }, true},
		{"EXPLAIN NN statement on DB", func() error { _, err := db.Query("EXPLAIN NN SERIES 'C00' K 3 STD [0, 1]"); return err }, true},
		{"progressive NN", func() error {
			return s.QueryProgressive("NN SERIES 'C00' K 3 MEAN [0, 1]", func(ProgressiveStage) error { return nil })
		}, true},
		{"DB.Range", func() error { _, _, err := db.Range(q, 1, Identity(), MeanRange(-1, 1)); return err }, false},
		{"DB.NN", func() error { _, _, err := db.NN(q, 3, Identity(), bounded...); return err }, true},
		{"DB.NNByName", func() error { _, _, err := db.NNByName("C00", 3, Identity(), StdRange(0, 1)); return err }, true},
		{"Server.NN", func() error { _, _, err := s.NN(q, 3, Identity(), bounded...); return err }, true},
		{"Server.NNByName", func() error { _, _, err := s.NNByName("C00", 3, Identity(), bounded...); return err }, true},
		{"Server.MonitorRange", func() error { _, _, err := s.MonitorRange(q, 1, Identity(), MeanRange(-1, 1)); return err }, false},
		{"Server.MonitorNN", func() error { _, _, err := s.MonitorNN(q, 3, Identity(), bounded...); return err }, true},
		{"Server.MonitorNNByName", func() error { _, _, err := s.MonitorNNByName("C00", 3, Identity(), bounded...); return err }, true},
	}
	for _, r := range rows {
		err := r.run()
		switch {
		case !r.refused && err != nil:
			t.Errorf("%s: %v", r.name, err)
		case r.refused && (err == nil || !strings.Contains(err.Error(), "moment bounds apply to RANGE queries only")):
			t.Errorf("%s: err %v, want the moment-bounds refusal", r.name, err)
		}
	}
	if n := len(s.Monitors()); n != 1 {
		t.Fatalf("%d monitors registered, want the one range monitor", n)
	}
	// The refused NN files nothing, so it cannot sit beside the unbounded
	// answer under a second key.
	filed := cacheLen(s)
	if _, _, err := s.NN(q, 3, Identity()); err != nil {
		t.Fatal(err)
	}
	_, _, _ = s.NN(q, 3, Identity(), bounded...)
	if cacheLen(s) != filed+1 {
		t.Fatalf("%d entries for one NN answer", cacheLen(s)-filed)
	}
}

// TestBarrierPurgesAndRefreshes: a barrier means one thing, whoever raises
// it — the cache is purged and every monitor re-evaluated in full. The
// monitor half is what a rolled-back InsertAll used to skip: its transient
// inserts are visible to a monitor evaluation racing it just as they are to
// a reader, and an NN monitor that picked one up kept it, with no leave,
// after the rollback. The race is staged: a ghost series is in the store
// only while the hub evaluates, so the monitor is stale by the time the
// barrier is raised.
func TestBarrierPurgesAndRefreshes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		raise func(t *testing.T, s *Server)
	}{
		{"rolled-back InsertAll", func(t *testing.T, s *Server) {
			err := s.InsertAll([]NamedSeries{{Name: "T00", Values: outlier(0)}, {Name: "C00", Values: outlier(1)}})
			if err == nil || s.Len() != 12 {
				t.Fatalf("duplicate in the batch: err %v, %d series stored", err, s.Len())
			}
		}},
		{"large InsertAll", func(t *testing.T, s *Server) {
			big := make([]NamedSeries, smallBatchThreshold+1)
			for i := range big {
				big[i] = NamedSeries{Name: fmt.Sprintf("B%02d", i), Values: outlier(i)}
			}
			if err := s.InsertAll(big); err != nil {
				t.Fatal(err)
			}
		}},
		{"Compact", func(t *testing.T, s *Server) {
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := cacheFixture(t)
			id, _, err := s.MonitorNN(clusterSeries(0), 3, Identity())
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.Watch(id, -1, 16)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Cancel()
			if err := s.db.Insert("ghost", clusterSeries(0.0001)); err != nil {
				t.Fatal(err)
			}
			s.hub.RefreshAll()
			s.db.Delete("ghost")
			haunted := func() bool {
				members, err := s.MonitorMembers(id)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range members {
					if m.Name == "ghost" {
						return true
					}
				}
				return false
			}
			if !haunted() {
				t.Fatal("the staged evaluation did not pick the transient series up")
			}
			if _, _, err := s.RangeByName("C00", 0.5, Identity()); err != nil || cacheLen(s) != 1 {
				t.Fatalf("warming query: %v, %d entries", err, cacheLen(s))
			}

			tc.raise(t, s)

			if n := cacheLen(s); n != 0 {
				t.Fatalf("%d cache entries survived the barrier", n)
			}
			if haunted() {
				t.Fatal("the monitor still holds a series that is not in the store")
			}
			for timeout := time.After(5 * time.Second); ; {
				select {
				case ev := <-w.Events:
					if ev.Name == "ghost" && ev.Kind == "leave" {
						return
					}
				case <-timeout:
					t.Fatal("no leave event for the series the refresh dropped")
				}
			}
		})
	}
}
