package tsq

// Internal-package tests for the dependency-tagged result cache: write
// events, shard tags, and the write-log replay that keeps the cache warm
// under append bursts (the "skip the unconditional version starvation"
// fix — a naive skip of the version bump would be unsound for in-flight
// queries the append *does* affect, so the bump stays and provably
// unaffected results replay past it).

import (
	"fmt"
	"math"
	"testing"

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

func cacheLen(s *Server) int { return s.cache.Len() }

// TestAppendBurstDoesNotStarveCache: a query whose computation overlaps
// an append the Lemma 1 proof shows irrelevant must still cache its
// result (the write-log replay); one the append could affect must not.
func TestAppendBurstDoesNotStarveCache(t *testing.T) {
	bothShardCounts(t, testAppendBurstDoesNotStarveCache)
}

func testAppendBurstDoesNotStarveCache(t *testing.T, s *Server) {
	// Irrelevant overlap: mid-compute, append to a far-away outlier.
	s.testHookAfterCompute = func() {
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
	s.testHookAfterCompute = func() {
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
// entry's rectangle, membership, and shard tags prove irrelevant retain
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
// has essentially zero extent, so its feature point lies provably outside
// the store's eps-expanded extent.
func twoCycle(amp float64, phase float64) []float64 {
	vals := make([]float64, 32)
	for j := range vals {
		vals[j] = amp * sin(float64(2*j)/32+phase)
	}
	return vals
}

// TestJoinCacheSelective: cached join answers carry the whole-store
// dependency geometry — a write provably out of eps reach of every
// stored series retains the entry, a delete of an unpaired series
// retains it, and writes that could form or break a pair evict it
// (including a pair between two successively retained far-away inserts,
// which the absorbed extent catches).
func TestJoinCacheSelective(t *testing.T) {
	s := cacheFixture(t)
	join := func() (int, bool) {
		p, st, err := s.SelfJoin(0.5, Identity(), JoinAuto)
		if err != nil {
			t.Fatal(err)
		}
		return len(p), st.Cached
	}
	nPairs, _ := join()
	if nPairs == 0 {
		t.Fatal("fixture cluster produced no join pairs")
	}
	if _, cached := join(); !cached {
		t.Fatal("repeat join missed the cache")
	}

	// Insert far outside every stored series' eps reach: retained.
	if err := s.Insert("F00", twoCycle(20, 0)); err != nil {
		t.Fatal(err)
	}
	if _, cached := join(); !cached {
		t.Fatal("unreachable insert evicted the cached join")
	}
	// A second insert close to the first: the absorbed extent must catch
	// the new pair (F00, F01) even though both are far from the original
	// store.
	if err := s.Insert("F01", twoCycle(20, 0.001)); err != nil {
		t.Fatal(err)
	}
	if _, cached := join(); cached {
		t.Fatal("insert pairing with a retained far-away series kept the cached join")
	}

	// Re-warm with one unpaired far-away singleton in the store; deleting
	// it retains the entry, deleting a paired member evicts it.
	s.Delete("F00")
	s.Delete("F01")
	if err := s.Insert("F02", twoCycle(20, 1.5)); err != nil {
		t.Fatal(err)
	}
	pairs, _, err := s.SelfJoin(0.5, Identity(), JoinAuto)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.A == "F02" || p.B == "F02" {
			t.Fatal("fixture assumption broken: F02 joined a pair")
		}
	}
	if _, cached := join(); !cached {
		t.Fatal("warming join missed")
	}
	if !s.Delete("F02") {
		t.Fatal("F02 vanished")
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
	outlier := func(i int) []float64 {
		vals := make([]float64, 32)
		for j := range vals {
			vals[j] = 20 * sin(float64(8*j)/32+float64(100+i))
		}
		return vals
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

// TestEntryShardTags: cached entries carry the shard set their answers
// live in.
func TestEntryShardTags(t *testing.T) {
	s := cacheFixture(t)
	if _, _, err := s.RangeByName("C00", 0.5, Identity()); err != nil {
		t.Fatal(err)
	}
	var tagged []int
	s.cache.RemoveIf(func(_ string, v any) bool {
		tagged = v.(cachedResult).shards
		return false
	})
	if len(tagged) == 0 {
		t.Fatal("cached entry carries no shard tags")
	}
	for _, sh := range tagged {
		if sh < 0 || sh >= s.Shards() {
			t.Fatalf("tag %d outside shard range", sh)
		}
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

	for name, s := range map[string]*Server{"on": on, "off": off} {
		built := 0
		_, _, err := s.matchQuery("range|probe", "", func() ([]Match, Stats, error) {
			return s.db.RangeByName("C00", 0.5, Identity())
		}, func([]Match) (func(writeEvent) bool, []int) {
			built++
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := map[string]int{"on": 1, "off": 0}[name]; built != want {
			t.Fatalf("cache %s: predicate built %d times, want %d", name, built, want)
		}
	}
	q := clusterSeries(0.0002)
	if key := off.valuesKey(q); key != "32.-" {
		t.Fatalf("cache off hashed the query vector into %q", key)
	}
	if key := on.valuesKey(q); len(key) != len("32.")+64 {
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
// predicate still tells a far write from a near one.
func TestCacheOnPlansOncePerStatement(t *testing.T) {
	bothShardCounts(t, testCacheOnPlansOncePerStatement)
}

func testCacheOnPlansOncePerStatement(t *testing.T, s *Server) {
	pc := &planCounter{Engine: s.db.eng}
	s.db.eng = pc
	q := clusterSeries(0.0002)
	reads := []struct {
		name string
		run  func() ([]Match, Stats, error)
	}{
		{"Range", func() ([]Match, Stats, error) { return s.Range(q, 0.5, Identity()) }},
		{"Range scan", func() ([]Match, Stats, error) { return s.Range(q, 0.5, Identity(), With(UseScan)) }},
		{"Range auto", func() ([]Match, Stats, error) {
			return s.Range(q, 0.5, MovingAverage(4), With(UseAuto), TransformBoth())
		}},
		{"RangeByName", func() ([]Match, Stats, error) { return s.RangeByName("C01", 0.5, MovingAverage(4)) }},
		{"NN", func() ([]Match, Stats, error) { return s.NN(q, 3, Identity()) }},
		{"NN auto", func() ([]Match, Stats, error) { return s.NN(q, 3, Identity(), With(UseAuto)) }},
		{"NNByName", func() ([]Match, Stats, error) { return s.NNByName("C02", 4, Identity(), With(UseScan)) }},
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
