package tsq_test

// Parity tests for plan-first joins: USING AUTO must answer
// byte-identically to every forced method, at shard counts 1 and 4,
// including transformed and two-sided joins. Planned joins report each
// qualifying unordered pair once (A < B); the paper's index methods c/d
// report pairs twice, so their outputs are normalized to the unordered
// form before comparing.

import (
	"fmt"
	"reflect"
	"testing"

	tsq "repro"
)

// onceNormalized filters a twice-reporting method's output down to the
// canonical once-per-pair form (A < B lexicographically is not the rule —
// pairs are ID-ordered, and IDs follow insertion order of the fixture's
// names, so name order matches).
func onceNormalized(pairs []tsq.Pair, index map[string]int) []tsq.Pair {
	out := make([]tsq.Pair, 0, len(pairs)/2)
	for _, p := range pairs {
		if index[p.A] < index[p.B] {
			out = append(out, p)
		}
	}
	return out
}

func nameIndex(db *tsq.DB) map[string]int {
	idx := make(map[string]int)
	for i, n := range db.Names() {
		idx[n] = i
	}
	return idx
}

// TestSelfJoinAutoMatchesForcedMethods: at shards 1 and 4, across
// transforms and thresholds, the planned self join answers identically
// under AUTO and every forced strategy, and matches every Table 1 method
// (normalized where the paper's accounting reports pairs twice; method c
// compared under the identity transform, where it is answer-equivalent).
func TestSelfJoinAutoMatchesForcedMethods(t *testing.T) {
	transforms := []struct {
		name     string
		t        tsq.Transform
		identity bool
	}{
		{"identity", tsq.Identity(), true},
		{"mavg", tsq.MovingAverage(10), false},
		{"reverse-mavg", tsq.Reverse().Then(tsq.MovingAverage(10)), false},
	}
	for _, shards := range []int{1, 4} {
		db := parityDB(t, shards)
		idx := nameIndex(db)
		for _, tr := range transforms {
			for _, eps := range []float64{0.5, 2, 50} {
				name := fmt.Sprintf("shards-%d/%s/eps-%g", shards, tr.name, eps)
				auto, _, err := db.SelfJoin(eps, tr.t, tsq.JoinAuto)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, forced := range []tsq.Strategy{tsq.UseIndex, tsq.UseScan, tsq.UseScanTime} {
					got, _, err := db.SelfJoinPlanned(eps, tr.t, forced)
					if err != nil {
						t.Fatalf("%s forced %d: %v", name, forced, err)
					}
					if !reflect.DeepEqual(auto, got) {
						t.Fatalf("%s: forced strategy %d diverges from auto\n auto %v\n got  %v", name, forced, auto, got)
					}
				}
				// Table 1 scan methods already report once per pair.
				a, _, err := db.SelfJoin(eps, tr.t, tsq.JoinScanNaive)
				if err != nil {
					t.Fatalf("%s method a: %v", name, err)
				}
				b, _, err := db.SelfJoin(eps, tr.t, tsq.JoinScanEarlyAbandon)
				if err != nil {
					t.Fatalf("%s method b: %v", name, err)
				}
				if !reflect.DeepEqual(auto, a) || !reflect.DeepEqual(auto, b) {
					t.Fatalf("%s: scan methods diverge from auto", name)
				}
				// Method d reports each pair twice; normalize.
				d, _, err := db.SelfJoin(eps, tr.t, tsq.JoinIndexTransform)
				if err != nil {
					t.Fatalf("%s method d: %v", name, err)
				}
				if got := onceNormalized(d, idx); !reflect.DeepEqual(auto, got) {
					t.Fatalf("%s: normalized method d diverges from auto\n auto %v\n d    %v", name, auto, got)
				}
				// Method c ignores the transformation, so it is only
				// answer-equivalent under the identity.
				if tr.identity {
					c, _, err := db.SelfJoin(eps, tr.t, tsq.JoinIndexPlain)
					if err != nil {
						t.Fatalf("%s method c: %v", name, err)
					}
					if got := onceNormalized(c, idx); !reflect.DeepEqual(auto, got) {
						t.Fatalf("%s: normalized method c diverges from auto", name)
					}
				}
			}
		}
	}
}

// TestJoinTwoSidedAutoParity: the planned two-sided join answers
// identically under AUTO and every forced strategy at shards 1 and 4,
// and across shard counts.
func TestJoinTwoSidedAutoParity(t *testing.T) {
	left := tsq.Reverse().Then(tsq.MovingAverage(10))
	right := tsq.MovingAverage(10)
	var byShards [][]tsq.Pair
	for _, shards := range []int{1, 4} {
		db := parityDB(t, shards)
		for _, eps := range []float64{1, 30} {
			auto, _, err := db.JoinTwoSided(eps, left, right)
			if err != nil {
				t.Fatal(err)
			}
			for _, forced := range []tsq.Strategy{tsq.UseIndex, tsq.UseScan, tsq.UseScanTime} {
				got, _, err := db.JoinTwoSidedPlanned(eps, left, right, forced)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(auto, got) {
					t.Fatalf("shards-%d eps-%g: forced %d diverges from auto", shards, eps, forced)
				}
			}
			if eps == 1 {
				byShards = append(byShards, auto)
			}
		}
	}
	if !reflect.DeepEqual(byShards[0], byShards[1]) {
		t.Fatal("two-sided auto answers differ across shard counts")
	}
}

// TestLanguageJoinDefaultsToPlanner: SELFJOIN without METHOD runs the
// planned join (once-per-pair accounting, matching METHOD b's pairs and
// every USING), JOIN executes two-sided, and EXPLAIN attaches the full
// plan with the Table 1 method letter and per-shard provenance.
func TestLanguageJoinDefaultsToPlanner(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db := parityDB(t, shards)
		def, err := db.Query("SELFJOIN EPS 2 TRANSFORM mavg(10)")
		if err != nil {
			t.Fatal(err)
		}
		if def.Kind != "SELFJOIN" || def.Explain != nil {
			t.Fatalf("default selfjoin output: %+v", def)
		}
		b, err := db.Query("SELFJOIN EPS 2 TRANSFORM mavg(10) METHOD b")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(def.Pairs, b.Pairs) {
			t.Fatalf("shards-%d: default selfjoin diverges from METHOD b", shards)
		}
		for _, using := range []string{"AUTO", "INDEX", "SCAN", "SCANTIME"} {
			got, err := db.Query("SELFJOIN EPS 2 TRANSFORM mavg(10) USING " + using)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(def.Pairs, got.Pairs) {
				t.Fatalf("shards-%d: USING %s diverges from default", shards, using)
			}
		}

		explained, err := db.Query("EXPLAIN SELFJOIN EPS 2 TRANSFORM mavg(10) USING AUTO")
		if err != nil {
			t.Fatal(err)
		}
		e := explained.Explain
		if e == nil || e.Kind != "selfjoin" || e.Forced {
			t.Fatalf("shards-%d: selfjoin explain = %+v", shards, e)
		}
		if e.Method == "" || e.Reason == "" || e.EstIndexCost <= 0 || e.EstScanCost <= 0 {
			t.Fatalf("shards-%d: explain missing method/costs: %+v", shards, e)
		}
		if shards > 1 && len(e.PerShard) != shards {
			t.Fatalf("shards-%d: per-shard provenance has %d entries", shards, len(e.PerShard))
		}
		if !reflect.DeepEqual(explained.Pairs, def.Pairs) {
			t.Fatalf("shards-%d: EXPLAIN changed the pairs", shards)
		}

		// Two-sided JOIN via the language matches the library call.
		want, _, err := db.JoinTwoSided(1.5, tsq.Reverse().Then(tsq.MovingAverage(10)), tsq.MovingAverage(10))
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Query("JOIN EPS 1.5 LEFT reverse() | mavg(10) RIGHT mavg(10)")
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != "JOIN" || !reflect.DeepEqual(got.Pairs, want) {
			t.Fatalf("shards-%d: language JOIN diverges from library JoinTwoSided", shards)
		}
	}
}

// TestJoinPlannerAdapts: the join method flips with the regime, decided
// per query — on a small store the quadratic scan's cheap pair checks
// beat the per-probe index overhead at any eps, while a large store at a
// selective eps flips to the index-nested-loop (and an exhaustive eps
// flips it back to the scan). The small store has 100 series: at 180 the
// index-nested-loop already times level with the scan at eps 0.5.
func TestJoinPlannerAdapts(t *testing.T) {
	small, err := tsq.Open(tsq.Options{Length: parityLength, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := small.InsertBulk(tsq.RandomWalks(100, parityLength, paritySeed)); err != nil {
		t.Fatal(err)
	}
	lowSmall, err := small.Query("EXPLAIN SELFJOIN EPS 0.5 TRANSFORM mavg(10)")
	if err != nil {
		t.Fatal(err)
	}
	if lowSmall.Explain.Strategy != "scan" || lowSmall.Explain.Method != "b" {
		t.Fatalf("small-store join planned %q/%q (%s), want scan b",
			lowSmall.Explain.Strategy, lowSmall.Explain.Method, lowSmall.Explain.Reason)
	}

	large, err := tsq.Open(tsq.Options{Length: parityLength, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := large.InsertBulk(tsq.RandomWalks(2600, parityLength, paritySeed)); err != nil {
		t.Fatal(err)
	}
	lowLarge, err := large.Query("EXPLAIN SELFJOIN EPS 0.5 TRANSFORM mavg(10)")
	if err != nil {
		t.Fatal(err)
	}
	if lowLarge.Explain.Strategy != "index" || lowLarge.Explain.Method != "d" {
		t.Fatalf("large-store selective join planned %q/%q (%s), want index d",
			lowLarge.Explain.Strategy, lowLarge.Explain.Method, lowLarge.Explain.Reason)
	}
	// (The exhaustive-eps flip back to the scan is pinned by the cost
	// model's unit test and measured by `make bench-join` — executing a
	// full-store join on the large fixture is too slow for the suite.)
}
