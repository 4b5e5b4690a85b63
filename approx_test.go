package tsq_test

// Property tests for the approximate query tier. Two invariants anchor
// it: APPROX 0 is byte-identical to the exact path (the approximate
// machinery must be provably inert at delta zero), and every answer an
// APPROX delta > 0 query reports honors the Lemma 1 (1+delta) guarantee
// with exact distances — range answers are the exact set, NN answers are
// within (1+delta) of the true k-th distances.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	tsq "repro"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/testkit"
	"repro/internal/transform"
)

// boundSlack absorbs the float jitter between frequency-domain distances
// and the time-domain ones they are checked against.
const boundSlack = 1e-9

func approxDB(t *testing.T, shards int, seed int64) *tsq.DB {
	t.Helper()
	db, err := tsq.Open(tsq.Options{Length: parityLength, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBulk(tsq.RandomWalks(parityCount, parityLength, seed)); err != nil {
		t.Fatal(err)
	}
	return db
}

// unsharedNNCandidates is the ceiling on what a sharded NN may verify: the
// sum over shards of the candidates each shard's branch-and-bound verifies
// on its own, pruning against its private k-th best only. Every shard is
// rebuilt as a single store holding exactly the series that hash to it.
func unsharedNNCandidates(t *testing.T, sharded *tsq.DB, name string, k int, tr tsq.Transform) int {
	t.Helper()
	all := tsq.RandomWalks(parityCount, parityLength, paritySeed)
	parts := make([][]tsq.NamedSeries, sharded.Shards())
	var query []float64
	// Routing a name is the store's own business, not the engine's.
	store := sharded.Engine().(interface{ ShardOf(string) int })
	for _, s := range all {
		si := store.ShardOf(s.Name)
		parts[si] = append(parts[si], s)
		if s.Name == name {
			query = s.Values
		}
	}
	total := 0
	for _, part := range parts {
		shard, err := tsq.Open(tsq.Options{Length: parityLength})
		if err != nil {
			t.Fatal(err)
		}
		if err := shard.InsertBulk(part); err != nil {
			t.Fatal(err)
		}
		_, st, err := shard.NN(query, k, tr, tsq.With(tsq.UseIndex))
		if err != nil {
			t.Fatal(err)
		}
		total += st.Candidates
	}
	return total
}

// TestApproxZeroParity: APPROX 0 must be byte-identical to the plain
// exact path — same matches, no approximate bookkeeping — at shard counts
// 1 and 4, for RANGE and NN. Work counters are part of the contract where
// they are a function of the query alone: everywhere at one shard, and
// for RANGE at any shard count (a range fan-out shares nothing between
// shards). A sharded NN shares its k-th-best bound between shard
// goroutines, so how many candidates each shard verifies depends on when
// the others' answers arrive; what holds on every schedule is that the
// shared bound is never looser than a shard's own, so the fan-out never
// verifies more than the shards would with unshared bounds.
func TestApproxZeroParity(t *testing.T) {
	reverseMavg := tsq.Reverse().Then(tsq.MovingAverage(10))
	for _, shards := range []int{1, 4} {
		db := parityDB(t, shards)
		for _, c := range []struct {
			stmt string
			// NN statements name their query again for the unshared bound.
			nnName string
			nnK    int
			nnT    tsq.Transform
		}{
			{stmt: "RANGE SERIES 'W0011' EPS 2 TRANSFORM mavg(10)"},
			{stmt: "RANGE SERIES 'W0011' EPS 100"},
			{stmt: "RANGE SERIES 'W0011' EPS 3 TRANSFORM mavg(10) BOTH"},
			{stmt: "NN SERIES 'W0042' K 5", nnName: "W0042", nnK: 5, nnT: tsq.Identity()},
			{stmt: "NN SERIES 'W0042' K 25 TRANSFORM reverse() | mavg(10)", nnName: "W0042", nnK: 25, nnT: reverseMavg},
		} {
			stmt := c.stmt
			exact, err := db.Query(stmt)
			if err != nil {
				t.Fatalf("shards-%d %q: %v", shards, stmt, err)
			}
			zero, err := db.Query(stmt + " APPROX 0")
			if err != nil {
				t.Fatalf("shards-%d %q APPROX 0: %v", shards, stmt, err)
			}
			if !reflect.DeepEqual(exact.Matches, zero.Matches) {
				t.Fatalf("shards-%d %q: APPROX 0 diverges from exact\n exact %v\n zero  %v",
					shards, stmt, exact.Matches, zero.Matches)
			}
			if shards == 1 || c.nnName == "" {
				if zero.Stats.Candidates != exact.Stats.Candidates ||
					zero.Stats.NodeAccesses != exact.Stats.NodeAccesses {
					t.Fatalf("shards-%d %q: APPROX 0 cost differs: %d/%d candidates, %d/%d nodes",
						shards, stmt, zero.Stats.Candidates, exact.Stats.Candidates,
						zero.Stats.NodeAccesses, exact.Stats.NodeAccesses)
				}
			} else {
				ceiling := unsharedNNCandidates(t, db, c.nnName, c.nnK, c.nnT)
				if exact.Stats.Candidates > ceiling || zero.Stats.Candidates > ceiling {
					t.Fatalf("shards-%d %q: verified %d (exact) / %d (APPROX 0) candidates, more than the %d of unshared per-shard bounds",
						shards, stmt, exact.Stats.Candidates, zero.Stats.Candidates, ceiling)
				}
			}
			if zero.Stats.Delta != 0 {
				t.Fatalf("shards-%d %q: APPROX 0 took the approximate path: %+v",
					shards, stmt, zero.Stats)
			}
		}
	}
}

// TestApproxPlanIsHistoryFree: an APPROX plan carries its delta and
// nothing learned from earlier reads. After a store has served forced
// index, scan and scantime APPROX range and NN reads, the approximate tier
// of its next APPROX range and NN plan — the plan's own, and every
// approx_* field of its EXPLAIN object — is a cold twin's, at shards 1
// and 4 (TestRangePlanIsHistoryFree covers the rest of a range plan). The
// time-domain scan answers exactly whatever
// delta its statement carries, and says so.
func TestApproxPlanIsHistoryFree(t *testing.T) {
	const (
		rangeStmt = "RANGE SERIES 'W0005' EPS 3 APPROX 0.1"
		nnStmt    = "NN SERIES 'W0006' K 9 TRANSFORM mavg(10) APPROX 0.1"
	)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			busy, cold := parityDB(t, shards), parityDB(t, shards)
			for i := 0; i < 4; i++ {
				for _, using := range []string{"INDEX", "SCAN", "SCANTIME"} {
					for _, stmt := range []string{rangeStmt, nnStmt} {
						out, err := busy.Query(stmt + " USING " + using)
						if err != nil || len(out.Matches) == 0 {
							t.Fatalf("%s USING %s: %d answers, err %v", stmt, using, len(out.Matches), err)
						}
						if stmt == rangeStmt && using == "SCANTIME" && (out.Stats.Delta != 0 || out.Stats.Strategy != "scantime") {
							t.Fatalf("scantime reported delta %g under strategy %q", out.Stats.Delta, out.Stats.Strategy)
						}
					}
				}
			}

			plans := func(db *tsq.DB) (rng, nn *plan.Plan) {
				t.Helper()
				rv, err := db.Series("W0005")
				if err != nil {
					t.Fatal(err)
				}
				nv, err := db.Series("W0006")
				if err != nil {
					t.Fatal(err)
				}
				rng, err = db.Engine().PlanRange(core.RangeQuery{Values: rv, Eps: 3, Transform: transform.Identity(parityLength), Delta: 0.1}, plan.Auto)
				if err != nil {
					t.Fatal(err)
				}
				nn, err = db.Engine().PlanNN(core.NNQuery{Values: nv, K: 9, Transform: transform.MovingAverage(parityLength, 10), Delta: 0.1}, plan.Auto)
				if err != nil {
					t.Fatal(err)
				}
				return rng, nn
			}
			gotRange, gotNN := plans(busy)
			wantRange, wantNN := plans(cold)
			for _, c := range []struct {
				kind      string
				got, want *plan.Plan
			}{{"range", gotRange, wantRange}, {"nn", gotNN, wantNN}} {
				if c.got.Approx == nil || !reflect.DeepEqual(c.got.Approx, c.want.Approx) {
					t.Errorf("%s: the served store's approximate tier is %+v, its cold twin's %+v", c.kind, c.got.Approx, c.want.Approx)
				}
			}

			for _, stmt := range []string{rangeStmt, nnStmt} {
				got, want := explainApprox(t, busy, stmt), explainApprox(t, cold, stmt)
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Errorf("EXPLAIN %s: the served store's approx fields are %v, its cold twin's %v", stmt, got, want)
				}
			}
		})
	}
}

// explainApprox runs EXPLAIN stmt on db and returns the approx_* fields of
// its explain object, as they go on the wire.
func explainApprox(t *testing.T, db *tsq.DB, stmt string) map[string]any {
	t.Helper()
	out, err := db.Query("EXPLAIN " + stmt)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(out.Explain)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	approx := map[string]any{}
	for k, v := range fields {
		if strings.HasPrefix(k, "approx_") {
			approx[k] = v
		}
	}
	return approx
}

// TestApproxNNBoundSoundness: for every rank i, the approximate NN's
// reported distance is within (1+delta) of the true i-th nearest distance,
// and it is the reported series' own exact distance (testkit.CheckApproxNN
// against the time-domain oracle).
func TestApproxNNBoundSoundness(t *testing.T) {
	n := parityLength
	for _, shards := range []int{1, 4} {
		for _, seed := range []int64{paritySeed, 7} {
			db := approxDB(t, shards, seed)
			walks := tsq.RandomWalks(parityCount, parityLength, seed)
			values, pos := make([][]float64, len(walks)), make(map[string]int, len(walks))
			for i, w := range walks {
				values[i], pos[w.Name] = w.Values, i
			}
			for _, c := range []struct {
				tr string
				op testkit.Op
			}{
				{"", testkit.Identity(n)},
				{" TRANSFORM mavg(10)", testkit.Mavg(n, 10)},
				{" TRANSFORM reverse() | mavg(10)", testkit.Reverse(n).Then(testkit.Mavg(n, 10))},
			} {
				ranked := testkit.Rank(values, values[pos["W0042"]], c.op, false)
				for _, delta := range []float64{0.05, 0.1, 0.25} {
					stmt := fmt.Sprintf("NN SERIES 'W0042' K 10%s APPROX %g", c.tr, delta)
					apx, err := db.Query(stmt)
					if err != nil {
						t.Fatalf("shards-%d seed-%d %q: %v", shards, seed, stmt, err)
					}
					if apx.Stats.Delta != delta {
						t.Fatalf("%q: stats report delta %g", stmt, apx.Stats.Delta)
					}
					got := make([]testkit.Hit, len(apx.Matches))
					for i, m := range apx.Matches {
						got[i] = testkit.Hit{I: -1, Dist: m.Distance}
						if p, ok := pos[m.Name]; ok {
							got[i].I = p
						}
					}
					if err := testkit.CheckApproxNN(ranked, got, 10, delta, boundSlack); err != nil {
						t.Fatalf("shards-%d seed-%d %q: %v", shards, seed, stmt, err)
					}
				}
			}

			// Near ties: every series whose exact K-th and (K+1)-th nearest
			// lie within (1+delta) of each other, as a query. The stop line
			// is then close to a candidate, so a walk relaxed past (1+delta)
			// stops before a true neighbour and reports a farther one.
			const k, delta = 5, 0.25
			tied := 0
			for i, w := range walks {
				ranked := testkit.Rank(values, values[i], testkit.Identity(n), false)
				if ranked[k].Dist > (1+delta)*ranked[k-1].Dist {
					continue
				}
				tied++
				stmt := fmt.Sprintf("NN SERIES '%s' K %d APPROX %g", w.Name, k, delta)
				apx, err := db.Query(stmt)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]testkit.Hit, len(apx.Matches))
				for j, m := range apx.Matches {
					got[j] = testkit.Hit{I: pos[m.Name], Dist: m.Distance}
				}
				if err := testkit.CheckApproxNN(ranked, got, k, delta, boundSlack); err != nil {
					t.Fatalf("shards-%d seed-%d %q: %v", shards, seed, stmt, err)
				}
			}
			if tied == 0 {
				t.Fatalf("shards-%d seed-%d: no series has near-tied %dth and %dth neighbours", shards, seed, k, k+1)
			}
		}
	}
}

// TestApproxRangeBoundSoundness: an approximate range read answers exactly
// what the exact read answers — a superset of the exact set (itself) whose
// members all lie within (1+delta)*eps — and reports its delta.
func TestApproxRangeBoundSoundness(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, seed := range []int64{paritySeed, 7} {
			db := approxDB(t, shards, seed)
			for _, tr := range []string{"", " TRANSFORM mavg(10)"} {
				for _, eps := range []float64{1, 3, 6} {
					base := fmt.Sprintf("RANGE SERIES 'W0011' EPS %g%s", eps, tr)
					exact, err := db.Query(base)
					if err != nil {
						t.Fatal(err)
					}
					for _, delta := range []float64{0.05, 0.1, 0.25} {
						stmt := fmt.Sprintf("%s APPROX %g", base, delta)
						apx, err := db.Query(stmt)
						if err != nil {
							t.Fatalf("shards-%d seed-%d %q: %v", shards, seed, stmt, err)
						}
						if !reflect.DeepEqual(apx.Matches, exact.Matches) {
							t.Fatalf("shards-%d seed-%d %q: approximate answers differ from the exact read's\n apx   %v\n exact %v",
								shards, seed, stmt, apx.Matches, exact.Matches)
						}
						if apx.Stats.Delta != delta {
							t.Fatalf("%q: stats report delta %g", stmt, apx.Stats.Delta)
						}
					}
				}
			}
		}
	}
}

// TestApproxConfidenceSugar: WITHIN/CONFIDENCE is pure sugar for
// EPS/APPROX — same statements, same answers.
func TestApproxConfidenceSugar(t *testing.T) {
	db := parityDB(t, 1)
	sugar, err := db.Query("RANGE SERIES 'W0011' WITHIN 3 CONFIDENCE 0.9 TRANSFORM mavg(10)")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := db.Query("RANGE SERIES 'W0011' EPS 3 APPROX 0.1 TRANSFORM mavg(10)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sugar.Matches, plain.Matches) {
		t.Fatalf("CONFIDENCE sugar diverges:\n sugar %v\n plain %v", sugar.Matches, plain.Matches)
	}
	// 1 - 0.9 is not exactly 0.1 in floats; the stats echo whatever the
	// parser computed, so compare with tolerance.
	if d := sugar.Stats.Delta; d < 0.1-1e-12 || d > 0.1+1e-12 {
		t.Fatalf("CONFIDENCE 0.9 produced delta %g", d)
	}
}

// TestProgressiveEmbedded: QueryProgressive emits the bounded
// approximate stage first, then an exact refinement identical to a
// plain query.
func TestProgressiveEmbedded(t *testing.T) {
	db := parityDB(t, 4)
	exact, err := db.Query("NN SERIES 'W0042' K 5")
	if err != nil {
		t.Fatal(err)
	}
	var stages []tsq.ProgressiveStage
	err = db.QueryProgressive("NN SERIES 'W0042' K 5", func(st tsq.ProgressiveStage) error {
		stages = append(stages, st)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(stages))
	}
	if stages[0].Phase != "approximate" || stages[0].Final {
		t.Fatalf("first stage: %+v", stages[0])
	}
	if stages[0].Output.Stats.Delta != tsq.DefaultProgressiveDelta {
		t.Fatalf("approximate stage delta %g", stages[0].Output.Stats.Delta)
	}
	for i, m := range stages[0].Output.Matches {
		limit := (1+tsq.DefaultProgressiveDelta)*exact.Matches[i].Distance + boundSlack
		if m.Distance > limit {
			t.Fatalf("approximate stage rank %d: %.9f > %.9f", i, m.Distance, limit)
		}
	}
	if stages[1].Phase != "exact" || !stages[1].Final {
		t.Fatalf("second stage: %+v", stages[1])
	}
	if !reflect.DeepEqual(stages[1].Output.Matches, exact.Matches) {
		t.Fatalf("exact refinement diverges from plain query:\n ref   %v\n plain %v",
			stages[1].Output.Matches, exact.Matches)
	}
	if err := db.QueryProgressive("SELFJOIN EPS 1", func(tsq.ProgressiveStage) error { return nil }); err == nil {
		t.Fatal("progressive SELFJOIN should be rejected")
	}
}
