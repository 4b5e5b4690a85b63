package tsq_test

// Property tests for the approximate query tier. Two invariants anchor
// it: APPROX 0 is byte-identical to the exact path (the approximate
// machinery must be provably inert at delta zero), and every answer an
// APPROX delta > 0 query reports honors the Lemma 1 (1+delta) guarantee
// — range answers are a superset of the exact set with certified upper
// bounds, NN answers are within (1+delta) of the true k-th distances.

import (
	"fmt"
	"reflect"
	"testing"

	tsq "repro"
)

// boundSlack absorbs the float jitter between the frequency-domain
// bound arithmetic and the exact distances it certifies.
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
	for _, s := range all {
		si := sharded.Engine().ShardOf(s.Name)
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
			// Fresh identical stores for each side: executed queries feed
			// the planner's EWMAs, so running both on one store would let
			// feedback — not approximation — change the second plan.
			exactDB := parityDB(t, shards)
			exact, err := exactDB.Query(stmt)
			if err != nil {
				t.Fatalf("shards-%d %q: %v", shards, stmt, err)
			}
			zero, err := parityDB(t, shards).Query(stmt + " APPROX 0")
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
				ceiling := unsharedNNCandidates(t, exactDB, c.nnName, c.nnK, c.nnT)
				if exact.Stats.Candidates > ceiling || zero.Stats.Candidates > ceiling {
					t.Fatalf("shards-%d %q: verified %d (exact) / %d (APPROX 0) candidates, more than the %d of unshared per-shard bounds",
						shards, stmt, exact.Stats.Candidates, zero.Stats.Candidates, ceiling)
				}
			}
			if zero.Stats.Delta != 0 || zero.Stats.EarlyAccepts != 0 || zero.Stats.Rung != 0 {
				t.Fatalf("shards-%d %q: APPROX 0 took the approximate path: %+v",
					shards, stmt, zero.Stats)
			}
		}
	}
}

// TestApproxNNBoundSoundness: for every rank i, the approximate NN's
// reported distance is within (1+delta) of the true i-th nearest
// distance, and never exceeds its own certified bound.
func TestApproxNNBoundSoundness(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, seed := range []int64{paritySeed, 7} {
			db := approxDB(t, shards, seed)
			for _, tr := range []string{"", " TRANSFORM mavg(10)", " TRANSFORM reverse() | mavg(10)"} {
				exact, err := db.Query("NN SERIES 'W0042' K 10" + tr)
				if err != nil {
					t.Fatal(err)
				}
				for _, delta := range []float64{0.05, 0.1, 0.25} {
					stmt := fmt.Sprintf("NN SERIES 'W0042' K 10%s APPROX %g", tr, delta)
					apx, err := db.Query(stmt)
					if err != nil {
						t.Fatalf("shards-%d seed-%d %q: %v", shards, seed, stmt, err)
					}
					if apx.Stats.Delta != delta {
						t.Fatalf("%q: stats report delta %g", stmt, apx.Stats.Delta)
					}
					if len(apx.Matches) != len(exact.Matches) {
						t.Fatalf("shards-%d seed-%d %q: %d answers, exact has %d",
							shards, seed, stmt, len(apx.Matches), len(exact.Matches))
					}
					for i, m := range apx.Matches {
						limit := (1+delta)*exact.Matches[i].Distance + boundSlack
						if m.Distance > limit {
							t.Fatalf("shards-%d seed-%d %q: rank %d reported %.9f > (1+%g)*%.9f",
								shards, seed, stmt, i, m.Distance, delta, exact.Matches[i].Distance)
						}
						if m.Bound > 0 && m.Distance > m.Bound+boundSlack {
							t.Fatalf("shards-%d seed-%d %q: rank %d distance %.9f exceeds its bound %.9f",
								shards, seed, stmt, i, m.Distance, m.Bound)
						}
					}
				}
			}
		}
	}
}

// TestApproxRangeBoundSoundness: an approximate range answer is a
// superset of the exact answer set (recall 1.0), every extra is
// certified within (1+delta)*eps, and every carried bound really covers
// the true distance.
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
					exactDist := make(map[string]float64, len(exact.Matches))
					for _, m := range exact.Matches {
						exactDist[m.Name] = m.Distance
					}
					for _, delta := range []float64{0.05, 0.1, 0.25} {
						stmt := fmt.Sprintf("%s APPROX %g", base, delta)
						apx, err := db.Query(stmt)
						if err != nil {
							t.Fatalf("shards-%d seed-%d %q: %v", shards, seed, stmt, err)
						}
						got := make(map[string]tsq.Match, len(apx.Matches))
						for _, m := range apx.Matches {
							got[m.Name] = m
						}
						for name := range exactDist {
							if _, ok := got[name]; !ok {
								t.Fatalf("shards-%d seed-%d %q: dropped exact answer %s",
									shards, seed, stmt, name)
							}
						}
						for _, m := range apx.Matches {
							trueDist, inExact := exactDist[m.Name]
							if !inExact {
								// An extra can only be an early accept; its
								// certificate must stay within the slack.
								if m.Bound <= 0 {
									t.Fatalf("shards-%d seed-%d %q: extra %s carries no bound",
										shards, seed, stmt, m.Name)
								}
								if m.Bound > (1+delta)*eps+boundSlack {
									t.Fatalf("shards-%d seed-%d %q: extra %s bound %.9f > (1+%g)*%g",
										shards, seed, stmt, m.Name, m.Bound, delta, eps)
								}
								continue
							}
							if m.Distance > trueDist+boundSlack {
								t.Fatalf("shards-%d seed-%d %q: %s lower bound %.9f above true %.9f",
									shards, seed, stmt, m.Name, m.Distance, trueDist)
							}
							if m.Bound > 0 && m.Bound < trueDist-boundSlack {
								t.Fatalf("shards-%d seed-%d %q: %s bound %.9f below true %.9f",
									shards, seed, stmt, m.Name, m.Bound, trueDist)
							}
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
