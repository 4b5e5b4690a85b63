package tsq_test

// Parity tests for plan-first execution: every query kind must answer
// byte-identically whichever strategy its plan resolves or is forced to —
// index == scan == the planner's choice — at shard counts 1 and 4, and
// across shard counts.

import (
	"fmt"
	"reflect"
	"testing"

	tsq "repro"
	"repro/internal/series"
)

const (
	parityCount  = 180
	parityLength = 64
	paritySeed   = 1997
)

func parityDB(t *testing.T, shards int) *tsq.DB {
	t.Helper()
	db, err := tsq.Open(tsq.Options{Length: parityLength, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBulk(tsq.RandomWalks(parityCount, parityLength, paritySeed)); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestPlanRangeNNParity compares UseAuto against every forced strategy
// over a grid of transforms and thresholds.
func TestPlanRangeNNParity(t *testing.T) {
	transforms := []struct {
		name string
		t    tsq.Transform
	}{
		{"identity", tsq.Identity()},
		{"mavg", tsq.MovingAverage(10)},
		{"reverse-mavg", tsq.Reverse().Then(tsq.MovingAverage(10))},
	}
	for _, shards := range []int{1, 4} {
		db := parityDB(t, shards)
		for _, tr := range transforms {
			for _, eps := range []float64{1, 4, 100} {
				name := fmt.Sprintf("shards-%d/%s/eps-%g", shards, tr.name, eps)
				auto, _, err := db.RangeByName("W0011", eps, tr.t, tsq.With(tsq.UseAuto))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				idx, _, err := db.RangeByName("W0011", eps, tr.t, tsq.With(tsq.UseIndex))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				scan, _, err := db.RangeByName("W0011", eps, tr.t, tsq.With(tsq.UseScan))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// UseScanTime is a different numeric path (time-domain
				// arithmetic, ~1e-14 distance jitter) and never a planner
				// outcome; check only that it finds the same answer set.
				scanTime, _, err := db.RangeByName("W0011", eps, tr.t, tsq.With(tsq.UseScanTime))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(auto, idx) || !reflect.DeepEqual(auto, scan) {
					t.Fatalf("%s: strategies disagree\n auto %v\n idx  %v\n scan %v",
						name, auto, idx, scan)
				}
				if len(scanTime) != len(auto) {
					t.Fatalf("%s: scantime found %d answers, others %d", name, len(scanTime), len(auto))
				}
				for i := range scanTime {
					if scanTime[i].Name != auto[i].Name {
						t.Fatalf("%s: scantime answer set diverges at %d", name, i)
					}
				}
			}
			// BOTH-sided variant.
			autoB, _, err := db.RangeByName("W0011", 3, tr.t, tsq.With(tsq.UseAuto), tsq.TransformBoth())
			if err != nil {
				t.Fatal(err)
			}
			idxB, _, err := db.RangeByName("W0011", 3, tr.t, tsq.TransformBoth())
			if err != nil {
				t.Fatal(err)
			}
			scanB, _, err := db.RangeByName("W0011", 3, tr.t, tsq.With(tsq.UseScan), tsq.TransformBoth())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(autoB, idxB) || !reflect.DeepEqual(idxB, scanB) {
				t.Fatalf("shards-%d/%s: BOTH-sided strategies disagree", shards, tr.name)
			}

			for _, k := range []int{1, 5, 25} {
				auto, _, err := db.NNByName("W0042", k, tr.t, tsq.With(tsq.UseAuto))
				if err != nil {
					t.Fatal(err)
				}
				idx, _, err := db.NNByName("W0042", k, tr.t, tsq.With(tsq.UseIndex))
				if err != nil {
					t.Fatal(err)
				}
				scan, _, err := db.NNByName("W0042", k, tr.t, tsq.With(tsq.UseScan))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(auto, idx) || !reflect.DeepEqual(auto, scan) {
					t.Fatalf("shards-%d/%s/k-%d: NN strategies disagree", shards, tr.name, k)
				}
			}
		}
	}
}

// TestPlanMomentBoundParity: moment-bounded queries pin the index under
// auto (the scans ignore the bounds), and the bounded answer is the
// unbounded one with the series outside the bounds removed.
func TestPlanMomentBoundParity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db := parityDB(t, shards)
		auto, st, err := db.RangeByName("W0001", 50, tsq.Identity(),
			tsq.With(tsq.UseAuto), tsq.MeanRange(30, 90), tsq.StdRange(0, 20))
		if err != nil {
			t.Fatal(err)
		}
		if st.Strategy != "index" {
			t.Fatalf("shards-%d: moment-bounded auto ran %q, want the index", shards, st.Strategy)
		}
		all, _, err := db.RangeByName("W0001", 50, tsq.Identity(), tsq.With(tsq.UseScan))
		if err != nil {
			t.Fatal(err)
		}
		var want []tsq.Match
		for _, m := range all {
			v, err := db.Series(m.Name)
			if err != nil {
				t.Fatal(err)
			}
			if mean, std := series.Mean(v), series.Std(v); mean >= 30 && mean <= 90 && std <= 20 {
				want = append(want, m)
			}
		}
		if len(want) == 0 || len(want) == len(all) {
			t.Fatalf("shards-%d: the bounds keep %d of %d answers: the fixture no longer exercises them", shards, len(want), len(all))
		}
		if !reflect.DeepEqual(auto, want) {
			t.Fatalf("shards-%d: moment-bounded answer diverges from the filtered scan\n got  %v\n want %v", shards, auto, want)
		}
	}
}

// TestPlanWarpParity: warped queries answer identically under every
// strategy.
func TestPlanWarpParity(t *testing.T) {
	db := parityDB(t, 4)
	warped := tsq.RandomWalks(1, 2*parityLength, 7)[0].Values
	auto, _, err := db.Range(warped, 8, tsq.Warp(2), tsq.With(tsq.UseAuto))
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := db.Range(warped, 8, tsq.Warp(2))
	if err != nil {
		t.Fatal(err)
	}
	scan, _, err := db.Range(warped, 8, tsq.Warp(2), tsq.With(tsq.UseScan))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(auto, idx) || !reflect.DeepEqual(idx, scan) {
		t.Fatalf("warped strategies disagree\n auto %v\n idx  %v\n scan %v", auto, idx, scan)
	}
}

// TestLanguageDefaultsToPlanner: statements without USING run through the
// planner and answer identically to forced USING INDEX / USING SCAN, and
// an EXPLAIN prefix changes nothing but attaches the plan.
func TestLanguageDefaultsToPlanner(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db := parityDB(t, shards)
		for _, stmt := range []string{
			"RANGE SERIES 'W0011' EPS 2 TRANSFORM mavg(10)",
			"RANGE SERIES 'W0011' EPS 100",
			"NN SERIES 'W0042' K 5 TRANSFORM reverse() | mavg(10)",
		} {
			def, err := db.Query(stmt)
			if err != nil {
				t.Fatal(err)
			}
			if def.Explain != nil {
				t.Fatalf("%s: plain statement carries a plan", stmt)
			}
			forcedIdx, err := db.Query(stmt + " USING INDEX")
			if err != nil {
				t.Fatal(err)
			}
			forcedScan, err := db.Query(stmt + " USING SCAN")
			if err != nil {
				t.Fatal(err)
			}
			explained, err := db.Query("EXPLAIN " + stmt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(def.Matches, forcedIdx.Matches) ||
				!reflect.DeepEqual(def.Matches, forcedScan.Matches) ||
				!reflect.DeepEqual(def.Matches, explained.Matches) {
				t.Fatalf("shards-%d %q: default/forced/explain answers diverge", shards, stmt)
			}
			e := explained.Explain
			if e == nil || (e.Strategy != "index" && e.Strategy != "scan") {
				t.Fatalf("shards-%d %q: explain = %+v", shards, stmt, e)
			}
			if shards > 1 && e.Kind == "range" && len(e.PerShard) != shards {
				t.Fatalf("shards-%d %q: per-shard provenance has %d entries", shards, stmt, len(e.PerShard))
			}
		}

		// SELFJOIN: EXPLAIN rides along without changing pairs.
		plain, err := db.Query("SELFJOIN EPS 1 TRANSFORM mavg(10) METHOD d LIMIT 50")
		if err != nil {
			t.Fatal(err)
		}
		explained, err := db.Query("EXPLAIN SELFJOIN EPS 1 TRANSFORM mavg(10) METHOD d LIMIT 50")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Pairs, explained.Pairs) {
			t.Fatalf("shards-%d: EXPLAIN changed self-join pairs", shards)
		}
		if explained.Explain == nil || explained.Explain.Kind != "selfjoin" || !explained.Explain.Forced {
			t.Fatalf("shards-%d: selfjoin explain = %+v", shards, explained.Explain)
		}
	}
}

// TestCrossShardParityAllKinds pins all five query kinds byte-identical
// between shard counts 1 and 4 when executed through the plan paths.
func TestCrossShardParityAllKinds(t *testing.T) {
	db1 := parityDB(t, 1)
	db4 := parityDB(t, 4)

	r1, _, err := db1.RangeByName("W0020", 3, tsq.MovingAverage(10), tsq.With(tsq.UseAuto))
	if err != nil {
		t.Fatal(err)
	}
	r4, _, err := db4.RangeByName("W0020", 3, tsq.MovingAverage(10), tsq.With(tsq.UseAuto))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Fatal("range answers differ across shard counts")
	}

	n1, _, err := db1.NNByName("W0020", 7, tsq.Identity(), tsq.With(tsq.UseAuto))
	if err != nil {
		t.Fatal(err)
	}
	n4, _, err := db4.NNByName("W0020", 7, tsq.Identity(), tsq.With(tsq.UseAuto))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n1, n4) {
		t.Fatal("NN answers differ across shard counts")
	}

	j1, _, err := db1.SelfJoin(1, tsq.MovingAverage(10), tsq.JoinIndexTransform)
	if err != nil {
		t.Fatal(err)
	}
	j4, _, err := db4.SelfJoin(1, tsq.MovingAverage(10), tsq.JoinIndexTransform)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j1, j4) {
		t.Fatal("self-join pairs differ across shard counts")
	}

	t1, _, err := db1.JoinTwoSided(1, tsq.Reverse().Then(tsq.MovingAverage(10)), tsq.MovingAverage(10))
	if err != nil {
		t.Fatal(err)
	}
	t4, _, err := db4.JoinTwoSided(1, tsq.Reverse().Then(tsq.MovingAverage(10)), tsq.MovingAverage(10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1, t4) {
		t.Fatal("two-sided join pairs differ across shard counts")
	}

	probe := tsq.RandomWalks(1, 16, 5)[0].Values
	s1, _, err := db1.Subsequence(probe, 6)
	if err != nil {
		t.Fatal(err)
	}
	s4, _, err := db4.Subsequence(probe, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s4) {
		t.Fatal("subsequence answers differ across shard counts")
	}
}
