package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/feature"
	"repro/internal/plan"
	"repro/internal/series"
	"repro/internal/transform"
)

// planTestEngine builds an engine of n random-walk series (length 32).
func planTestEngine(t *testing.T, shards, n int) Engine {
	t.Helper()
	eng := newTestEngine(t, 32, shards, Options{})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		vals := make([]float64, 32)
		v := 50 + 10*rng.Float64()
		for j := range vals {
			v += rng.Float64()*4 - 2
			vals[j] = v
		}
		if _, err := eng.Insert(fmt.Sprintf("S%04d", i), vals); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestPlannedRangeParity pins planned executions byte-identical to every
// forced strategy, on single-store and sharded engines.
func TestPlannedRangeParity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			eng := planTestEngine(t, shards, 160)
			tr := transform.MovingAverage(32, 5)
			for _, eps := range []float64{0.5, 3, 50} {
				q := RangeQuery{Values: mustSeries(t, eng, "S0007"), Eps: eps, Transform: tr}
				pl, err := eng.PlanRange(q, plan.Auto)
				if err != nil {
					t.Fatal(err)
				}
				if pl.Strategy == plan.Auto {
					t.Fatal("plan left strategy unresolved")
				}
				got, _, err := eng.ExecRangeInto(q, pl, nil)
				if err != nil {
					t.Fatal(err)
				}
				wantIdx, _, err := forcedRange(eng, q, plan.Index)
				if err != nil {
					t.Fatal(err)
				}
				wantScan, _, err := forcedRange(eng, q, plan.ScanFreq)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, wantIdx) || !reflect.DeepEqual(got, wantScan) {
					t.Fatalf("eps=%g strategy=%v: planned answers diverge\n got %v\n idx %v\n scan %v",
						eps, pl.Strategy, got, wantIdx, wantScan)
				}
			}
		})
	}
}

func mustSeries(t *testing.T, eng Engine, name string) []float64 {
	t.Helper()
	id, ok := eng.IDByName(name)
	if !ok {
		t.Fatalf("unknown series %s", name)
	}
	v, err := eng.Series(id)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPlannerChoosesByRegime checks the planner picks the index for tight
// thresholds and the scan for thresholds selecting most of the store.
func TestPlannerChoosesByRegime(t *testing.T) {
	eng := planTestEngine(t, 1, 400)
	q := mustSeries(t, eng, "S0001")
	id := transform.Identity(32)

	tight := RangeQuery{Values: q, Eps: 0.2, Transform: id}
	pl, err := eng.PlanRange(tight, plan.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Strategy != plan.Index {
		t.Fatalf("tight query planned %v (%s), want index", pl.Strategy, pl.Reason)
	}

	wide := RangeQuery{Values: q, Eps: 1000, Transform: id}
	pl, err = eng.PlanRange(wide, plan.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Strategy != plan.ScanFreq {
		t.Fatalf("wide query planned %v (%s), want scan", pl.Strategy, pl.Reason)
	}
	if pl.Est.Selectivity < 0.9 {
		t.Fatalf("wide query selectivity = %g, want ~1", pl.Est.Selectivity)
	}
}

// TestPlannedNNParityAndFeedback checks NN plan parity and that executing
// planned queries feeds the tracker.
func TestPlannedNNParityAndFeedback(t *testing.T) {
	for _, shards := range []int{1, 3} {
		eng := planTestEngine(t, shards, 120)
		q := NNQuery{Values: mustSeries(t, eng, "S0002"), K: 7, Transform: transform.Identity(32)}
		pl, err := eng.PlanNN(q, plan.Auto)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.ExecNNInto(q, pl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if storeOf(eng).PlannerStats().NNSamples == 0 {
			t.Fatalf("shards=%d: planned NN execution left no feedback", shards)
		}
		want, _, err := forcedNN(eng, q, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		wantScan, _, err := forcedNN(eng, q, plan.ScanFreq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, wantScan) {
			t.Fatalf("shards=%d: planned NN diverges", shards)
		}
	}
}

// TestMomentBoundsPinIndex: scan baselines ignore mean/std bounds, so the
// planner must never pick them for moment-bounded queries.
func TestMomentBoundsPinIndex(t *testing.T) {
	eng := planTestEngine(t, 1, 50)
	q := RangeQuery{
		Values:    mustSeries(t, eng, "S0003"),
		Eps:       1000, // wide enough that an unbounded query would plan a scan
		Transform: transform.Identity(32),
		Moments:   feature.Unbounded(),
	}
	pl, err := eng.PlanRange(q, plan.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Strategy != plan.Index || pl.Forced {
		t.Fatalf("moment-bounded query planned %+v, want unforced index pin", pl)
	}
}

// TestShardProvenance checks fan-out merges record per-shard provenance
// that sums to the merged totals.
func TestShardProvenance(t *testing.T) {
	eng := planTestEngine(t, 4, 100)
	q := RangeQuery{Values: mustSeries(t, eng, "S0004"), Eps: 3, Transform: transform.Identity(32)}
	res, st, err := forcedRange(eng, q, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("provenance has %d shards, want 4", len(st.Shards))
	}
	sumResults, sumCand, sumNodes := 0, 0, 0
	for _, sh := range st.Shards {
		sumResults += sh.Results
		sumCand += sh.Candidates
		sumNodes += sh.NodeAccesses
	}
	if sumResults != len(res) || sumCand != st.Candidates || sumNodes != st.NodeAccesses {
		t.Fatalf("provenance does not sum to totals: %+v vs results=%d stats=%+v", st.Shards, len(res), st)
	}

	nn := NNQuery{Values: mustSeries(t, eng, "S0004"), K: 5, Transform: transform.Identity(32)}
	nres, nst, err := forcedNN(eng, nn, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sh := range nst.Shards {
		total += sh.Results
	}
	if total != len(nres) {
		t.Fatalf("NN provenance results = %d, want %d", total, len(nres))
	}
}

// TestRangeExplorationProbe: scan-routed range reads leave no index
// feedback by themselves, so every exploreEvery-th unforced one runs a
// count-only index probe that feeds the range calibrator — at every shard
// count (before the one store, a sharded one never probed: once AUTO settled
// on scans there it stopped re-measuring the index for good). The probe is
// planner bookkeeping: none of its cost shows in the read's ExecStats.
func TestRangeExplorationProbe(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			eng := planTestEngine(t, shards, 600)
			rq := RangeQuery{Values: queryValues(32, 3), Eps: 500, Transform: transform.Identity(32)}
			pl, err := eng.PlanRange(rq, plan.Auto)
			if err != nil {
				t.Fatal(err)
			}
			if pl.Strategy != plan.ScanFreq || pl.Forced {
				t.Fatalf("a range query wider than the store planned %v (forced %v), not an unforced scan", pl.Strategy, pl.Forced)
			}
			before := storeOf(eng).PlannerStats().RangeSamples
			var first ExecStats
			for i := 1; i <= exploreEvery; i++ {
				_, st, err := eng.ExecRangeInto(rq, pl, nil)
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					first = st
				}
				// Read exploreEvery is the one that probed.
				if st.NodeAccesses != 0 || st.Candidates != first.Candidates || st.DistanceTerms != first.DistanceTerms || st.PageReads != first.PageReads {
					t.Fatalf("read %d: stats %+v differ from the first scan's %+v: probe cost leaked into the read", i, st, first)
				}
			}
			if got := storeOf(eng).PlannerStats().RangeSamples; got != before+1 {
				t.Fatalf("%d unforced scan-routed reads moved RangeSamples %d -> %d, want one probe", exploreEvery, before, got)
			}

			// Forced scans never probe: the caller pinned the strategy.
			fpl, err := eng.PlanRange(rq, plan.ScanFreq)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2*exploreEvery; i++ {
				if _, _, err := eng.ExecRangeInto(rq, fpl, nil); err != nil {
					t.Fatal(err)
				}
			}
			if got := storeOf(eng).PlannerStats().RangeSamples; got != before+1 {
				t.Fatalf("forced scans fed range samples: %d, want %d", got, before+1)
			}
		})
	}
}

// TestJoinExplorationProbe: scan-routed joins leave no index feedback by
// themselves, so every joinExploreEvery-th unforced one must run sampled
// index probes that feed the join calibrator — at every shard count, and
// outside the join's own ExecStats.
func TestJoinExplorationProbe(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			eng := planTestEngine(t, shards, 60)
			jq := JoinQuery{Eps: 500, Left: transform.Identity(32), Right: transform.Identity(32)}
			pl, err := eng.PlanJoin(jq, plan.Auto)
			if err != nil {
				t.Fatal(err)
			}
			if pl.Strategy != plan.ScanFreq {
				t.Skipf("wide join planned %v, not scan; probe not reachable", pl.Strategy)
			}
			var first ExecStats
			for i := 1; i <= joinExploreEvery; i++ {
				_, st, err := eng.ExecJoin(jq, pl)
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					first = st
				}
				if st.NodeAccesses != 0 || st.Candidates != first.Candidates || st.DistanceTerms != first.DistanceTerms {
					t.Fatalf("join %d: stats %+v differ from the first scan join's %+v: probe cost leaked into the join", i, st, first)
				}
			}
			if got := storeOf(eng).PlannerStats().JoinSamples; got != 1 {
				t.Fatalf("%d scan joins left %d join samples, want the one exploration probe", joinExploreEvery, got)
			}

			// Forced scans never probe: the caller pinned the strategy, so the
			// planner is not being asked to reconsider.
			eng2 := planTestEngine(t, shards, 60)
			fpl, err := eng2.PlanJoin(jq, plan.ScanFreq)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2*joinExploreEvery; i++ {
				if _, _, err := eng2.ExecJoin(jq, fpl); err != nil {
					t.Fatal(err)
				}
			}
			if got := storeOf(eng2).PlannerStats().JoinSamples; got != 0 {
				t.Fatalf("forced scan joins fed %d join samples, want 0", got)
			}
		})
	}
}

// TestNNExplorationReturnsToIndex: only indexed NN runs feed the NN model,
// so a tracker pushed past the scan crossover used to route every later NN
// under AUTO to the scan for good. Every exploreEvery-th scan-routed NN now
// reports what the index would have done, and on a store where the
// branch-and-bound verifies a few percent of the series AUTO is back on the
// index within two probes — at shards 1 and 4.
func TestNNExplorationReturnsToIndex(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			eng := planTestEngine(t, shards, 600)
			// The indexed reference answers come from a twin store: a forced
			// index read feeds the NN model like any indexed execution, and
			// on eng it would return AUTO to the index without any probe.
			twin := planTestEngine(t, shards, 600)
			tracker := storeOf(eng).tracker
			// The shipped prices, not this machine's calibration: the index
			// wins while 0.25*candFrac + nodeFrac < 0.25. What a run of
			// wide NN queries leaves behind is just past that; this store's
			// own traversals verify about a third of it over a thirteenth
			// of its nodes, well inside.
			tracker.SetCosts(plan.DefaultCosts())
			tracker.ObserveNN(eng.Len()/2, eng.Len()*13/100, eng.Len())
			query := func(i int) NNQuery {
				return NNQuery{Values: mustSeries(t, eng, fmt.Sprintf("S%04d", i)), K: 5, Transform: transform.Identity(32)}
			}
			returned := 0
			for i := 1; i <= 2*exploreEvery && returned == 0; i++ {
				q := query(i)
				pl, err := eng.PlanNN(q, plan.Auto)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case pl.Strategy == plan.Index:
					returned = i
				case i == 1 && pl.Strategy != plan.ScanFreq:
					t.Fatalf("first plan is %v: the tracker was not pushed past the crossover", pl.Strategy)
				}
				got, _, err := eng.ExecNNInto(q, pl, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want, _, err := forcedNN(twin, q, plan.Index); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d under %v: answers diverge from the index (%v)", i, pl.Strategy, err)
				}
			}
			if returned == 0 {
				t.Fatalf("AUTO still scans after %d NN queries (model %+v)", 2*exploreEvery, storeOf(eng).PlannerStats())
			}
			t.Logf("AUTO back on the index at query %d", returned)

			// Forced scans never probe: the caller pinned the strategy.
			before := storeOf(eng).PlannerStats().NNSamples
			for i := 1; i <= 2*exploreEvery; i++ {
				q := query(i)
				pl, err := eng.PlanNN(q, plan.ScanFreq)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := eng.ExecNNInto(q, pl, nil); err != nil {
					t.Fatal(err)
				}
			}
			if got := storeOf(eng).PlannerStats().NNSamples; got != before {
				t.Fatalf("forced scans fed %d NN samples", got-before)
			}
		})
	}
}

// TestCountNearIsTheIndexedRun pins the probe's claim: a traversal told the
// final k-th distance visits exactly the nodes of the indexed run that found
// it, and counts no more candidates than that run verified. The probe is a
// floor, not an exact count, since the run verifies a leaf's items when it
// expands the leaf, against a k-th best the leaves still queued may yet
// tighten. That holds only while the probe stops where the run stops —
// countNear takes its bound from the plan's stopLine, so it carries the same
// mirror weight (the first three queries run at w = 2, the warped one at
// w = 1) and hands the walk the same push bound; a probe still counting
// against kth^2 would report the 1997 filter's candidates, about half as
// many again, and mis-steer the planner.
func TestCountNearIsTheIndexedRun(t *testing.T) {
	db := planTestEngine(t, 1, 600).(*DB)
	tr := transform.MovingAverage(32, 5)
	for i, q := range []NNQuery{
		{Values: mustSeries(t, db, "S0003"), K: 1, Transform: transform.Identity(32)},
		{Values: mustSeries(t, db, "S0042"), K: 9, Transform: transform.Identity(32)},
		{Values: queryValues(32, 5), K: 20, Transform: tr, BothSides: true},
		{Values: series.Warp(queryValues(32, 7), 2), K: 5, Transform: transform.Warp(32, 2), WarpFactor: 2},
	} {
		out, st, err := forcedNN(db, q, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := db.only().planNN(q)
		if err != nil {
			t.Fatal(err)
		}
		ar := getArena()
		cand, nodes := db.only().countNear(rp, ar, out[len(out)-1].Dist)
		putArena(ar)
		if cand > st.Candidates || nodes != st.NodeAccesses {
			t.Fatalf("query %d: probe counts %d candidates, %d nodes; the indexed run verified %d over %d", i, cand, nodes, st.Candidates, st.NodeAccesses)
		}
	}
}

// TestScanTimeTeachesTheApproxModelNothing: the time-domain scan answers
// exactly whatever APPROX delta its plan priced, so after it runs under the
// shared bookkeeping the approximate tier's model must price the next plan
// exactly as a store that never ran it does.
func TestScanTimeTeachesTheApproxModelNothing(t *testing.T) {
	for _, shards := range []int{1, 4} {
		eng, cold := planTestEngine(t, shards, 120), planTestEngine(t, shards, 120)
		q := RangeQuery{Values: mustSeries(t, eng, "S0005"), Eps: 3, Transform: transform.Identity(32), Delta: 0.1}
		for i := 0; i < 4; i++ {
			res, st, err := forcedRange(eng, q, plan.ScanTime)
			if err != nil || len(res) == 0 {
				t.Fatalf("shards=%d: %d answers, err %v", shards, len(res), err)
			}
			if st.Delta != 0 || st.Strategy != "scantime" {
				t.Fatalf("shards=%d: scantime reported delta %g under strategy %q", shards, st.Delta, st.Strategy)
			}
		}
		got, err := eng.PlanRange(q, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.PlanRange(q, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		if got.Approx == nil || !reflect.DeepEqual(got.Approx, want.Approx) {
			t.Fatalf("shards=%d: approximate pricing moved after exact scans:\n got  %+v\n cold %+v", shards, got.Approx, want.Approx)
		}
	}
}
