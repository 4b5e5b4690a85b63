package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
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

// TestPlannedNNParity: every AUTO NN plan walks the index, whatever the
// store has served, and answers as the forced index and the forced scan do
// — at shards 1 and 4. The wide reads go first: each verifies the whole
// store through the index, which is what once pushed a learned NN model
// past the scan crossover and held AUTO on the scan.
func TestPlannedNNParity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			eng := planTestEngine(t, shards, 120)
			id := transform.Identity(32)
			check := func(q NNQuery) {
				t.Helper()
				pl, err := eng.PlanNN(q, plan.Auto)
				if err != nil {
					t.Fatal(err)
				}
				if pl.Strategy != plan.Index || pl.Forced {
					t.Fatalf("K=%d: AUTO NN planned %v (forced %v): %s", q.K, pl.Strategy, pl.Forced, pl.Reason)
				}
				got, _, err := eng.ExecNNInto(q, pl, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := forcedNN(eng, q, plan.Index)
				if err != nil {
					t.Fatal(err)
				}
				wantScan, _, err := forcedNN(eng, q, plan.ScanFreq)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != q.K || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, wantScan) {
					t.Fatalf("K=%d: planned NN diverges\n got  %v\n idx  %v\n scan %v", q.K, got, want, wantScan)
				}
			}
			for i := 0; i < 32; i++ {
				check(NNQuery{Values: mustSeries(t, eng, fmt.Sprintf("S%04d", i)), K: eng.Len(), Transform: id})
			}
			for i, k := range []int{1, 7, 20} {
				check(NNQuery{Values: mustSeries(t, eng, fmt.Sprintf("S%04d", 40+i)), K: k, Transform: id})
				check(NNQuery{Values: queryValues(32, int64(i)), K: k, Transform: transform.MovingAverage(32, 5), BothSides: true})
			}
		})
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

// TestCountNearIsTheIndexedRun pins the floor reference: a traversal told
// the final k-th distance visits exactly the nodes of the indexed run that
// found it, and counts no more candidates than that run verified. The count
// is a floor, not an exact count, since the run verifies a leaf's items when
// it expands the leaf, against a k-th best the leaves still queued may yet
// tighten. That holds only while the count stops where the run stops —
// countNear takes its bound from the plan's stopLine, so it carries the same
// mirror weight (the first three queries run at w = 2, the warped one at
// w = 1) and hands the walk the same push bound; a count still taken
// against kth^2 would report the 1997 filter's candidates, about half as
// many again.
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

// TestForcedReasonText pins the Reason of a forced plan, which is built by
// concatenation on every forced read: the fmt format it replaced, filled with
// what the planner would have picked, for a range, an NN and a join plan.
func TestForcedReasonText(t *testing.T) {
	eng := planTestEngine(t, 1, 60)
	id := transform.Identity(32)
	q := make([]float64, 32)
	for i := range q {
		q[i] = float64(i % 7)
	}
	rq := RangeQuery{Values: q, Eps: 2, Transform: id}
	nq := NNQuery{Values: q, K: 3, Transform: id}
	jq := JoinQuery{Eps: 1, Left: id, Right: id}
	type plans struct{ auto, forced *plan.Plan }
	build := func(label string, mk func(plan.Strategy) (*plan.Plan, error), want plan.Strategy) plans {
		auto, err := mk(plan.Auto)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		forced, err := mk(want)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return plans{auto, forced}
	}
	rp := build("range", func(s plan.Strategy) (*plan.Plan, error) { return eng.PlanRange(rq, s) }, plan.ScanFreq)
	np := build("nn", func(s plan.Strategy) (*plan.Plan, error) { return eng.PlanNN(nq, s) }, plan.Index)
	jp := build("join", func(s plan.Strategy) (*plan.Plan, error) { return eng.PlanJoin(jq, s) }, plan.Index)
	for _, c := range []struct {
		label string
		got   string
		want  string
	}{
		{"range", rp.forced.Reason, fmt.Sprintf("forced %v by caller; planner would pick %v (%s)", plan.ScanFreq, rp.auto.Strategy, rp.auto.Reason)},
		{"nn", np.forced.Reason, fmt.Sprintf("forced %v by caller; planner would pick %v (%s)", plan.Index, np.auto.Strategy, np.auto.Reason)},
		{"join", jp.forced.Reason, fmt.Sprintf("forced %v (method %s) by caller; planner would pick %v (%s)", plan.Index, jp.forced.Method, jp.auto.Strategy, jp.auto.Reason)},
	} {
		if c.got != c.want {
			t.Errorf("%s: reason %q, want %q", c.label, c.got, c.want)
		}
	}
	if want := "forced index (method c/d) by caller; planner would pick scan ("; !strings.HasPrefix(jp.forced.Reason, want) {
		t.Errorf("join: reason %q does not start %q", jp.forced.Reason, want)
	}
}
