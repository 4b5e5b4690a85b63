package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/series"
	"repro/internal/testkit"
	"repro/internal/transform"
)

// TestNNBothSidesMatchesOracle pins the two-sided nearest-neighbor
// semantics D(T(nf(x)), T(nf(q))) against a brute-force oracle.
func TestNNBothSidesMatchesOracle(t *testing.T) {
	db, data := newTestDB(t, 150, 21, Options{})
	r := rand.New(rand.NewSource(22))
	q := dataset.RandomWalk(r, testLen)
	op := testkit.Mavg(testLen, 10)
	ranked := testkit.Rank(data, q, op, true)
	for _, want := range []plan.Strategy{plan.Index, plan.ScanFreq} {
		res, _, err := forcedNN(db, NNQuery{Values: q, K: 7, Transform: op.T, BothSides: true}, want)
		if err != nil {
			t.Fatal(err)
		}
		if err := testkit.CheckApproxNN(ranked, hitsOf(res, nil), 7, 0, 1e-6); err != nil {
			t.Fatalf("%s: %v", want, err)
		}
	}
}

// TestRangeBothSidesMatchesOracle does the same for range queries across
// all three execution strategies.
func TestRangeBothSidesMatchesOracle(t *testing.T) {
	db, data := newTestDB(t, 120, 23, Options{})
	q := data[4]
	op, eps := testkit.Mavg(testLen, 20), 1.0
	ranked := testkit.Rank(data, q, op, true)
	if ranked[1].Dist > eps {
		t.Fatalf("test setup: expected planted neighbors, the second nearest is at %v", ranked[1].Dist)
	}
	rq := RangeQuery{Values: q, Eps: eps, Transform: op.T, BothSides: true}
	for _, want := range []plan.Strategy{plan.Index, plan.ScanFreq, plan.ScanTime} {
		res, _, err := forcedRange(db, rq, want)
		if err != nil {
			t.Fatal(err)
		}
		if err := testkit.CheckRange(ranked, hitsOf(res, nil), eps, 0, 1e-6); err != nil {
			t.Fatalf("%s: %v", want, err)
		}
	}
}

func TestBothSidesIncompatibleWithWarp(t *testing.T) {
	db, _ := newTestDB(t, 10, 24, Options{})
	q := make([]float64, 2*testLen)
	_, _, err := forcedRange(db, RangeQuery{
		Values: q, Eps: 1, Transform: transform.Warp(testLen, 2), WarpFactor: 2, BothSides: true,
	}, plan.Index)
	if err == nil {
		t.Fatal("BothSides + warp should be rejected")
	}
}

func TestRangeScanTimeWarp(t *testing.T) {
	db, data := newTestDB(t, 50, 25, Options{})
	q, warp := series.Warp(data[3], 2), testkit.Warp(testLen, 2)
	rq := RangeQuery{Values: q, Eps: 0.1, Transform: warp.T, WarpFactor: 2}
	res, st, err := forcedRange(db, rq, plan.ScanTime)
	if err != nil {
		t.Fatal(err)
	}
	// The source series is at distance 0.
	if err := testkit.CheckRange(testkit.Rank(data, q, warp, false), hitsOf(res, nil), rq.Eps, 0, 1e-6); err != nil || len(res) == 0 {
		t.Fatalf("time-domain warp scan: %v (answers %v)", err, res)
	}
	if st.DistanceTerms == 0 || st.PageReads == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestForceTransformSameResults(t *testing.T) {
	db, data := newTestDB(t, 100, 26, Options{})
	q := data[0]
	plain, pStats, err := forcedRange(db, RangeQuery{Values: q, Eps: 2, Transform: transform.Identity(testLen)}, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	forced, fStats, err := forcedRange(db, RangeQuery{Values: q, Eps: 2, Transform: transform.Identity(testLen), ForceTransform: true}, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(forced) {
		t.Fatalf("forced transform changed results: %d vs %d", len(plain), len(forced))
	}
	// The Figure 8 invariant: identical node accesses either way.
	if pStats.NodeAccesses != fStats.NodeAccesses {
		t.Fatalf("node accesses differ: %d vs %d", pStats.NodeAccesses, fStats.NodeAccesses)
	}
}

func TestExecStatsPageAccounting(t *testing.T) {
	db, data := newTestDB(t, 80, 27, Options{})
	_, st, err := forcedRange(db, RangeQuery{Values: data[0], Eps: 0.5, Transform: transform.Identity(testLen)}, plan.ScanFreq)
	if err != nil {
		t.Fatal(err)
	}
	// A full freq-domain scan verifies every record, but it sweeps the
	// resident heads and pays a page (one per record at this length) only
	// for the records 16 coefficients could not dismiss.
	if st.Candidates != db.Len() {
		t.Fatalf("scan verified %d of %d records", st.Candidates, db.Len())
	}
	if want := int64(st.Candidates - st.HeadResolved); st.PageReads != want || want == 0 || want == int64(db.Len()) {
		t.Fatalf("scan read %d pages for %d records, %d resolved in the head", st.PageReads, db.Len(), st.HeadResolved)
	}
	if st.Elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
}

func TestJoinTwoSidedValidation(t *testing.T) {
	db, _ := newTestDB(t, 10, 28, Options{})
	if _, _, err := forcedJoinTwoSided(db, -1, transform.Identity(testLen), transform.Identity(testLen)); err == nil {
		t.Error("negative eps should fail")
	}
	if _, _, err := forcedJoinTwoSided(db, 1, transform.Identity(5), transform.Identity(testLen)); err == nil {
		t.Error("short left transform should fail")
	}
	if _, _, err := forcedJoinTwoSided(db, 1, transform.Identity(testLen), transform.Identity(5)); err == nil {
		t.Error("short right transform should fail")
	}
}

func TestJoinTwoSidedIdentityMatchesSelfJoinD(t *testing.T) {
	db, data := newTestDB(t, 60, 29, Options{})
	mavg := testkit.Mavg(testLen, 10)
	d, _, err := db.SelfJoin(1.2, mavg.T, JoinIndexTransform)
	if err != nil {
		t.Fatal(err)
	}
	two, _, err := forcedJoinTwoSided(db, 1.2, mavg.T, mavg.T)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != len(two) {
		t.Fatalf("SelfJoin(d) found %d, JoinTwoSided(T, T) found %d", len(d), len(two))
	}
	// Both report every ordered pair within eps, IDs being positions here.
	ranked := testkit.Join(data, mavg, mavg)
	for label, pairs := range map[string][]JoinPair{"method d": d, "two-sided": two} {
		if err := testkit.CheckJoin(ranked, pairsOf(db, pairs, nil), 1.2, 1e-6); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
}

func TestAccessorsAndEmptyQueries(t *testing.T) {
	db, err := NewDB(testLen, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Index() == nil || db.Schema().K == 0 {
		t.Fatal("accessors broken")
	}
	q := make([]float64, testLen)
	for i := range q {
		q[i] = float64(i % 7)
	}
	res, _, err := forcedRange(db, RangeQuery{Values: q, Eps: 1, Transform: transform.Identity(testLen)}, plan.Index)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty DB range: %v %v", res, err)
	}
	nn, _, err := forcedNN(db, NNQuery{Values: q, K: 3, Transform: transform.Identity(testLen)}, plan.Index)
	if err != nil || len(nn) != 0 {
		t.Fatalf("empty DB NN: %v %v", nn, err)
	}
	pairs, _, err := db.SelfJoin(1, transform.Identity(testLen), JoinIndexTransform)
	if err != nil || len(pairs) != 0 {
		t.Fatalf("empty DB join: %v %v", pairs, err)
	}
	if _, err := db.Series(99); err == nil {
		t.Error("missing series should fail")
	}
	if _, ok := db.QueryPrep(99); ok {
		t.Error("missing feature point should be absent")
	}
	if name := db.Name(99); name != "" {
		t.Errorf("missing name = %q", name)
	}
}

func TestNNIndexedPrunesHarderWithClusteredData(t *testing.T) {
	// The incremental refinement must stop long before verifying the whole
	// relation when close neighbors exist.
	db, data := newTestDB(t, 400, 30, Options{})
	_, st, err := forcedNN(db, NNQuery{Values: data[0], K: 1, Transform: transform.Identity(testLen)}, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates > db.Len()/4 {
		t.Fatalf("NN verified %d of %d — pruning ineffective", st.Candidates, db.Len())
	}
}
