package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dft"
	"repro/internal/plan"
	"repro/internal/series"
	"repro/internal/transform"
)

// TestNNBothSidesMatchesOracle pins the two-sided nearest-neighbor
// semantics D(T(nf(x)), T(nf(q))) against a brute-force oracle.
func TestNNBothSidesMatchesOracle(t *testing.T) {
	db, data := newTestDB(t, 150, 21, Options{})
	r := rand.New(rand.NewSource(22))
	q := dataset.RandomWalk(r, testLen)
	tr := transform.MovingAverage(testLen, 10)

	res, _, err := forcedNN(db, NNQuery{Values: q, K: 7, Transform: tr, BothSides: true}, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	scan, _, err := forcedNN(db, NNQuery{Values: q, K: 7, Transform: tr, BothSides: true}, plan.ScanFreq)
	if err != nil {
		t.Fatal(err)
	}

	Q := tr.Apply(dft.TransformReal(series.NormalForm(q)))
	dists := make([]float64, len(data))
	for i, x := range data {
		X := tr.Apply(dft.TransformReal(series.NormalForm(x)))
		dists[i] = dft.Distance(X, Q)
	}
	sort.Float64s(dists)
	for i := 0; i < 7; i++ {
		if math.Abs(res[i].Dist-dists[i]) > 1e-6 {
			t.Fatalf("indexed rank %d: %v != oracle %v", i, res[i].Dist, dists[i])
		}
		if math.Abs(scan[i].Dist-dists[i]) > 1e-6 {
			t.Fatalf("scan rank %d: %v != oracle %v", i, scan[i].Dist, dists[i])
		}
	}
}

// TestRangeBothSidesMatchesOracle does the same for range queries across
// all three execution strategies.
func TestRangeBothSidesMatchesOracle(t *testing.T) {
	db, data := newTestDB(t, 120, 23, Options{})
	q := data[4]
	tr := transform.MovingAverage(testLen, 20)
	eps := 1.0

	Q := tr.Apply(dft.TransformReal(series.NormalForm(q)))
	want := map[int]bool{}
	for i, x := range data {
		X := tr.Apply(dft.TransformReal(series.NormalForm(x)))
		if dft.Distance(X, Q) <= eps {
			want[i] = true
		}
	}
	if len(want) < 2 {
		t.Fatalf("test setup: expected planted neighbors, got %d", len(want))
	}
	rq := RangeQuery{Values: q, Eps: eps, Transform: tr, BothSides: true}
	for name, run := range map[string]func(RangeQuery) ([]Result, ExecStats, error){
		"indexed":  pinRange(db, plan.Index),
		"scanFreq": pinRange(db, plan.ScanFreq),
		"scanTime": pinRange(db, plan.ScanTime),
	} {
		res, _, err := run(rq)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(want) {
			t.Fatalf("%s: %d results, oracle %d", name, len(res), len(want))
		}
		for _, rr := range res {
			if !want[int(rr.ID)] {
				t.Fatalf("%s: unexpected result %d", name, rr.ID)
			}
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
	q := series.Warp(data[3], 2)
	rq := RangeQuery{Values: q, Eps: 0.1, Transform: transform.Warp(testLen, 2), WarpFactor: 2}
	res, st, err := forcedRange(db, rq, plan.ScanTime)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rr := range res {
		if rr.ID == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("time-domain warp scan missed the source series: %v", res)
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
	db, _ := newTestDB(t, 60, 29, Options{})
	tr := transform.MovingAverage(testLen, 10)
	d, _, err := db.SelfJoin(1.2, tr, JoinIndexTransform)
	if err != nil {
		t.Fatal(err)
	}
	two, _, err := forcedJoinTwoSided(db, 1.2, tr, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != len(two) {
		t.Fatalf("SelfJoin(d) found %d, JoinTwoSided(T, T) found %d", len(d), len(two))
	}
	key := func(p JoinPair) [2]int64 { return [2]int64{p.A, p.B} }
	set := map[[2]int64]bool{}
	for _, p := range d {
		set[key(p)] = true
	}
	for _, p := range two {
		if !set[key(p)] {
			t.Fatalf("pair %v missing from method d", p)
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
	if _, ok := db.FeaturePoint(99); ok {
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
