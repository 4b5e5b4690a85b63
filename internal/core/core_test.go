package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dft"
	"repro/internal/feature"
	"repro/internal/plan"
	"repro/internal/rtree"
	"repro/internal/series"
	"repro/internal/transform"
)

const testLen = 64

// newTestDB builds a DB over synthetic walks plus planted near-duplicates.
func newTestDB(t *testing.T, n int, seed int64, opts Options) (*DB, [][]float64) {
	t.Helper()
	db, err := NewDB(testLen, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	data := make([][]float64, n)
	for i := range data {
		if i >= n/2 && i < n/2+n/10 {
			// Near-duplicates of early series so small-eps queries have
			// answers.
			src := data[i-n/2]
			dup := make([]float64, testLen)
			for j := range dup {
				dup[j] = src[j] + r.NormFloat64()*0.3
			}
			data[i] = dup
		} else {
			data[i] = dataset.RandomWalk(r, testLen)
		}
		if _, err := db.Insert(name(i), data[i]); err != nil {
			t.Fatal(err)
		}
	}
	return db, data
}

func name(i int) string {
	return "S" + string(rune('A'+i/26/26%26)) + string(rune('A'+i/26%26)) + string(rune('A'+i%26))
}

// bruteRange is the oracle: exact transformed normal-form distances.
func bruteRange(data [][]float64, q []float64, eps float64, tr transform.T, warp int) map[int]float64 {
	out := map[int]float64{}
	qn := series.NormalForm(q)
	for i, x := range data {
		var d float64
		if warp >= 2 {
			d = series.EuclideanDistance(series.Warp(series.NormalForm(x), warp), qn)
		} else {
			X := dft.TransformReal(series.NormalForm(x))
			Q := dft.TransformReal(qn)
			d = dft.Distance(tr.Apply(X), Q)
		}
		if d <= eps {
			out[i] = d
		}
	}
	return out
}

func TestNewDBValidation(t *testing.T) {
	if _, err := NewDB(2, Options{}); err == nil {
		t.Error("tiny length should fail")
	}
	if _, err := NewDB(3, Options{Schema: feature.Schema{Space: feature.Polar, K: 5, Moments: true}}); err == nil {
		t.Error("K too large for length should fail")
	}
	if _, err := NewDB(64, Options{RTree: rtree.Options{MaxEntries: 2}}); err == nil {
		t.Error("bad rtree options should fail")
	}
	if _, err := NewDB(64, Options{Schema: feature.Schema{Space: feature.Space(7), K: 2}}); err == nil {
		t.Error("bad schema should fail")
	}
}

func TestInsertValidation(t *testing.T) {
	db, _ := NewDB(testLen, Options{})
	if _, err := db.Insert("", make([]float64, testLen)); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := db.Insert("a", make([]float64, 5)); err == nil {
		t.Error("wrong length should fail")
	}
	vals := make([]float64, testLen)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, err := db.Insert("a", vals); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("a", vals); err == nil {
		t.Error("duplicate name should fail")
	}
	if db.Len() != 1 || db.Length() != testLen {
		t.Fatal("accessors wrong")
	}
	id, ok := db.IDByName("a")
	if !ok || db.Name(id) != "a" {
		t.Fatal("name lookup broken")
	}
	if _, ok := db.FeaturePoint(id); !ok {
		t.Fatal("feature point missing")
	}
	got, err := db.Series(id)
	if err != nil || got[3] != 3 {
		t.Fatal("Series fetch broken")
	}
}

func TestRangeValidation(t *testing.T) {
	db, _ := newTestDB(t, 20, 1, Options{})
	q := make([]float64, testLen)
	if _, _, err := forcedRange(db, RangeQuery{Values: q, Eps: -1, Transform: transform.Identity(testLen)}, plan.Index); err == nil {
		t.Error("negative eps should fail")
	}
	if _, _, err := forcedRange(db, RangeQuery{Values: q, Eps: 1, Transform: transform.Identity(10)}, plan.Index); err == nil {
		t.Error("wrong transform length should fail")
	}
	if _, _, err := forcedRange(db, RangeQuery{Values: q[:10], Eps: 1, Transform: transform.Identity(testLen)}, plan.Index); err == nil {
		t.Error("wrong query length should fail")
	}
	if _, _, err := forcedRange(db, RangeQuery{Values: q, Eps: 1, Transform: transform.Identity(testLen), WarpFactor: 2}, plan.Index); err == nil {
		t.Error("warp query with unwarped length should fail")
	}
}

func TestRangeAllMethodsAgreeWithOracle(t *testing.T) {
	db, data := newTestDB(t, 150, 2, Options{})
	r := rand.New(rand.NewSource(3))
	transforms := []transform.T{
		transform.Identity(testLen),
		transform.MovingAverage(testLen, 5),
		transform.MovingAverage(testLen, 20),
		transform.Reverse(testLen),
	}
	for trial := 0; trial < 6; trial++ {
		qi := r.Intn(len(data))
		q := data[qi]
		for _, tr := range transforms {
			for _, eps := range []float64{0.5, 2.0, 8.0} {
				rq := RangeQuery{Values: q, Eps: eps, Transform: tr}
				want := bruteRange(data, q, eps, tr, 0)

				idxRes, idxSt, err := forcedRange(db, rq, plan.Index)
				if err != nil {
					t.Fatal(err)
				}
				scanRes, _, err := forcedRange(db, rq, plan.ScanFreq)
				if err != nil {
					t.Fatal(err)
				}
				timeRes, _, err := forcedRange(db, rq, plan.ScanTime)
				if err != nil {
					t.Fatal(err)
				}
				for label, res := range map[string][]Result{"indexed": idxRes, "scanFreq": scanRes, "scanTime": timeRes} {
					if len(res) != len(want) {
						t.Fatalf("%s %s eps=%g: %d results, oracle %d", label, tr, eps, len(res), len(want))
					}
					for _, rr := range res {
						wd, ok := want[int(rr.ID)]
						if !ok {
							t.Fatalf("%s %s: unexpected result %d", label, tr, rr.ID)
						}
						if math.Abs(rr.Dist-wd) > 1e-6 {
							t.Fatalf("%s %s: distance %v != oracle %v", label, tr, rr.Dist, wd)
						}
					}
				}
				if idxSt.NodeAccesses == 0 {
					t.Fatal("indexed query reported zero node accesses")
				}
				// Results sorted by distance.
				for i := 1; i < len(idxRes); i++ {
					if idxRes[i].Dist < idxRes[i-1].Dist {
						t.Fatal("results not sorted")
					}
				}
			}
		}
	}
}

func TestRangeIndexedPrunesVersusScan(t *testing.T) {
	// The index should verify far fewer candidates than the scan at tight
	// thresholds.
	db, data := newTestDB(t, 300, 4, Options{})
	q := data[0]
	rq := RangeQuery{Values: q, Eps: 0.8, Transform: transform.Identity(testLen)}
	_, idxSt, err := forcedRange(db, rq, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	_, scanSt, err := forcedRange(db, rq, plan.ScanFreq)
	if err != nil {
		t.Fatal(err)
	}
	if idxSt.Candidates >= scanSt.Candidates/2 {
		t.Fatalf("index verified %d candidates, scan %d — filtering looks broken", idxSt.Candidates, scanSt.Candidates)
	}
	// Page reads no longer separate the two: both verify off the resident
	// spectrum head and open a record's page (one page per record at this
	// length) only when its first 16 coefficients cannot dismiss it. A
	// record that survives 16 coefficients survives the index's 2, so by
	// Lemma 1 both strategies open exactly the same records.
	for name, st := range map[string]ExecStats{"index": idxSt, "scan": scanSt} {
		if want := int64(st.Candidates - st.HeadResolved); st.PageReads != want {
			t.Fatalf("%s read %d pages, want one per record the head could not resolve (%d)", name, st.PageReads, want)
		}
	}
	if idxSt.PageReads != scanSt.PageReads {
		t.Fatalf("index opened %d records, scan %d", idxSt.PageReads, scanSt.PageReads)
	}
	if scanSt.HeadResolved <= scanSt.Candidates/2 {
		t.Fatalf("scan resolved only %d of %d records in the head", scanSt.HeadResolved, scanSt.Candidates)
	}
}

func TestRangeWithWarp(t *testing.T) {
	// Store half-rate series; query with full-rate versions warped by 2.
	db, err := NewDB(testLen, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	stored := make([][]float64, 60)
	for i := range stored {
		stored[i] = dataset.RandomWalk(r, testLen)
		if _, err := db.Insert(name(i), stored[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The query is stored[7] warped by 2 with tiny noise.
	q := series.Warp(stored[7], 2)
	for i := range q {
		q[i] += r.NormFloat64() * 0.05
	}
	rq := RangeQuery{
		Values:     q,
		Eps:        0.5,
		Transform:  transform.Warp(testLen, 2),
		WarpFactor: 2,
	}
	res, st, err := forcedRange(db, rq, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rr := range res {
		if rr.ID == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("warped query missed the planted series; got %v", res)
	}
	want := bruteRange(stored, q, rq.Eps, rq.Transform, 2)
	if len(res) != len(want) {
		t.Fatalf("warp: %d results, oracle %d", len(res), len(want))
	}
	if st.Candidates == db.Len() {
		t.Fatal("warp query did not filter at all")
	}
	// Scan agrees.
	scanRes, _, err := forcedRange(db, rq, plan.ScanFreq)
	if err != nil {
		t.Fatal(err)
	}
	if len(scanRes) != len(want) {
		t.Fatalf("warp scan: %d results, oracle %d", len(scanRes), len(want))
	}
}

func TestRangeMomentBounds(t *testing.T) {
	db, data := newTestDB(t, 100, 6, Options{})
	q := data[0]
	mean := series.Mean(data[0])
	rq := RangeQuery{
		Values:    q,
		Eps:       1000,
		Transform: transform.Identity(testLen),
		Moments: feature.MomentBounds{
			MeanLo: mean - 0.001, MeanHi: mean + 0.001,
			StdLo: -math.MaxFloat64, StdHi: math.MaxFloat64,
		},
	}
	res, _, err := forcedRange(db, rq, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res {
		m := series.Mean(data[rr.ID])
		if math.Abs(m-mean) > 0.001 {
			t.Fatalf("moment-bounded query returned series with mean %v", m)
		}
	}
	if len(res) == 0 {
		t.Fatal("query series itself should match its own moment bounds")
	}
}

func TestNNAgreesWithBruteForce(t *testing.T) {
	db, data := newTestDB(t, 200, 7, Options{})
	r := rand.New(rand.NewSource(8))
	transforms := []transform.T{
		transform.Identity(testLen),
		transform.MovingAverage(testLen, 10),
	}
	for trial := 0; trial < 4; trial++ {
		q := dataset.RandomWalk(r, testLen)
		for _, tr := range transforms {
			for _, k := range []int{1, 5, 12} {
				nq := NNQuery{Values: q, K: k, Transform: tr}
				idxRes, idxSt, err := forcedNN(db, nq, plan.Index)
				if err != nil {
					t.Fatal(err)
				}
				scanRes, _, err := forcedNN(db, nq, plan.ScanFreq)
				if err != nil {
					t.Fatal(err)
				}
				// Oracle.
				type od struct {
					id int
					d  float64
				}
				all := make([]od, len(data))
				for i, x := range data {
					X := dft.TransformReal(series.NormalForm(x))
					Q := dft.TransformReal(series.NormalForm(q))
					all[i] = od{i, dft.Distance(tr.Apply(X), Q)}
				}
				sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
				if len(idxRes) != k || len(scanRes) != k {
					t.Fatalf("k=%d: got %d / %d results", k, len(idxRes), len(scanRes))
				}
				for i := 0; i < k; i++ {
					if math.Abs(idxRes[i].Dist-all[i].d) > 1e-6 {
						t.Fatalf("%s k=%d rank %d: indexed %v != oracle %v", tr, k, i, idxRes[i].Dist, all[i].d)
					}
					if math.Abs(scanRes[i].Dist-all[i].d) > 1e-6 {
						t.Fatalf("%s k=%d rank %d: scan %v != oracle %v", tr, k, i, scanRes[i].Dist, all[i].d)
					}
				}
				if idxSt.Candidates >= len(data) {
					t.Fatalf("NN verified every record (%d) — no pruning", idxSt.Candidates)
				}
			}
		}
	}
}

func TestNNValidation(t *testing.T) {
	db, _ := newTestDB(t, 20, 9, Options{})
	q := make([]float64, testLen)
	if _, _, err := forcedNN(db, NNQuery{Values: q, K: 0, Transform: transform.Identity(testLen)}, plan.Index); err == nil {
		t.Error("K=0 should fail")
	}
	if _, _, err := forcedNN(db, NNQuery{Values: q, K: 0, Transform: transform.Identity(testLen)}, plan.ScanFreq); err == nil {
		t.Error("scan K=0 should fail")
	}
	if _, _, err := forcedNN(db, NNQuery{Values: q[:3], K: 1, Transform: transform.Identity(testLen)}, plan.Index); err == nil {
		t.Error("bad length should fail")
	}
}

func TestNNMoreThanStored(t *testing.T) {
	db, _ := newTestDB(t, 10, 10, Options{})
	q := make([]float64, testLen)
	for i := range q {
		q[i] = float64(i)
	}
	res, _, err := forcedNN(db, NNQuery{Values: q, K: 50, Transform: transform.Identity(testLen)}, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("K beyond size returned %d", len(res))
	}
}

func TestSelfJoinMethodsTable1Semantics(t *testing.T) {
	// Build a miniature Table 1 ensemble: planted raw pairs and smooth-only
	// pairs, then check the answer-set relationships the paper reports:
	// a == b (each unordered pair once), d == 2*a (each pair twice),
	// c finds only the raw pairs (twice). Length 128 as in the paper — a
	// 20-day window over much shorter series over-smooths and creates
	// accidental pairs.
	const joinLen = 128
	ens, err := dataset.StockLike(80, joinLen, 11, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(joinLen, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ens.Series {
		if _, err := db.Insert(s.Name, s.Values); err != nil {
			t.Fatal(err)
		}
	}
	tr := transform.MovingAverage(joinLen, 20)
	eps := ens.Epsilon

	resA, stA, err := db.SelfJoin(eps, tr, JoinScanNaive)
	if err != nil {
		t.Fatal(err)
	}
	resB, stB, err := db.SelfJoin(eps, tr, JoinScanEarlyAbandon)
	if err != nil {
		t.Fatal(err)
	}
	resC, _, err := db.SelfJoin(eps, tr, JoinIndexPlain)
	if err != nil {
		t.Fatal(err)
	}
	resD, _, err := db.SelfJoin(eps, tr, JoinIndexTransform)
	if err != nil {
		t.Fatal(err)
	}

	wantPairs := len(ens.AllMavgPairs())
	if len(resA) != wantPairs || len(resB) != wantPairs {
		t.Fatalf("scan joins found %d / %d pairs, want %d", len(resA), len(resB), wantPairs)
	}
	if len(resD) != 2*wantPairs {
		t.Fatalf("method d found %d, want %d (each pair twice)", len(resD), 2*wantPairs)
	}
	if len(resC) != 2*len(ens.RawPairs) {
		t.Fatalf("method c found %d, want %d (raw pairs only, twice)", len(resC), 2*len(ens.RawPairs))
	}
	// a and b find identical pair sets.
	key := func(p JoinPair) [2]int64 {
		if p.A > p.B {
			return [2]int64{p.B, p.A}
		}
		return [2]int64{p.A, p.B}
	}
	setA := map[[2]int64]bool{}
	for _, p := range resA {
		setA[key(p)] = true
	}
	for _, p := range resB {
		if !setA[key(p)] {
			t.Fatalf("method b found pair %v that a did not", p)
		}
	}
	// d covers the same unordered pairs as a.
	setD := map[[2]int64]bool{}
	for _, p := range resD {
		setD[key(p)] = true
	}
	if len(setD) != wantPairs {
		t.Fatalf("method d covers %d unordered pairs, want %d", len(setD), wantPairs)
	}
	for k := range setA {
		if !setD[k] {
			t.Fatalf("method d missed pair %v", k)
		}
	}
	// Early abandoning must do strictly less distance work.
	if stB.DistanceTerms >= stA.DistanceTerms {
		t.Fatalf("early abandoning did not reduce distance terms: %d vs %d", stB.DistanceTerms, stA.DistanceTerms)
	}
}

func TestSelfJoinValidation(t *testing.T) {
	db, _ := newTestDB(t, 10, 12, Options{})
	if _, _, err := db.SelfJoin(-1, transform.Identity(testLen), JoinScanNaive); err == nil {
		t.Error("negative eps should fail")
	}
	if _, _, err := db.SelfJoin(1, transform.Identity(5), JoinIndexTransform); err == nil {
		t.Error("wrong transform length should fail")
	}
	if _, _, err := db.SelfJoin(1, transform.Identity(testLen), JoinMethod(42)); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestJoinMethodString(t *testing.T) {
	for _, m := range []JoinMethod{JoinScanNaive, JoinScanEarlyAbandon, JoinIndexPlain, JoinIndexTransform, JoinMethod(9)} {
		if m.String() == "" {
			t.Fatal("empty method name")
		}
	}
}

func TestJoinTwoSidedFindsReversedPairs(t *testing.T) {
	// Example 2.2: reversed stocks match under L = mavg20 ∘ reverse on the
	// index side and R = mavg20 on the probe side.
	ens, err := dataset.StockLike(60, testLen, 13, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(testLen, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ens.Series {
		if _, err := db.Insert(s.Name, s.Values); err != nil {
			t.Fatal(err)
		}
	}
	mavg := transform.MovingAverage(testLen, 20)
	revMavg, err := transform.Reverse(testLen).Compose(mavg)
	if err != nil {
		t.Fatal(err)
	}
	pairs, _, err := forcedJoinTwoSided(db, ens.Epsilon, revMavg, mavg)
	if err != nil {
		t.Fatal(err)
	}
	found := map[[2]int64]bool{}
	for _, p := range pairs {
		found[[2]int64{p.A, p.B}] = true
	}
	for _, pp := range ens.ReversedPairs {
		a, b := int64(pp.A), int64(pp.B)
		if !found[[2]int64{a, b}] && !found[[2]int64{b, a}] {
			t.Fatalf("two-sided join missed reversed pair %v; found %v", pp, pairs)
		}
	}
}

func TestDisablePartialPruneStillExact(t *testing.T) {
	db1, data := newTestDB(t, 120, 14, Options{})
	db2, _ := newTestDB(t, 120, 14, Options{DisablePartialPrune: true})
	q := data[3]
	rq := RangeQuery{Values: q, Eps: 1.5, Transform: transform.MovingAverage(testLen, 5)}
	r1, s1, err := forcedRange(db1, rq, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := forcedRange(db2, rq, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("prune on/off changed results: %d vs %d", len(r1), len(r2))
	}
	if s2.Candidates < s1.Candidates {
		t.Fatalf("disabling pruning should not reduce candidates (%d vs %d)", s2.Candidates, s1.Candidates)
	}
}
