package index

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/series"
	"repro/internal/testkit"
	"repro/internal/transform"
)

func randomWalk(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	v := 20 + r.Float64()*79
	for i := range s {
		v += r.Float64()*8 - 4
		s[i] = v
	}
	return s
}

// coeffDistSq is the squared complex-plane distance between the coefficient
// vectors of two feature points, written out: the partial distance of
// Lemma 1, whichever space stores the points.
func coeffDistSq(sc feature.Schema, a, b geom.Point) float64 {
	ca, cb := sc.Coeffs(a), sc.Coeffs(b)
	var s float64
	for i := range ca {
		d := ca[i] - cb[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return s
}

// rangeIDs runs one range search with scratch of its own.
func rangeIDs(ix *KIndex, q geom.Point, eps float64, m transform.AffineMap, mb feature.MomentBounds, prune bool) ([]int64, rtree.SearchStats) {
	var sc Scratch
	return ix.RangeIDs(q, eps, m, mb, prune, &sc, nil)
}

// nearestK returns the k nearest items of a nearest-neighbor search and
// their squared partial distances, ascending.
func nearestK(ix *KIndex, q geom.Point, m transform.AffineMap, k int) ([]int64, []float64) {
	var sc Scratch
	top := topNear{k: k}
	ix.NearestIDs(q, m, &sc, &top)
	return top.ids, top.dists
}

func buildIndex(t *testing.T, sc feature.Schema, data [][]float64) *KIndex {
	t.Helper()
	ix, err := New(sc, rtree.Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data {
		if err := ix.InsertSeries(int64(i), s); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func TestNewValidation(t *testing.T) {
	if _, err := New(feature.Schema{Space: feature.Polar, K: 0}, rtree.Options{}); err == nil {
		t.Error("invalid schema should fail")
	}
	if _, err := New(feature.DefaultSchema, rtree.Options{MaxEntries: 2}); err == nil {
		t.Error("invalid rtree options should fail")
	}
}

func TestInsertValidation(t *testing.T) {
	ix, _ := New(feature.DefaultSchema, rtree.Options{})
	if err := ix.Insert(1, geom.Point{1, 2}, nil); err == nil {
		t.Error("wrong dims should fail")
	}
	if err := ix.InsertSeries(1, []float64{1}); err == nil {
		t.Error("short series should fail")
	}
}

func TestRangeNoFalseDismissalsLemma1(t *testing.T) {
	// Lemma 1: for every safe transformation, the index filter phase must
	// return a superset of the true answer set. Verified by comparing the
	// candidate IDs against an exact full-spectrum linear scan, across both
	// feature spaces and several transformations.
	r := rand.New(rand.NewSource(1))
	n := 64
	data := make([][]float64, 300)
	for i := range data {
		data[i] = randomWalk(r, n)
	}
	// Plant near-duplicates so answers exist at small eps.
	for i := 0; i < 30; i++ {
		src := data[i]
		dup := make([]float64, n)
		for j := range dup {
			dup[j] = src[j] + r.NormFloat64()*0.2
		}
		data[100+i] = dup
	}

	// warp2 maps an n-point spectrum onto the first n coefficients of a
	// 2n-point one; against an n-point query it is a spectrum only.
	cases := []struct {
		name string
		sc   feature.Schema
		op   testkit.Op
	}{
		{"polar identity", feature.Schema{Space: feature.Polar, K: 2, Moments: true}, testkit.Identity(n)},
		{"polar mavg5", feature.Schema{Space: feature.Polar, K: 2, Moments: true}, testkit.Mavg(n, 5)},
		{"polar mavg20", feature.Schema{Space: feature.Polar, K: 3, Moments: true}, testkit.Mavg(n, 20)},
		{"polar reverse", feature.Schema{Space: feature.Polar, K: 2, Moments: true}, testkit.Reverse(n)},
		{"polar warp2", feature.Schema{Space: feature.Polar, K: 2, Moments: true}, testkit.Spectral(transform.Warp(n, 2))},
		{"rect identity", feature.Schema{Space: feature.Rect, K: 2, Moments: true}, testkit.Identity(n)},
		{"rect reverse", feature.Schema{Space: feature.Rect, K: 3, Moments: true}, testkit.Reverse(n)},
		{"rect scale", feature.Schema{Space: feature.Rect, K: 2, Moments: true}, testkit.Scale(n, 1.7)},
	}
	for _, tc := range cases {
		ix := buildIndex(t, tc.sc, data)
		m, err := tc.sc.Map(tc.op.T)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for trial := 0; trial < 5; trial++ {
			q := data[r.Intn(len(data))]
			qp, _ := tc.sc.Extract(q)
			ranked := testkit.Rank(data, q, tc.op, false)
			for _, eps := range []float64{0.3, 1.0, 5.0} {
				cands, _ := rangeIDs(ix, qp, eps, m, feature.MomentBounds{}, true)
				got := map[int64]bool{}
				for _, id := range cands {
					got[id] = true
				}
				for _, h := range ranked {
					if h.Dist <= eps && !got[int64(h.I)] {
						t.Fatalf("%s eps=%g: false dismissal of series %d", tc.name, eps, h.I)
					}
				}
			}
		}
	}
}

func TestRangeIdentityMatchesBruteForcePartial(t *testing.T) {
	// With pruning enabled the candidate set equals the set of points whose
	// k-coefficient distance is within eps (modulo boundary ties).
	r := rand.New(rand.NewSource(2))
	sc := feature.Schema{Space: feature.Polar, K: 2, Moments: true}
	n := 64
	data := make([][]float64, 200)
	points := make([]geom.Point, 200)
	for i := range data {
		data[i] = randomWalk(r, n)
		points[i], _ = sc.Extract(data[i])
	}
	ix := buildIndex(t, sc, data)
	id := transform.IdentityMap(sc.Dims(), sc.Angular())
	for trial := 0; trial < 10; trial++ {
		q := points[r.Intn(len(points))]
		eps := 0.5 + r.Float64()*2
		cands, _ := rangeIDs(ix, q, eps, id, feature.MomentBounds{}, true)
		got := map[int64]bool{}
		for _, c := range cands {
			got[c] = true
		}
		for i, p := range points {
			want := coeffDistSq(sc, p, q) <= eps*eps
			if want != got[int64(i)] {
				t.Fatalf("trial %d: candidate set mismatch at %d (want %v)", trial, i, want)
			}
		}
	}
}

func TestRangeMomentBounds(t *testing.T) {
	// GK95-style shift/scale restriction: moment bounds must constrain the
	// candidate set by mean and std.
	r := rand.New(rand.NewSource(3))
	sc := feature.DefaultSchema
	n := 64
	data := make([][]float64, 100)
	for i := range data {
		data[i] = randomWalk(r, n)
	}
	ix := buildIndex(t, sc, data)
	id := transform.IdentityMap(sc.Dims(), sc.Angular())
	q, _ := sc.Extract(data[0])
	all, _ := rangeIDs(ix, q, 100, id, feature.MomentBounds{}, false)
	if len(all) != len(data) {
		t.Fatalf("unbounded wide query returned %d of %d", len(all), len(data))
	}
	mb := feature.MomentBounds{MeanLo: 40, MeanHi: 60, StdLo: -math.MaxFloat64, StdHi: math.MaxFloat64}
	bounded, _ := rangeIDs(ix, q, 100, id, mb, false)
	for _, c := range bounded {
		if mean := series.Mean(data[c]); mean < 40 || mean > 60 {
			t.Fatalf("moment bound violated: mean %v", mean)
		}
	}
	var want int
	for _, s := range data {
		if m := series.Mean(s); m >= 40 && m <= 60 {
			want++
		}
	}
	if len(bounded) != want {
		t.Fatalf("bounded query returned %d, want %d", len(bounded), want)
	}
}

func TestRangePanicsOnWrongDims(t *testing.T) {
	ix, _ := New(feature.DefaultSchema, rtree.Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong query dims did not panic")
		}
	}()
	rangeIDs(ix, geom.Point{1}, 1, transform.IdentityMap(6, nil), feature.MomentBounds{}, true)
}

func TestBulkLoadAgreesWithInserts(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	sc := feature.DefaultSchema
	n := 64
	data := make([][]float64, 400)
	points := make([]geom.Point, 400)
	ids := make([]int64, 400)
	for i := range data {
		data[i] = randomWalk(r, n)
		points[i], _ = sc.Extract(data[i])
		ids[i] = int64(i)
	}
	inc := buildIndex(t, sc, data)
	bulk, _ := New(sc, rtree.Options{MaxEntries: 8})
	if err := bulk.BulkLoad(points, ids); err != nil {
		t.Fatal(err)
	}
	if err := bulk.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	id := transform.IdentityMap(sc.Dims(), sc.Angular())
	for trial := 0; trial < 8; trial++ {
		q := points[r.Intn(len(points))]
		eps := 0.5 + r.Float64()*3
		ai, _ := rangeIDs(inc, q, eps, id, feature.MomentBounds{}, true)
		bi, _ := rangeIDs(bulk, q, eps, id, feature.MomentBounds{}, true)
		sort.Slice(ai, func(i, j int) bool { return ai[i] < ai[j] })
		sort.Slice(bi, func(i, j int) bool { return bi[i] < bi[j] })
		if len(ai) != len(bi) {
			t.Fatalf("bulk vs incremental: %d vs %d candidates", len(bi), len(ai))
		}
		for i := range ai {
			if ai[i] != bi[i] {
				t.Fatal("bulk vs incremental candidate mismatch")
			}
		}
	}
}

func TestBulkLoadValidation(t *testing.T) {
	ix, _ := New(feature.DefaultSchema, rtree.Options{})
	if err := ix.BulkLoad([]geom.Point{{1, 2}}, []int64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := ix.BulkLoad([]geom.Point{{1, 2}}, []int64{1}); err == nil {
		t.Error("wrong dims should fail")
	}
}

func TestDelete(t *testing.T) {
	sc := feature.DefaultSchema
	ix, _ := New(sc, rtree.Options{})
	r := rand.New(rand.NewSource(5))
	s := randomWalk(r, 64)
	p, _ := sc.Extract(s)
	ix.Insert(7, p, nil)
	if ix.Len() != 1 {
		t.Fatal("insert failed")
	}
	if !ix.Delete(7, p) {
		t.Fatal("delete failed")
	}
	if ix.Len() != 0 {
		t.Fatal("delete did not remove")
	}
	if ix.Delete(7, p) {
		t.Fatal("double delete returned true")
	}
}

// leafRuns records every item of a nearest-neighbor walk and where each
// expanded leaf begins. The walk reads NearBound before each item it hands
// over and once at each node it pops, so an item after two or more reads
// since the last one opens a new leaf; unread counts items after none.
type leafRuns struct {
	reads, unread int
	ids           []int64
	dists         []float64
	starts        []int
}

func (r *leafRuns) NearBound() float64 {
	r.reads++
	return math.Inf(1)
}

func (r *leafRuns) VisitNear(id int64, distSq float64) bool {
	switch {
	case r.reads == 0:
		r.unread++
	case r.reads >= 2:
		r.starts = append(r.starts, len(r.ids))
	}
	r.reads = 0
	r.ids, r.dists = append(r.ids, id), append(r.dists, distSq)
	return true
}

// TestNearestFuncOrderedByPartialDistance: the walk hands over each leaf's
// items together and in ascending partial distance — every item once, each
// after a read of the bound, in no more runs than it visited nodes, none
// longer than M = 8 — and a top-20 visitor keeps the global 20 smallest
// partial distances.
func TestNearestFuncOrderedByPartialDistance(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	n := 64
	for _, sc := range []feature.Schema{
		{Space: feature.Polar, K: 2, Moments: true},
		{Space: feature.Rect, K: 2, Moments: true},
	} {
		data := make([][]float64, 250)
		for i := range data {
			data[i] = randomWalk(r, n)
		}
		ix := buildIndex(t, sc, data)
		q, _ := sc.Extract(randomWalk(r, n))
		id := transform.IdentityMap(sc.Dims(), sc.Angular())
		var scr Scratch
		var runs leafRuns
		st := ix.NearestIDs(q, id, &scr, &runs)
		seen := map[int64]bool{}
		for _, v := range runs.ids {
			seen[v] = true
		}
		if len(runs.ids) != len(data) || len(seen) != len(data) || runs.unread != 0 || len(runs.starts) == 0 || runs.starts[0] != 0 || len(runs.starts) > st.NodesVisited {
			t.Fatalf("space %v: %d items (%d distinct, %d without a bound read first) in %d leaf runs over %d nodes",
				sc.Space, len(runs.ids), len(seen), runs.unread, len(runs.starts), st.NodesVisited)
		}
		for j, from := range runs.starts {
			to := len(runs.ids)
			if j+1 < len(runs.starts) {
				to = runs.starts[j+1]
			}
			if leaf := runs.dists[from:to]; len(leaf) > 8 || !slices.IsSorted(leaf) {
				t.Fatalf("space %v: leaf run %d hands over %v", sc.Space, j, leaf)
			}
		}
		_, dists := nearestK(ix, q, id, 20)
		if len(dists) != 20 {
			t.Fatalf("visited %d", len(dists))
		}
		// The 20 kept must be the global 20 smallest partial distances.
		type pd struct {
			id int64
			d  float64
		}
		all := make([]pd, len(data))
		for i, s := range data {
			p, _ := sc.Extract(s)
			all[i] = pd{int64(i), coeffDistSq(sc, p, q)}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		for i := 0; i < 20; i++ {
			if math.Abs(all[i].d-dists[i]) > 1e-9 {
				t.Fatalf("space %v rank %d: %v != oracle %v", sc.Space, i, dists[i], all[i].d)
			}
		}
	}
}

func TestNearestFuncWithTransform(t *testing.T) {
	// NN under mavg: the 10 a top-10 visitor keeps must be the brute-force
	// transformed partial distances' 10 smallest.
	r := rand.New(rand.NewSource(7))
	n := 64
	sc := feature.Schema{Space: feature.Polar, K: 2, Moments: true}
	data := make([][]float64, 150)
	for i := range data {
		data[i] = randomWalk(r, n)
	}
	ix := buildIndex(t, sc, data)
	tr := transform.MovingAverage(n, 5)
	m, err := sc.Map(tr)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := sc.Extract(randomWalk(r, n))
	_, got := nearestK(ix, q, m, 10)
	if len(got) != 10 {
		t.Fatalf("visited %d", len(got))
	}
	var oracle []float64
	for _, s := range data {
		p, _ := sc.Extract(s)
		oracle = append(oracle, coeffDistSq(sc, m.ApplyPoint(p), q))
	}
	sort.Float64s(oracle)
	for i := range got {
		if math.Abs(got[i]-oracle[i]) > 1e-9 {
			t.Fatalf("rank %d: %v != %v", i, got[i], oracle[i])
		}
	}
}

func TestMaterializeEquivalence(t *testing.T) {
	// Algorithm 1 (materialized I') and Algorithm 2 (on the fly) must agree.
	r := rand.New(rand.NewSource(8))
	n := 64
	sc := feature.Schema{Space: feature.Polar, K: 2, Moments: true}
	data := make([][]float64, 200)
	for i := range data {
		data[i] = randomWalk(r, n)
	}
	ix := buildIndex(t, sc, data)
	tr := transform.MovingAverage(n, 20)
	m, _ := sc.Map(tr)
	mat := ix.Materialize(m)
	idm := transform.IdentityMap(sc.Dims(), sc.Angular())
	for trial := 0; trial < 10; trial++ {
		q, _ := sc.Extract(data[r.Intn(len(data))])
		eps := 0.3 + r.Float64()*2
		a, ast := rangeIDs(ix, q, eps, m, feature.MomentBounds{}, false)
		b, bst := rangeIDs(mat, q, eps, idm, feature.MomentBounds{}, false)
		am := map[int64]bool{}
		for _, c := range a {
			am[c] = true
		}
		if len(a) != len(b) || ast != bst {
			t.Fatalf("trial %d: %d on-the-fly (%+v) vs %d materialized (%+v)", trial, len(a), ast, len(b), bst)
		}
		for _, c := range b {
			if !am[c] {
				t.Fatalf("trial %d: materialized found %d missing on the fly", trial, c)
			}
		}
	}
}

func TestSchemaAccessor(t *testing.T) {
	ix, _ := New(feature.DefaultSchema, rtree.Options{})
	if ix.Schema() != feature.DefaultSchema {
		t.Fatal("Schema accessor wrong")
	}
}
