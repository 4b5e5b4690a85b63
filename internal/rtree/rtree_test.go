package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func pt(vs ...float64) geom.Point { return geom.Point(vs) }

// randomRect produces a small random rectangle inside [-50, 50]^dims.
func randomRect(r *rand.Rand, dims int) geom.Rect {
	lo := make(geom.Point, dims)
	hi := make(geom.Point, dims)
	for i := 0; i < dims; i++ {
		c := r.Float64()*100 - 50
		w := r.Float64() * 5
		lo[i], hi[i] = c-w/2, c+w/2
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

func randomPointRect(r *rand.Rand, dims int) geom.Rect {
	p := make(geom.Point, dims)
	for i := 0; i < dims; i++ {
		p[i] = r.Float64()*100 - 50
	}
	return geom.PointRect(p)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Options{}); err == nil {
		t.Error("dims=0 should fail")
	}
	if _, err := New(2, Options{MaxEntries: 3}); err == nil {
		t.Error("MaxEntries=3 should fail")
	}
	if _, err := New(2, Options{MaxEntries: 10, MinEntries: 6}); err == nil {
		t.Error("MinEntries > M/2 should fail")
	}
	tr, err := New(2, Options{})
	if err != nil || tr.Dims() != 2 || tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("default tree wrong: %v %v", tr, err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad options did not panic")
		}
	}()
	MustNew(0, Options{})
}

func TestInsertRejectsBadRect(t *testing.T) {
	tr := MustNew(2, Options{})
	if err := tr.Insert(geom.Rect{Lo: pt(0), Hi: pt(1)}, 1); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if err := tr.Insert(geom.Rect{Lo: pt(1, 0), Hi: pt(0, 1)}, 1); err == nil {
		t.Error("non-canonical rect should fail")
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr := MustNew(2, Options{MaxEntries: 4})
	rects := []geom.Rect{
		geom.NewRect(pt(0, 0), pt(1, 1)),
		geom.NewRect(pt(2, 2), pt(3, 3)),
		geom.NewRect(pt(10, 10), pt(11, 11)),
		geom.NewRect(pt(0.5, 0.5), pt(2.5, 2.5)),
	}
	for i, r := range rects {
		if err := tr.Insert(r, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	ids, _ := searchIDs(tr, geom.NewRect(pt(0, 0), pt(2, 2)), identity)
	want := []int64{0, 1, 3}
	if !equalIDs(ids, want) {
		t.Fatalf("search ids = %v, want %v", ids, want)
	}
}

// expand returns r grown by eps in every direction.
func expand(r geom.Rect, eps float64) geom.Rect {
	out := r.Clone()
	for i := range out.Lo {
		out.Lo[i] -= eps
		out.Hi[i] += eps
	}
	return out
}

// idCollector gathers the ids a range traversal emits, stopping after limit
// of them (0: never).
type idCollector struct {
	ids   []int64
	limit int
}

func (c *idCollector) VisitFlat(id int64, tlo, thi, cart []float64) bool {
	c.ids = append(c.ids, id)
	return len(c.ids) != c.limit
}

// searchIDs runs the range traversal for q under fm and returns the ids it
// emits, sorted.
func searchIDs(tr *Tree, q geom.Rect, fm FlatMap) ([]int64, SearchStats) {
	var (
		sc  Scratch
		got idCollector
	)
	st := tr.FlatRange(q.Lo, q.Hi, fm, &sc, &got)
	sort.Slice(got.ids, func(i, j int) bool { return got.ids[i] < got.ids[j] })
	return got.ids, st
}

var identity = FlatMap{Identity: true}

// nearest runs the nearest-neighbor traversal around p with Euclidean
// geometry (flatTestKernel) and a top-k visitor, and returns the k nearest
// items' ids and distances, ascending.
func nearest(tr *Tree, p geom.Point, k int) ([]int64, []float64, SearchStats) {
	var sc Scratch
	got := topNear{k: k}
	st := tr.NearestFlat(identity, &flatTestKernel{q: p}, &sc, &got)
	for i, d := range got.dists {
		got.dists[i] = math.Sqrt(d)
	}
	return got.ids, got.dists, st
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildRandom inserts n random rects and returns them.
func buildRandom(t *testing.T, tr *Tree, n int, seed int64, points bool) []geom.Rect {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rects := make([]geom.Rect, n)
	for i := 0; i < n; i++ {
		if points {
			rects[i] = randomPointRect(r, tr.Dims())
		} else {
			rects[i] = randomRect(r, tr.Dims())
		}
		if err := tr.Insert(rects[i], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return rects
}

func TestSearchMatchesBruteForce(t *testing.T) {
	for _, dims := range []int{1, 2, 4, 6} {
		tr := MustNew(dims, Options{MaxEntries: 8})
		rects := buildRandom(t, tr, 500, int64(dims), false)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("dims=%d: %v", dims, err)
		}
		r := rand.New(rand.NewSource(99))
		for trial := 0; trial < 20; trial++ {
			q := expand(randomRect(r, dims), 3)
			got, _ := searchIDs(tr, q, identity)
			var want []int64
			for i, rect := range rects {
				if rect.Intersects(q) {
					want = append(want, int64(i))
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !equalIDs(got, want) {
				t.Fatalf("dims=%d trial=%d: mismatch", dims, trial)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := MustNew(2, Options{})
	buildRandom(t, tr, 200, 5, false)
	var sc Scratch
	got := idCollector{limit: 10}
	b := tr.Bounds()
	tr.FlatRange(b.Lo, b.Hi, identity, &sc, &got)
	if len(got.ids) != 10 {
		t.Fatalf("early stop visited %d, want 10", len(got.ids))
	}
	// The nearest-neighbor walk stops where a top-10 visitor's bound says
	// nothing more can enter: short of the whole tree.
	near := topNear{k: 10}
	st := tr.NearestFlat(identity, &flatTestKernel{q: b.Lo}, &sc, &near)
	if nodes, _ := treeNodes(tr); len(near.ids) != 10 || st.NodesVisited >= nodes {
		t.Fatalf("the top-10 walk kept %d items over %d of %d nodes", len(near.ids), st.NodesVisited, nodes)
	}
}

func TestAll(t *testing.T) {
	tr := MustNew(2, Options{MaxEntries: 5})
	buildRandom(t, tr, 137, 6, true)
	seen := map[int64]bool{}
	tr.All(func(it Item) bool {
		seen[it.ID] = true
		return true
	})
	if len(seen) != 137 {
		t.Fatalf("All visited %d items, want 137", len(seen))
	}
	empty := MustNew(2, Options{})
	empty.All(func(Item) bool { t.Fatal("empty tree visited an item"); return false })
}

func TestInvariantsThroughGrowth(t *testing.T) {
	tr := MustNew(3, Options{MaxEntries: 6})
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(randomRect(r, 3), int64(i)); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Fatalf("expected a tree of height >= 3, got %d", tr.Height())
	}
}

func TestDelete(t *testing.T) {
	tr := MustNew(2, Options{MaxEntries: 5})
	rects := buildRandom(t, tr, 300, 8, false)
	// Delete every other item, verifying search coherence as we go.
	for i := 0; i < 300; i += 2 {
		if !tr.Delete(rects[i], int64(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 150 {
		t.Fatalf("Len after deletes = %d, want 150", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, _ := searchIDs(tr, tr.Bounds(), identity)
	for _, id := range got {
		if id%2 == 0 {
			t.Fatalf("deleted item %d still present", id)
		}
	}
	if len(got) != 150 {
		t.Fatalf("search found %d, want 150", len(got))
	}
	// Deleting a non-existent item returns false.
	if tr.Delete(geom.NewRect(pt(1000, 1000), pt(1001, 1001)), 12345) {
		t.Fatal("delete of absent item returned true")
	}
	// Rect must match exactly, not just the ID.
	if tr.Delete(expand(rects[1], 0.1), 1) {
		t.Fatal("delete with wrong rect returned true")
	}
}

func TestDeleteAll(t *testing.T) {
	tr := MustNew(2, Options{MaxEntries: 4})
	rects := buildRandom(t, tr, 100, 9, true)
	for i, r := range rects {
		if !tr.Delete(r, int64(i)) {
			t.Fatalf("delete %d failed", i)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after deleting %d: %v", i, err)
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("emptied tree: len=%d height=%d", tr.Len(), tr.Height())
	}
}

func TestRandomizedInsertDeleteProperty(t *testing.T) {
	// Interleave inserts and deletes; after every batch the tree must obey
	// invariants and agree with a map oracle under full-range search.
	tr := MustNew(2, Options{MaxEntries: 6})
	r := rand.New(rand.NewSource(10))
	live := map[int64]geom.Rect{}
	nextID := int64(0)
	for round := 0; round < 60; round++ {
		for op := 0; op < 30; op++ {
			if len(live) == 0 || r.Float64() < 0.6 {
				rect := randomRect(r, 2)
				if err := tr.Insert(rect, nextID); err != nil {
					t.Fatal(err)
				}
				live[nextID] = rect
				nextID++
			} else {
				// Pick an arbitrary live item.
				var id int64
				for k := range live {
					id = k
					break
				}
				if !tr.Delete(live[id], id) {
					t.Fatalf("round %d: delete of live item %d failed", round, id)
				}
				delete(live, id)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if tr.Len() != len(live) {
			t.Fatalf("round %d: len %d != oracle %d", round, tr.Len(), len(live))
		}
		got := map[int64]bool{}
		tr.All(func(it Item) bool { got[it.ID] = true; return true })
		if len(got) != len(live) {
			t.Fatalf("round %d: traversal found %d, oracle %d", round, len(got), len(live))
		}
		for id := range live {
			if !got[id] {
				t.Fatalf("round %d: live item %d missing", round, id)
			}
		}
		q := expand(randomRect(r, 2), 10)
		var want []int64
		for id, rect := range live {
			if rect.Intersects(q) {
				want = append(want, id)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if ids, _ := searchIDs(tr, q, identity); !equalIDs(ids, want) {
			t.Fatalf("round %d: range search found %v, oracle %v", round, ids, want)
		}
	}
}

func TestNearestMatchesLinearScan(t *testing.T) {
	tr := MustNew(4, Options{MaxEntries: 8})
	rects := buildRandom(t, tr, 800, 11, true)
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		q := make(geom.Point, 4)
		for i := range q {
			q[i] = r.Float64()*120 - 60
		}
		for _, k := range []int{1, 5, 17} {
			_, got, _ := nearest(tr, q, k)
			if len(got) != k {
				t.Fatalf("nearest returned %d, want %d", len(got), k)
			}
			// Oracle: sort all by distance.
			type dr struct {
				id int64
				d  float64
			}
			all := make([]dr, len(rects))
			for i, rect := range rects {
				all[i] = dr{int64(i), q.Dist(rect.Lo)}
			}
			sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
			for i := 0; i < k; i++ {
				if math.Abs(got[i]-all[i].d) > 1e-9 {
					t.Fatalf("trial=%d k=%d rank=%d: dist %v != oracle %v", trial, k, i, got[i], all[i].d)
				}
			}
			// Results must be sorted by distance.
			for i := 1; i < k; i++ {
				if got[i] < got[i-1] {
					t.Fatal("results not sorted by distance")
				}
			}
		}
	}
}

func TestNearestEdgeCases(t *testing.T) {
	tr := MustNew(2, Options{})
	if ids, _, st := nearest(tr, pt(0, 0), 3); ids != nil || st != (SearchStats{}) {
		t.Fatalf("empty tree: visited %v, stats %+v", ids, st)
	}
	tr.Insert(geom.PointRect(pt(1, 1)), 7)
	ids, dists, _ := nearest(tr, pt(0, 0), 5)
	if len(ids) != 1 || ids[0] != 7 || dists[0] != math.Sqrt2 {
		t.Fatalf("k beyond size: %v at %v", ids, dists)
	}
}

func TestTransformedSearchEquivalentToMaterialize(t *testing.T) {
	// The core of the paper's Algorithm 1/2: searching the transformed view
	// of the index must return exactly the same candidates as materializing
	// the transformed index and searching it.
	tr := MustNew(2, Options{MaxEntries: 6})
	buildRandom(t, tr, 400, 15, true)
	shiftScale := FlatMap{C: []float64{2, -2}, D: []float64{-3, 1}}
	mat := tr.Materialize(shiftScale)
	if err := mat.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20; trial++ {
		q := expand(randomRect(r, 2), 5)
		onTheFly, flySt := searchIDs(tr, q, shiftScale)
		matIDs, matSt := searchIDs(mat, q, identity)
		if !equalIDs(onTheFly, matIDs) {
			t.Fatalf("trial %d: on-the-fly %v != materialized %v", trial, onTheFly, matIDs)
		}
		if flySt != matSt {
			t.Fatalf("trial %d: on-the-fly stats %+v != materialized %+v", trial, flySt, matSt)
		}
	}
}

func TestTransformedSearchNegativeScale(t *testing.T) {
	// Negative stretch factors (the paper's T_rev) flip rectangles: the
	// traversal must swap the corners back, on rectangles with extent as on
	// points.
	for _, points := range []bool{true, false} {
		tr := MustNew(2, Options{MaxEntries: 5})
		rects := buildRandom(t, tr, 300, 17, points)
		neg := func(r geom.Rect) geom.Rect {
			out := r.Clone()
			for i := range out.Lo {
				out.Lo[i], out.Hi[i] = -out.Hi[i], -out.Lo[i]
			}
			return out
		}
		q := geom.NewRect(pt(-10, -10), pt(10, 10))
		got, _ := searchIDs(tr, q, FlatMap{C: []float64{-1, -1}, D: []float64{0, 0}})
		var want []int64
		for i, r := range rects {
			if neg(r).Intersects(q) {
				want = append(want, int64(i))
			}
		}
		if len(want) == 0 || !equalIDs(got, want) {
			t.Fatalf("negative-scale transformed search: got %v want %v", got, want)
		}
	}
}

func TestTransformedSearchIdentityEqualsSearch(t *testing.T) {
	// Figure 8/9's premise: the identity transformation processed as a
	// transformation — every node mapped through c = 1, d = 0 — visits
	// exactly the nodes, and finds exactly the items, the plain search does
	// reading the nodes in place.
	tr := MustNew(2, Options{MaxEntries: 8})
	buildRandom(t, tr, 500, 18, true)
	forced := FlatMap{C: []float64{1, 1}, D: []float64{0, 0}}
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		q := expand(randomRect(r, 2), 4)
		plain, plainStats := searchIDs(tr, q, identity)
		ids, tstats := searchIDs(tr, q, forced)
		if !equalIDs(ids, plain) {
			t.Fatal("identity transformed search differs from plain search")
		}
		if tstats != plainStats {
			t.Fatalf("work differs: %+v vs %+v (paper: identical disk accesses)", tstats, plainStats)
		}
	}
}

func TestBulkLoadMatchesIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	items := make([]Item, 1000)
	for i := range items {
		items[i] = Item{Rect: randomPointRect(r, 4), ID: int64(i)}
	}
	bulk := MustNew(4, Options{MaxEntries: 10})
	if err := bulk.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != 1000 {
		t.Fatalf("bulk Len = %d", bulk.Len())
	}
	for trial := 0; trial < 15; trial++ {
		q := expand(randomRect(r, 4), 8)
		got, _ := searchIDs(bulk, q, identity)
		var want []int64
		for _, it := range items {
			if it.Rect.Intersects(q) {
				want = append(want, it.ID)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: bulk-loaded search mismatch", trial)
		}
	}
}

func TestBulkLoadValidation(t *testing.T) {
	tr := MustNew(2, Options{})
	tr.Insert(geom.PointRect(pt(0, 0)), 1)
	if err := tr.BulkLoad([]Item{{Rect: geom.PointRect(pt(1, 1)), ID: 2}}); err == nil {
		t.Error("BulkLoad on non-empty tree should fail")
	}
	empty := MustNew(2, Options{})
	if err := empty.BulkLoad([]Item{{Rect: geom.PointRect(pt(1)), ID: 2}}); err == nil {
		t.Error("BulkLoad with wrong dims should fail")
	}
	if err := empty.BulkLoad(nil); err != nil {
		t.Errorf("BulkLoad(nil) should succeed: %v", err)
	}
}

func TestBulkLoadSmall(t *testing.T) {
	tr := MustNew(2, Options{MaxEntries: 8})
	items := []Item{
		{Rect: geom.PointRect(pt(1, 1)), ID: 1},
		{Rect: geom.PointRect(pt(2, 2)), ID: 2},
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 || tr.Len() != 2 {
		t.Fatalf("small bulk load: height=%d len=%d", tr.Height(), tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDisableReinsert(t *testing.T) {
	with := MustNew(2, Options{MaxEntries: 6})
	without := MustNew(2, Options{MaxEntries: 6, DisableReinsert: true})
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		rect := randomPointRect(r, 2)
		with.Insert(rect, int64(i))
		without.Insert(rect, int64(i))
	}
	if err := with.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := without.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Both must answer queries identically.
	q := geom.NewRect(pt(-20, -20), pt(20, 20))
	a, _ := searchIDs(with, q, identity)
	b, _ := searchIDs(without, q, identity)
	if len(a) == 0 || !equalIDs(a, b) {
		t.Fatal("reinsert on/off changed query results")
	}
}

func TestBoundsEmpty(t *testing.T) {
	tr := MustNew(2, Options{})
	if b := tr.Bounds(); b.Dims() != 0 {
		t.Fatalf("empty bounds = %v", b)
	}
}

func TestStatsCountNodes(t *testing.T) {
	tr := MustNew(2, Options{MaxEntries: 4})
	buildRandom(t, tr, 200, 24, true)
	_, st := searchIDs(tr, tr.Bounds(), identity)
	if st.NodesVisited < tr.Height() {
		t.Fatalf("NodesVisited=%d below height %d", st.NodesVisited, tr.Height())
	}
	if st.EntriesTested == 0 {
		t.Fatal("EntriesTested not counted")
	}
}
