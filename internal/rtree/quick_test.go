package rtree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// opSequence is a generated workload: a mix of inserts and deletes encoded
// as raw bytes so testing/quick can produce it.
type opSequence []byte

// TestQuickInsertDeleteInvariants runs generated operation sequences and
// checks structural invariants plus oracle agreement after each batch.
func TestQuickInsertDeleteInvariants(t *testing.T) {
	f := func(ops opSequence, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := MustNew(2, Options{MaxEntries: 4}) // tiny fan-out stresses splits
		live := map[int64]geom.Rect{}
		nextID := int64(0)
		for _, op := range ops {
			if len(live) == 0 || op%3 != 0 {
				rect := randomRect(r, 2)
				if err := tr.Insert(rect, nextID); err != nil {
					return false
				}
				live[nextID] = rect
				nextID++
			} else {
				// Delete an arbitrary live item.
				var id int64 = -1
				for k := range live {
					id = k
					break
				}
				if !tr.Delete(live[id], id) {
					return false
				}
				delete(live, id)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		if tr.Len() != len(live) {
			return false
		}
		found := map[int64]bool{}
		tr.All(func(it Item) bool { found[it.ID] = true; return true })
		if len(found) != len(live) {
			return false
		}
		for id := range live {
			if !found[id] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(99)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := 20 + r.Intn(120)
			ops := make(opSequence, n)
			r.Read(ops)
			vals[0] = reflect.ValueOf(ops)
			vals[1] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSearchMatchesOracle cross-checks random range searches against
// a linear oracle on randomly grown trees.
func TestQuickSearchMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := MustNew(3, Options{MaxEntries: 6})
		n := 50 + r.Intn(200)
		rects := make([]geom.Rect, n)
		for i := 0; i < n; i++ {
			rects[i] = randomRect(r, 3)
			if err := tr.Insert(rects[i], int64(i)); err != nil {
				return false
			}
		}
		for trial := 0; trial < 5; trial++ {
			q := expand(randomRect(r, 3), r.Float64()*10)
			ids, _ := searchIDs(tr, q, identity)
			var want []int64
			for i, rect := range rects {
				if rect.Intersects(q) {
					want = append(want, int64(i))
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !equalIDs(ids, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(100))}); err != nil {
		t.Error(err)
	}
}

// TestQuickNNMatchesOracle cross-checks nearest-neighbor searches against
// linear scans on random point sets.
func TestQuickNNMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := MustNew(2, Options{MaxEntries: 5})
		n := 30 + r.Intn(150)
		pts := make([]geom.Point, n)
		for i := 0; i < n; i++ {
			pts[i] = geom.Point{r.Float64()*100 - 50, r.Float64()*100 - 50}
			if err := tr.Insert(geom.PointRect(pts[i]), int64(i)); err != nil {
				return false
			}
		}
		q := geom.Point{r.Float64()*120 - 60, r.Float64()*120 - 60}
		k := 1 + r.Intn(10)
		_, got, _ := nearest(tr, q, k)
		if len(got) != k {
			return false
		}
		dists := make([]float64, n)
		for i, p := range pts {
			dists[i] = q.Dist(p)
		}
		sort.Float64s(dists)
		for i := range got {
			if got[i]-dists[i] > 1e-9 || dists[i]-got[i] > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(101))}); err != nil {
		t.Error(err)
	}
}
