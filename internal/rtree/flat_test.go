package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// The traversals under a per-dimension affine map, against a linear scan of
// the stored points mapped one by one.

func randFlatTree(t *testing.T, rng *rand.Rand, n, dims int) (*Tree, []geom.Point) {
	tree, err := New(dims, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dims)
		for j := range p {
			p[j] = rng.NormFloat64() * 5
		}
		pts[i] = p
		if err := tree.Insert(geom.PointRect(p), int64(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	return tree, pts
}

// randFlatMap draws a map with stretches of either sign (a negative one
// flips the corners), or the identity every fourth trial.
func randFlatMap(rng *rand.Rand, trial, dims int) FlatMap {
	fm := FlatMap{C: make([]float64, dims), D: make([]float64, dims), Identity: trial%4 == 0}
	for j := range fm.C {
		fm.C[j] = 1
		if !fm.Identity {
			fm.C[j], fm.D[j] = rng.NormFloat64(), rng.NormFloat64()
		}
	}
	return fm
}

type collectFlat struct {
	ids []int64
	los [][]float64
}

func (c *collectFlat) VisitFlat(id int64, tlo, thi, cart []float64) bool {
	c.ids = append(c.ids, id)
	c.los = append(c.los, append([]float64(nil), tlo...))
	return true
}

// TestFlatRangeParity: the range traversal under a map emits exactly the
// points whose image lies in the query box, each once, and hands the
// visitor that image — c*x + d, to the bit.
func TestFlatRangeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const dims = 4
	for _, n := range []int{0, 1, 7, 60, 400} {
		tree, pts := randFlatTree(t, rng, n, dims)
		for trial := 0; trial < 20; trial++ {
			fm := randFlatMap(rng, trial, dims)
			eps := rng.Float64() * 4
			qlo := make([]float64, dims)
			qhi := make([]float64, dims)
			for j := range qlo {
				c := rng.NormFloat64() * 5
				qlo[j], qhi[j] = c-eps, c+eps
			}
			image := func(p geom.Point) geom.Point {
				out := make(geom.Point, dims)
				for j := range out {
					out[j] = fm.C[j]*p[j] + fm.D[j]
				}
				return out
			}
			want := map[int64]geom.Point{}
			for i, p := range pts {
				if tp := image(p); geom.PointRect(tp).Intersects(geom.Rect{Lo: qlo, Hi: qhi}) {
					want[int64(i)] = tp
				}
			}

			var got collectFlat
			var sc Scratch
			st := tree.FlatRange(qlo, qhi, fm, &sc, &got)
			if len(got.ids) != len(want) {
				t.Fatalf("n=%d trial=%d: %d hits, want %d", n, trial, len(got.ids), len(want))
			}
			if st.NodesVisited < 1 || st.EntriesTested < len(want) {
				t.Fatalf("n=%d trial=%d: stats %+v for %d hits", n, trial, st, len(want))
			}
			for i, id := range got.ids {
				tp, ok := want[id]
				if !ok {
					t.Fatalf("n=%d trial=%d: id %d emitted twice or outside the box", n, trial, id)
				}
				delete(want, id)
				if !tp.Equal(got.los[i]) {
					t.Fatalf("n=%d trial=%d id %d: visitor got %v, image is %v", n, trial, id, got.los[i], tp)
				}
			}
		}
	}
}

// flatTestKernel is plain Euclidean geometry: MINDIST to a transformed
// rectangle, squared distance to a transformed point.
type flatTestKernel struct {
	q []float64
}

func (k *flatTestKernel) LowerBatch(lo, hi []float64, count, dims int, out []float64) {
	for e := 0; e < count; e++ {
		off := e * dims
		var s float64
		for j := 0; j < dims; j++ {
			switch {
			case k.q[j] < lo[off+j]:
				d := lo[off+j] - k.q[j]
				s += d * d
			case k.q[j] > hi[off+j]:
				d := k.q[j] - hi[off+j]
				s += d * d
			}
		}
		out[e] = s
	}
}

func (k *flatTestKernel) PointBatch(lo []float64, count, dims int, out []float64) {
	for e := 0; e < count; e++ {
		off := e * dims
		var s float64
		for j := 0; j < dims; j++ {
			d := k.q[j] - lo[off+j]
			s += d * d
		}
		out[e] = s
	}
}

type collectNear struct {
	ids   []int64
	dists []float64
	limit int
}

func (c *collectNear) VisitNear(id int64, distSq float64) bool {
	c.ids = append(c.ids, id)
	c.dists = append(c.dists, distSq)
	return len(c.ids) < c.limit
}

// TestNearestFlatParity: the nearest-neighbor traversal under a map hands
// over the k smallest distances of a linear scan, in order, each with an id
// that lies at that distance.
func TestNearestFlatParity(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const dims = 4
	for _, n := range []int{0, 1, 7, 60, 400} {
		tree, pts := randFlatTree(t, rng, n, dims)
		for trial := 0; trial < 20; trial++ {
			fm := randFlatMap(rng, trial, dims)
			q := make([]float64, dims)
			for j := range q {
				q[j] = rng.NormFloat64() * 5
			}
			k := 1 + rng.Intn(10)

			// The kernel's own arithmetic, point by point.
			distOf := func(p geom.Point) float64 {
				var s float64
				for j := 0; j < dims; j++ {
					d := q[j] - (fm.C[j]*p[j] + fm.D[j])
					s += d * d
				}
				return s
			}
			all := make([]float64, len(pts))
			for i, p := range pts {
				all[i] = distOf(p)
			}
			sort.Float64s(all)

			var sc Scratch
			got := collectNear{limit: k}
			tree.NearestFlat(fm, &flatTestKernel{q: q}, &sc, &got)
			if len(got.ids) != min(k, n) {
				t.Fatalf("n=%d trial=%d: %d items, want %d", n, trial, len(got.ids), min(k, n))
			}
			seen := map[int64]bool{}
			for i, id := range got.ids {
				if got.dists[i] != all[i] || distOf(pts[id]) != all[i] || seen[id] {
					t.Fatalf("n=%d trial=%d item %d: (%d, %v), scan's distance %v, the point's %v",
						n, trial, i, id, got.dists[i], all[i], distOf(pts[id]))
				}
				seen[id] = true
			}
		}
	}
}
