package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// Batch traversals must visit the same entries, in the same order, with the
// same stats, and hand the same transformed coordinates to the visitor as
// the per-entry traversals they replace.

func randFlatTree(t *testing.T, rng *rand.Rand, n, dims int) *Tree {
	tree, err := New(dims, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < n; i++ {
		p := make(geom.Point, dims)
		for j := range p {
			p[j] = rng.NormFloat64() * 5
		}
		if err := tree.Insert(geom.Rect{Lo: p, Hi: p.Clone()}, int64(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	return tree
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

func TestFlatRangeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const dims = 4
	for _, n := range []int{0, 1, 7, 60, 400} {
		tree := randFlatTree(t, rng, n, dims)
		for trial := 0; trial < 20; trial++ {
			C := make([]float64, dims)
			D := make([]float64, dims)
			identity := trial%4 == 0
			for j := range C {
				if identity {
					C[j] = 1
				} else {
					C[j] = rng.NormFloat64() // negative stretches flip corners
					D[j] = rng.NormFloat64()
				}
			}
			q := make(geom.Point, dims)
			for j := range q {
				q[j] = rng.NormFloat64() * 5
			}
			eps := rng.Float64() * 4
			qlo := make([]float64, dims)
			qhi := make([]float64, dims)
			for j := range q {
				qlo[j], qhi[j] = q[j]-eps, q[j]+eps
			}
			qr := geom.Rect{Lo: qlo, Hi: qhi}

			apply := func(r geom.Rect) geom.Rect {
				lo := make(geom.Point, dims)
				hi := make(geom.Point, dims)
				for j := 0; j < dims; j++ {
					a, b := C[j]*r.Lo[j]+D[j], C[j]*r.Hi[j]+D[j]
					if a > b {
						a, b = b, a
					}
					lo[j], hi[j] = a, b
				}
				return geom.Rect{Lo: lo, Hi: hi}
			}
			var wantIDs []int64
			var wantLos [][]float64
			wantSt := tree.TransformedSearch(qr, apply, nil, func(it Item, tr geom.Rect) bool {
				wantIDs = append(wantIDs, it.ID)
				wantLos = append(wantLos, append([]float64(nil), tr.Lo...))
				return true
			})

			var got collectFlat
			var sc Scratch
			gotSt := tree.FlatRange(qlo, qhi, FlatMap{C: C, D: D, Identity: identity}, &sc, &got)

			if gotSt != wantSt {
				t.Fatalf("n=%d trial=%d: stats %+v, want %+v", n, trial, gotSt, wantSt)
			}
			if len(got.ids) != len(wantIDs) {
				t.Fatalf("n=%d trial=%d: %d hits, want %d", n, trial, len(got.ids), len(wantIDs))
			}
			for i := range wantIDs {
				if got.ids[i] != wantIDs[i] {
					t.Fatalf("n=%d trial=%d hit %d: id %d, want %d", n, trial, i, got.ids[i], wantIDs[i])
				}
				for j := 0; j < dims; j++ {
					if got.los[i][j] != wantLos[i][j] {
						t.Fatalf("n=%d trial=%d hit %d dim %d: tlo %v, want %v",
							n, trial, i, j, got.los[i][j], wantLos[i][j])
					}
				}
			}
		}
	}
}

// flatTestKernel bounds distances against transformed slabs with plain
// MINDIST / Euclidean arithmetic, written to match the reference closures
// in TestNearestFlatParity operation for operation.
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

func TestNearestFlatParity(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const dims = 4
	for _, n := range []int{0, 1, 7, 60, 400} {
		tree := randFlatTree(t, rng, n, dims)
		for trial := 0; trial < 20; trial++ {
			C := make([]float64, dims)
			D := make([]float64, dims)
			identity := trial%4 == 0
			for j := range C {
				if identity {
					C[j] = 1
				} else {
					C[j] = rng.NormFloat64()
					D[j] = rng.NormFloat64()
				}
			}
			q := make([]float64, dims)
			for j := range q {
				q[j] = rng.NormFloat64() * 5
			}
			k := 1 + rng.Intn(10)

			lower := func(r geom.Rect) float64 {
				var s float64
				for j := 0; j < dims; j++ {
					a, b := C[j]*r.Lo[j]+D[j], C[j]*r.Hi[j]+D[j]
					if a > b {
						a, b = b, a
					}
					switch {
					case q[j] < a:
						d := a - q[j]
						s += d * d
					case q[j] > b:
						d := q[j] - b
						s += d * d
					}
				}
				return s
			}
			itemDist := func(it Item) float64 {
				var s float64
				for j := 0; j < dims; j++ {
					d := q[j] - (C[j]*it.Rect.Lo[j] + D[j])
					s += d * d
				}
				return s
			}
			var wantIDs []int64
			var wantDists []float64
			tree.NearestScan(lower, itemDist, func(it Item, dist float64) bool {
				wantIDs = append(wantIDs, it.ID)
				wantDists = append(wantDists, dist)
				return len(wantIDs) < k
			})

			var sc Scratch
			got := collectNear{limit: k}
			tree.NearestFlat(FlatMap{C: C, D: D, Identity: identity}, &flatTestKernel{q: q}, &sc, &got)

			if len(got.ids) != len(wantIDs) {
				t.Fatalf("n=%d trial=%d: %d items, want %d", n, trial, len(got.ids), len(wantIDs))
			}
			for i := range wantIDs {
				if got.ids[i] != wantIDs[i] || got.dists[i] != wantDists[i] {
					t.Fatalf("n=%d trial=%d item %d: (%d, %v), want (%d, %v)",
						n, trial, i, got.ids[i], got.dists[i], wantIDs[i], wantDists[i])
				}
			}
		}
	}
}
