package rtree

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// leafCollector records, per emitted id, the point and the Cartesian block
// entry the range traversal handed over.
type leafCollector struct {
	pts, carts map[int64][]float64
}

func (c *leafCollector) VisitFlat(id int64, tlo, thi, cart []float64) bool {
	c.pts[id] = append([]float64(nil), tlo...)
	c.carts[id] = append([]float64(nil), cart...)
	return true
}

// TestChurnAgainstLinearScan drives one tree through every write it has —
// insert, in-place update, moving update, delete, and a round trip through
// EncodeBinary/DecodeBinary after which the churn goes on in the decoded
// tree — and after every single step holds it to CheckInvariants and to a
// linear scan of an oracle map: All() lists exactly the oracle's items, a
// random range query and a random top-k nearest-neighbor query answer as the
// scan does, and every leaf point reaches the visitor with its own Cartesian
// image. The tree keeps Cartesian images throughout, and M = 8 makes splits,
// forced reinsertions and condensations common. The seed is logged for
// replay.
func TestChurnAgainstLinearScan(t *testing.T) {
	for _, dims := range []int{2, 6} {
		seed := int64(20261002 + dims)
		t.Logf("dims %d: seed %d", dims, seed)
		rng := rand.New(rand.NewSource(seed))
		from := 0 // one polar pair; six dimensions: two linear ones, then two pairs
		if dims == 6 {
			from = 2
		}
		tree := MustNew(dims, Options{MaxEntries: 8})
		tree.Coefficients(from, true)
		point := func() geom.Point {
			p := make(geom.Point, dims)
			for j := range p {
				p[j] = rng.NormFloat64() * 3
			}
			for j := from; j < dims; j += 2 {
				p[j], p[j+1] = math.Abs(p[j]), geom.NormalizeAngle(rng.Float64()*100)
			}
			return p
		}
		want := map[int64]geom.Point{}
		var ids []int64
		next := int64(0)
		counts := map[string]int{}

		check := func(step int) {
			t.Helper()
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("dims %d step %d: %v", dims, step, err)
			}
			if tree.Len() != len(want) {
				t.Fatalf("dims %d step %d: Len %d, oracle %d", dims, step, tree.Len(), len(want))
			}
			listed := 0
			tree.All(func(it Item) bool {
				listed++
				if p, ok := want[it.ID]; !ok || !p.Equal(it.Rect.Lo) || !p.Equal(it.Rect.Hi) {
					t.Fatalf("dims %d step %d: All lists id %d at %v, oracle has %v", dims, step, it.ID, it.Rect, p)
				}
				return true
			})
			if listed != len(want) {
				t.Fatalf("dims %d step %d: All lists %d items, oracle %d", dims, step, listed, len(want))
			}

			// Range: a box around a random point, wide enough to hit.
			c, eps := point(), 0.5+rng.Float64()*2
			qlo, qhi := make([]float64, dims), make([]float64, dims)
			for j := range c {
				qlo[j], qhi[j] = c[j]-eps, c[j]+eps
			}
			var sc Scratch
			got := leafCollector{pts: map[int64][]float64{}, carts: map[int64][]float64{}}
			tree.FlatRange(qlo, qhi, identity, &sc, &got)
			for id, p := range want {
				_, hit := got.pts[id]
				if in := geom.PointRect(p).Intersects(geom.Rect{Lo: qlo, Hi: qhi}); in != hit {
					t.Fatalf("dims %d step %d: id %d at %v: in the box %t, emitted %t", dims, step, id, p, in, hit)
				}
				if !hit {
					continue
				}
				if !p.Equal(got.pts[id]) {
					t.Fatalf("dims %d step %d: id %d emitted at %v, oracle has %v", dims, step, id, got.pts[id], p)
				}
				for j := from; j < dims; j += 2 {
					re, im := geom.PolarToRect(p[j], p[j+1])
					if block := got.carts[id]; block[j-from] != re || block[j-from+1] != im {
						t.Fatalf("dims %d step %d: id %d pair %d: block (%v, %v), image (%v, %v)", dims, step, id, (j-from)/2, block[j-from], block[j-from+1], re, im)
					}
				}
			}
			if len(got.pts) > len(want) {
				t.Fatalf("dims %d step %d: %d ids emitted, %d stored", dims, step, len(got.pts), len(want))
			}

			// Nearest: a top-k visitor keeps the k smallest distances of the
			// scan. The kernel reads what the leaves hand it — their
			// Cartesian blocks.
			k := 1 + rng.Intn(12)
			kern := &cartTestKernel{q: c, from: from}
			all := make([]float64, 0, len(want))
			for _, p := range want {
				all = append(all, kern.dist(p))
			}
			sort.Float64s(all)
			near := topNear{k: k}
			tree.NearestFlat(identity, kern, &sc, &near)
			if len(near.ids) != min(k, len(want)) {
				t.Fatalf("dims %d step %d: %d nearest items, want %d", dims, step, len(near.ids), min(k, len(want)))
			}
			for i, id := range near.ids {
				if near.dists[i] != all[i] || kern.dist(want[id]) != all[i] {
					t.Fatalf("dims %d step %d: nearest item %d is (%d, %v); the scan's distance is %v, the point's %v",
						dims, step, i, id, near.dists[i], all[i], kern.dist(want[id]))
				}
			}
		}

		for step := 0; step < 1200; step++ {
			switch k := rng.Intn(20); {
			case k < 7 || len(ids) < 20:
				p := point()
				if err := tree.Insert(geom.PointRect(p), next); err != nil {
					t.Fatal(err)
				}
				want[next], ids = p, append(ids, next)
				next++
				counts["insert"]++
			case k < 14:
				id := ids[rng.Intn(len(ids))]
				p := want[id].Clone()
				if rng.Intn(3) == 0 {
					p = point() // a jump: out of the leaf, delete + reinsert
				} else {
					for j := range p {
						p[j] += rng.NormFloat64() * 0.01
					}
					for j := from; j < dims; j += 2 {
						p[j] = math.Abs(p[j])
					}
				}
				in, found := tree.Update(geom.PointRect(want[id]), geom.PointRect(p), id)
				if !found {
					t.Fatalf("dims %d step %d: id %d not found for update", dims, step, id)
				}
				if in {
					counts["in-place"]++
				} else {
					counts["moved"]++
				}
				want[id] = p
			case k < 19:
				i := rng.Intn(len(ids))
				id := ids[i]
				if !tree.Delete(geom.PointRect(want[id]), id) {
					t.Fatalf("dims %d step %d: id %d not found for delete", dims, step, id)
				}
				delete(want, id)
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				counts["delete"]++
			default:
				var buf bytes.Buffer
				if err := tree.EncodeBinary(&buf, nil); err != nil {
					t.Fatal(err)
				}
				decoded, err := DecodeBinary(&buf)
				if err != nil {
					t.Fatalf("dims %d step %d: %v", dims, step, err)
				}
				decoded.Coefficients(from, true)
				tree = decoded
				counts["reload"]++
			}
			check(step)
		}
		for _, op := range []string{"insert", "in-place", "moved", "delete", "reload"} {
			if counts[op] < 20 {
				t.Fatalf("dims %d: the churn ran %q %d times: %v", dims, op, counts[op], counts)
			}
		}
		if tree.Height() < 3 {
			t.Fatalf("dims %d: height %d: the churn never grew a tree worth the name", dims, tree.Height())
		}
	}
}

// cartTestKernel is the geometry of a nearest-neighbor traversal over a tree
// keeping Cartesian images, from first principles: a leaf point's distance
// is the complex-plane distance of its polar pairs' images, read from the
// leaf's block; a rectangle's bound is how far the query's magnitudes lie
// from its magnitude intervals (| |a| - |b| | <= |a - b|), shaved by a
// rounding's worth so it stays a bound in floating point.
type cartTestKernel struct {
	q    geom.Point
	from int
}

func (k *cartTestKernel) dist(p geom.Point) float64 {
	var s float64
	for j := k.from; j < len(p); j += 2 {
		pr, pi := geom.PolarToRect(p[j], p[j+1])
		qr, qi := geom.PolarToRect(k.q[j], k.q[j+1])
		s += (pr-qr)*(pr-qr) + (pi-qi)*(pi-qi)
	}
	return s
}

func (k *cartTestKernel) LowerBatch(lo, hi []float64, count, dims int, out []float64) {
	for e := 0; e < count; e++ {
		var s float64
		for j := k.from; j < dims; j += 2 {
			if m := k.q[j]; m < lo[e*dims+j] {
				s += (lo[e*dims+j] - m) * (lo[e*dims+j] - m)
			} else if m > hi[e*dims+j] {
				s += (m - hi[e*dims+j]) * (m - hi[e*dims+j])
			}
		}
		out[e] = s * (1 - 1e-9)
	}
}

func (k *cartTestKernel) PointBatch(pts []float64, count, stride int, out []float64) {
	for e := 0; e < count; e++ {
		var s float64
		for j := 0; j < stride; j += 2 {
			qr, qi := geom.PolarToRect(k.q[k.from+j], k.q[k.from+j+1])
			dr, di := pts[e*stride+j]-qr, pts[e*stride+j+1]-qi
			s += dr*dr + di*di
		}
		out[e] = s
	}
}
