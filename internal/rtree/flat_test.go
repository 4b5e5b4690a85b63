package rtree

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
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

// topNear is a bounded top-k visitor: it keeps the k nearest items it is
// handed, ascending, and its stop line is its current k-th best (+Inf while
// it holds fewer), so the walk hands it every item that could still enter.
// past counts the items handed over beyond that line, which the walk owes
// it never to do.
type topNear struct {
	k     int
	ids   []int64
	dists []float64
	past  int
}

func (c *topNear) NearBound() float64 {
	if len(c.dists) < c.k {
		return math.Inf(1)
	}
	return c.dists[c.k-1]
}

func (c *topNear) VisitNear(id int64, distSq float64) bool {
	if distSq > c.NearBound() {
		c.past++
	}
	if len(c.dists) == c.k {
		if distSq >= c.dists[c.k-1] {
			return true
		}
		c.ids, c.dists = c.ids[:c.k-1], c.dists[:c.k-1]
	}
	i := sort.Search(len(c.dists), func(i int) bool { return c.dists[i] > distSq })
	c.ids, c.dists = slices.Insert(c.ids, i, id), slices.Insert(c.dists, i, distSq)
	return true
}

// TestNearestFlatParity: the nearest-neighbor traversal under a map hands a
// top-k visitor the k smallest distances of a linear scan, each with an id
// that lies at that distance, and never an item past the visitor's bound as
// it stood when the item arrived.
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
			got := topNear{k: k}
			tree.NearestFlat(fm, &flatTestKernel{q: q}, &sc, &got)
			if len(got.ids) != min(k, n) || got.past != 0 {
				t.Fatalf("n=%d trial=%d: %d items, want %d; %d handed over past the visitor's bound", n, trial, len(got.ids), min(k, n), got.past)
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

// fixedNear records the items a nearest-neighbor walk hands it, in arrival
// order, under a fixed stop line, and ends the walk after stop of them (0:
// never).
type fixedNear struct {
	bound float64
	stop  int
	ids   []int64
	dists []float64
}

func (c *fixedNear) NearBound() float64 { return c.bound }

func (c *fixedNear) VisitNear(id int64, distSq float64) bool {
	c.ids, c.dists = append(c.ids, id), append(c.dists, distSq)
	return len(c.ids) != c.stop
}

// plainNear is a fixedNear without its NearBound method.
type plainNear struct{ f *fixedNear }

func (p plainNear) VisitNear(id int64, distSq float64) bool { return p.f.VisitNear(id, distSq) }

// treeNodes counts a tree's nodes and maps every stored id to its leaf.
func treeNodes(t *Tree) (int, map[int64]*node) {
	leafOf := map[int64]*node{}
	var walk func(n *node) int
	walk = func(n *node) int {
		c := 1
		for _, kid := range n.kids {
			c += walk(kid)
		}
		for _, id := range n.ids {
			leafOf[id] = n
		}
		return c
	}
	return walk(t.root), leafOf
}

// polarMapKernel is cartTestKernel under a stretch-and-shift map: a polar
// pair's magnitude scaled by C and its angle turned by D, which acts on a
// leaf's Cartesian image as one complex multiplication by act.
type polarMapKernel struct {
	cartTestKernel
	act []complex128
}

func (k *polarMapKernel) PointBatch(pts []float64, count, stride int, out []float64) {
	for e := 0; e < count; e++ {
		var s float64
		for j := 0; j < stride; j += 2 {
			z := complex(pts[e*stride+j], pts[e*stride+j+1]) * k.act[j/2]
			qr, qi := geom.PolarToRect(k.q[k.from+j], k.q[k.from+j+1])
			s += (real(z)-qr)*(real(z)-qr) + (imag(z)-qi)*(imag(z)-qi)
		}
		out[e] = s
	}
}

// TestNearestFlatVisitsWithinBound holds NearestFlat to its contract over
// random trees — plain points under flatTestKernel, and trees keeping
// Cartesian images of polar pairs (one pair; two linear dimensions and two
// pairs) — under the identity and a stretch-and-shift map, with a visitor
// whose bound is fixed (+Inf, below every item, or exactly some item's
// distance):
//
//   - every item within the bound reaches the visitor exactly once, at its
//     own distance to the bit, and none beyond it does;
//   - a leaf's items arrive together and ascending, and leaves arrive in
//     ascending lower bound;
//   - a visitor returning false ends the walk: it has seen a prefix of the
//     full walk's items;
//   - a visitor without NearBound sees every stored item.
func TestNearestFlatVisitsWithinBound(t *testing.T) {
	const seed = 20261015
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	type shape struct {
		dims, from int
		polar      bool
	}
	for _, sh := range []shape{{4, 0, false}, {2, 0, true}, {6, 2, true}} {
		for _, n := range []int{0, 1, 7, 60, 400} {
			tree := MustNew(sh.dims, Options{MaxEntries: 8})
			pts := make([]geom.Point, n)
			if sh.polar {
				tree.Coefficients(sh.from, true)
			}
			point := func() geom.Point {
				p := make(geom.Point, sh.dims)
				for j := range p {
					p[j] = rng.NormFloat64() * 3
				}
				for j := sh.from; sh.polar && j < sh.dims; j += 2 {
					p[j], p[j+1] = math.Abs(p[j]), geom.NormalizeAngle(rng.Float64()*100)
				}
				return p
			}
			for i := range pts {
				pts[i] = point()
				if err := tree.Insert(geom.PointRect(pts[i]), int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			_, leafOf := treeNodes(tree)
			for trial := 0; trial < 12; trial++ {
				label := fmt.Sprintf("dims %d polar %t n %d trial %d", sh.dims, sh.polar, n, trial)
				fm := FlatMap{C: make([]float64, sh.dims), D: make([]float64, sh.dims), Identity: trial%2 == 0}
				act := make([]complex128, (sh.dims-sh.from)/2)
				for j := range fm.C {
					fm.C[j] = 1
					switch {
					case fm.Identity:
					case !sh.polar || j < sh.from:
						fm.C[j], fm.D[j] = rng.NormFloat64(), rng.NormFloat64()
					case (j-sh.from)%2 == 0: // a magnitude: stretched
						fm.C[j] = 0.5 + 2*rng.Float64()
					default: // an angle: turned
						fm.D[j] = rng.NormFloat64()
					}
				}
				for i := range act {
					act[i] = cmplx.Rect(fm.C[sh.from+2*i], fm.D[sh.from+2*i+1])
				}
				q := point()
				var kern FlatNNKernel = &flatTestKernel{q: q}
				if sh.polar {
					kern = &cartTestKernel{q: q, from: sh.from}
					if !fm.Identity {
						kern = &polarMapKernel{cartTestKernel{q: q, from: sh.from}, act}
					}
				}
				// The kernel's arithmetic on each point and on each leaf's
				// bounds, as the traversal feeds it.
				one := make([]float64, 1)
				distOf := make([]float64, n)
				for i, p := range pts {
					if sh.polar {
						block := make([]float64, 0, sh.dims-sh.from)
						for j := sh.from; j < sh.dims; j += 2 {
							re, im := geom.PolarToRect(p[j], p[j+1])
							block = append(block, re, im)
						}
						kern.PointBatch(block, 1, len(block), one)
					} else {
						img := p
						if !fm.Identity {
							img = make([]float64, sh.dims)
							transformSlab(p, p, img, img, 1, sh.dims, fm.C, fm.D)
						}
						kern.PointBatch(img, 1, sh.dims, one)
					}
					distOf[i] = one[0]
				}
				lowerOf := func(leaf *node) float64 {
					r := tree.mbr(leaf)
					lo, hi := make([]float64, sh.dims), make([]float64, sh.dims)
					transformSlab(r.Lo, r.Hi, lo, hi, 1, sh.dims, fm.C, fm.D)
					kern.LowerBatch(lo, hi, 1, sh.dims, one)
					return one[0]
				}
				sorted := slices.Clone(distOf)
				sort.Float64s(sorted)
				bound := math.Inf(1)
				switch {
				case n > 0 && trial%3 == 1:
					bound = sorted[rng.Intn(n)]
				case trial%3 == 2:
					bound = -1
				}

				var sc Scratch
				full := fixedNear{bound: bound}
				tree.NearestFlat(fm, kern, &sc, &full)
				seen := map[int64]bool{}
				var last *node
				for i, id := range full.ids {
					if seen[id] || full.dists[i] != distOf[id] || full.dists[i] > bound {
						t.Fatalf("%s: item %d is (%d, %v): seen before %t, its distance %v, bound %v", label, i, id, full.dists[i], seen[id], distOf[id], bound)
					}
					seen[id] = true
					if leaf := leafOf[id]; leaf != last {
						if last != nil && lowerOf(leaf) < lowerOf(last) {
							t.Fatalf("%s: a leaf bounded at %v after one at %v", label, lowerOf(leaf), lowerOf(last))
						}
						for _, prev := range full.ids[:i] {
							if leafOf[prev] == leaf {
								t.Fatalf("%s: item %d reopens the leaf of item %d", label, id, prev)
							}
						}
						last = leaf
					} else if full.dists[i] < full.dists[i-1] {
						t.Fatalf("%s: a leaf hands over %v after %v", label, full.dists[i], full.dists[i-1])
					}
				}
				for id, d := range distOf {
					if d <= bound && !seen[int64(id)] {
						t.Fatalf("%s: id %d at %v, within the bound %v, never visited", label, id, d, bound)
					}
				}

				if m := len(full.ids); m > 0 {
					part := fixedNear{bound: bound, stop: 1 + rng.Intn(m)}
					tree.NearestFlat(fm, kern, &sc, &part)
					if !slices.Equal(part.ids, full.ids[:part.stop]) {
						t.Fatalf("%s: stopped after %d, the walk handed over %v; the full walk began %v", label, part.stop, part.ids, full.ids[:part.stop])
					}
				}
				plain := fixedNear{bound: bound}
				tree.NearestFlat(fm, kern, &sc, plainNear{&plain})
				slices.Sort(plain.ids)
				if len(plain.ids) != n || len(slices.Compact(plain.ids)) != n {
					t.Fatalf("%s: a visitor without NearBound saw %d items of %d", label, len(plain.ids), n)
				}
			}
		}
	}
}
