package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/series"
	"repro/internal/transform"
)

// The index search against a linear scan of the feature points: the exact
// candidate set of the filter, and the exact k nearest of the
// nearest-neighbor walk, under the identity, a transformation safe in the
// schema's space, and the identity forced down the transformation path.

func flatParityMaps(t *testing.T, sc feature.Schema, n int) []transform.AffineMap {
	t.Helper()
	identity := transform.IdentityMap(sc.Dims(), sc.Angular())
	// A transformation safe in the schema's space: the moving average's
	// stretch vector is complex (S_pol only); scale-and-shift is S_rect-safe.
	tr := transform.MovingAverage(n, 8)
	if sc.Space == feature.Rect {
		tr = transform.Scale(n, 1.7)
	}
	mavg, err := sc.Map(tr)
	if err != nil {
		t.Fatalf("map %s: %v", tr, err)
	}
	forced := identity
	forced.Force = true
	return []transform.AffineMap{identity, mavg, forced}
}

// TestRangeIDsParity: RangeIDs returns exactly the points whose mapped
// image lies in the search rectangle — angles compared around the circle,
// or as plain intervals under SetPlainOverlap — and, when pruning, whose
// partial distance is within eps; and the forced identity costs the plain
// search's node accesses (Figure 8/9's premise).
func TestRangeIDsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	n := 64
	data := make([][]float64, 400)
	for i := range data {
		data[i] = randomWalk(rng, n)
	}
	for _, sc := range []feature.Schema{
		{Space: feature.Polar, K: 2, Moments: true},
		{Space: feature.Rect, K: 2, Moments: true},
	} {
		ix := buildIndex(t, sc, data)
		points := make([]geom.Point, len(data))
		for i, s := range data {
			points[i], _ = sc.Extract(s)
		}
		for _, plain := range []bool{false, true} {
			ix.SetPlainOverlap(plain)
			for mi, m := range flatParityMaps(t, sc, n) {
				var scr Scratch
				var ids []int64
				for trial := 0; trial < 10; trial++ {
					q, err := sc.Extract(data[rng.Intn(len(data))])
					if err != nil {
						t.Fatal(err)
					}
					eps := rng.Float64() * 8
					prune := trial%2 == 0
					got, st := ix.RangeIDs(q, eps, m, feature.MomentBounds{}, prune, &scr, ids[:0])
					ids = got
					in := map[int64]bool{}
					for _, id := range got {
						in[id] = true
					}
					if len(in) != len(got) {
						t.Fatalf("%v map %d: an id came back twice", sc, mi)
					}
					rect := sc.SearchRect(q, eps, feature.MomentBounds{})
					angular := sc.Angular()
					if plain {
						angular = nil
					}
					for i, p := range points {
						tp := p
						if !m.Identity() {
							// No renormalization: the traversal compares the
							// shifted angle as it stands.
							tp = m.ApplyRect(geom.PointRect(p)).Lo
						}
						partial := coeffDistSq(sc, tp, q)
						if prune && math.Abs(partial-eps*eps) < 1e-9*eps*eps {
							continue // on the prune line, to rounding
						}
						want := geom.ContainsPointMixed(rect, tp, angular) && (!prune || partial <= eps*eps)
						if want != in[int64(i)] {
							t.Fatalf("%v plain=%t map %d eps=%v prune=%t: id %d returned %t, the scan says %t", sc, plain, mi, eps, prune, i, in[int64(i)], want)
						}
					}
					if m.Force {
						same, plainSt := rangeIDs(ix, q, eps, transform.IdentityMap(sc.Dims(), sc.Angular()), feature.MomentBounds{}, prune)
						if plainSt != st || fmt.Sprint(same) != fmt.Sprint(got) {
							t.Fatalf("%v: the forced identity found %v (%+v), the plain search %v (%+v)", sc, got, st, same, plainSt)
						}
					}
				}
			}
		}
		ix.SetPlainOverlap(false)
	}
}

// topNear is a bounded top-k visitor: it keeps the k nearest items it is
// handed, ascending, and its stop line is its current k-th best (+Inf while
// it holds fewer), so the walk hands it every item that could still enter.
type topNear struct {
	k     int
	ids   []int64
	dists []float64
}

func (c *topNear) NearBound() float64 {
	if len(c.dists) < c.k {
		return math.Inf(1)
	}
	return c.dists[c.k-1]
}

func (c *topNear) VisitNear(id int64, distSq float64) bool {
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

// TestNearestIDsParity: NearestIDs hands a top-k visitor the k smallest
// partial distances of the scan — exactly where the traversal and the scan
// do the same arithmetic (S_rect, and the identity anywhere), and to 1e-12
// under a transformation in S_pol, where the traversal multiplies a leaf
// point's Cartesian image by the map's action and the scan maps the polar
// point and takes its sine and cosine.
func TestNearestIDsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	n := 64
	data := make([][]float64, 400)
	for i := range data {
		data[i] = randomWalk(rng, n)
	}
	for _, sc := range []feature.Schema{
		{Space: feature.Polar, K: 2, Moments: true},
		{Space: feature.Rect, K: 2, Moments: true},
	} {
		ix := buildIndex(t, sc, data)
		points := make([]geom.Point, len(data))
		for i, s := range data {
			points[i], _ = sc.Extract(s)
		}
		for _, m := range flatParityMaps(t, sc, n) {
			exact := sc.Space == feature.Rect || m.Identity() || m.Force
			for trial := 0; trial < 10; trial++ {
				q, err := sc.Extract(series.NormalForm(data[rng.Intn(len(data))]))
				if err != nil {
					t.Fatal(err)
				}
				k := 1 + rng.Intn(20)
				partial := func(id int64) float64 {
					if m.Identity() || m.Force {
						return coeffDistSq(sc, points[id], q)
					}
					return coeffDistSq(sc, m.ApplyPoint(points[id]), q)
				}
				all := make([]float64, len(points))
				for i := range points {
					all[i] = partial(int64(i))
				}
				sort.Float64s(all)
				ids, dists := nearestK(ix, q, m, k)
				if len(ids) != k {
					t.Fatalf("%d items, want %d", len(ids), k)
				}
				seen := map[int64]bool{}
				for i, id := range ids {
					tol := 0.0
					if !exact {
						tol = 1e-12 * (1 + all[i])
					}
					if math.Abs(dists[i]-all[i]) > tol || math.Abs(partial(id)-dists[i]) > tol || seen[id] {
						t.Fatalf("%v item %d: (%d, %v); the scan's distance is %v, the point's %v", sc, i, id, dists[i], all[i], partial(id))
					}
					seen[id] = true
				}
			}
		}
	}
}
