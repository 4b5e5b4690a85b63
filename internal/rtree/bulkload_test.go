package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// momentPoints returns n points of the k-index's layout: a mean and a std,
// then two (magnitude, angle) coefficient pairs.
func momentPoints(r *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			r.NormFloat64() * 50, math.Abs(r.NormFloat64()) * 10,
			math.Abs(r.NormFloat64()) * 4, geom.NormalizeAngle(r.Float64() * 7),
			math.Abs(r.NormFloat64()) * 2, geom.NormalizeAngle(r.Float64() * 7),
		}
	}
	return pts
}

// bulkTree bulk-loads pts (ids their positions) into a six-dimensional tree,
// declaring dimensions 2.. its polar coefficients when declare is set.
func bulkTree(t *testing.T, pts []geom.Point, declare bool) *Tree {
	t.Helper()
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{Rect: geom.PointRect(p), ID: int64(i)}
	}
	tr := MustNew(6, Options{})
	if declare {
		tr.Coefficients(2, true)
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// leafIDs lists every leaf's ids, leaves and entries in tree order.
func leafIDs(tr *Tree) [][]int64 {
	var out [][]int64
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() {
			out = append(out, append([]int64(nil), n.ids...))
			return
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	walk(tr.root)
	return out
}

// TestBulkLoadTilesTheCoefficientDims: a tree told where its coefficient
// dimensions start packs without looking at the ones before them. Dealing
// the (mean, std) prefixes out to the points in a different order leaves it
// with the same ids in the same leaves in the same order; a tree told
// nothing tiles the prefix too, and the same shuffle rearranges its leaves.
func TestBulkLoadTilesTheCoefficientDims(t *testing.T) {
	const seed, n = 20261015, 5000
	t.Logf("seed %d", seed)
	r := rand.New(rand.NewSource(seed))
	pts := momentPoints(r, n)
	shuffled := make([]geom.Point, n)
	perm := r.Perm(n)
	for i, p := range pts {
		q := p.Clone()
		q[0], q[1] = pts[perm[i]][0], pts[perm[i]][1]
		shuffled[i] = q
	}
	for _, declare := range []bool{true, false} {
		a, b := fmt.Sprint(leafIDs(bulkTree(t, pts, declare))), fmt.Sprint(leafIDs(bulkTree(t, shuffled, declare)))
		if declare && a != b {
			t.Fatal("with the coefficient dimensions declared, shuffling the prefix moved ids between or within leaves")
		}
		if !declare && a == b {
			t.Fatal("with no declaration, shuffling the prefix left every leaf as it was: the prefix was not tiled")
		}
	}
}

// TestBulkLoadFillsItsNodes: STR rounds its slab count down, so a bulk load
// packs its leaves nearly full — at the sizes of one stream shard, the
// golden tree and a benchmark store, tiling the four coefficient dimensions
// of a declared tree or all six of an undeclared one. Rounding up, the
// six-dimensional 5,000-point tree had leaves about half full (0.52).
func TestBulkLoadFillsItsNodes(t *testing.T) {
	const seed = 20261016
	t.Logf("seed %d", seed)
	r := rand.New(rand.NewSource(seed))
	for _, n := range []int{1250, 5000, 20000} {
		pts := momentPoints(r, n)
		for _, declare := range []bool{true, false} {
			tr := bulkTree(t, pts, declare)
			tiled := tr.Dims() - tr.coeffFrom
			fill := tr.levelFill()
			t.Logf("n %d, %d tiled dims: fill per level %.3f", n, tiled, fill)
			if fill[0] < 0.9 {
				t.Errorf("n %d, %d tiled dims: mean leaf fill %.3f, want >= 0.9", n, tiled, fill[0])
			}
		}
	}
}
