package rtree

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// goldenShapes are SHA-256 digests of EncodeBinary, recorded at the commit
// before the node's per-entry rectangles were folded into its slab. The
// encoding is the tree node for node — levels, fan-outs, every bound, every
// id in entry order — so an equal digest says the same operations still
// build the same tree: ChooseSubtree, the R* split, forced reinsertion,
// condensation, the in-place Update and STR packing kept their arithmetic
// and their tie-breaks.
//
// The two bulk digests were re-recorded deliberately when STR packing began
// rounding its slab count down (⌊P^(1/d)⌋ slabs a dimension, not ⌈⌉): the
// 5,000 points now pack into 128 leaves of about 39 entries instead of 243
// of about 21. The trees here declare no coefficient dimensions, so all six
// are still tiled; the insert and churn digests did not move.
var goldenShapes = map[string]string{
	"bulk/reinsert":      "460824abb98f56744ed155254afd7675ff18383189b2e65f3de6243b4f835751", // re-recorded: slab count rounded down
	"bulk/split-only":    "ab7295ffa3b8fa7341f297e0abb1683123ea580a7bdb40c2ab0853e18616d551", // re-recorded: slab count rounded down
	"inserts/reinsert":   "eba78fab7935961554880607571062334f45fd3afd1bea56f38685158af556fd",
	"inserts/split-only": "f487ecb4b9ea7c436a8b4b42f221b81ee97d25b4da137f8b4a7bc242ff3611d4",
	"churn/reinsert":     "782f84e9f2517f9897b26d46b79b9184be1c8ce1eae31ffde3306643f3a4d83b",
	"churn/split-only":   "87bb39f1f062e38286e0b29ac7ee4336dbac537a02eada641a143c6b44f498ac",
}

func goldenPoint(r *rand.Rand) geom.Point {
	p := make(geom.Point, 6)
	for i := range p {
		p[i] = r.NormFloat64() * 10
	}
	return p
}

func TestTreeShapeGolden(t *testing.T) {
	const n, churn = 5000, 2000
	digest := func(tr *Tree) string {
		t.Helper()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.EncodeBinary(&buf, nil); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	check := func(name string, tr *Tree) {
		t.Helper()
		if got := digest(tr); got != goldenShapes[name] {
			t.Errorf("%s: tree encodes to %s, recorded %s", name, got, goldenShapes[name])
		}
	}
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"reinsert", Options{}},
		{"split-only", Options{DisableReinsert: true}},
	} {
		r := rand.New(rand.NewSource(20261002))
		pts := make([]geom.Point, n)
		items := make([]Item, n)
		for i := range pts {
			pts[i] = goldenPoint(r)
			items[i] = Item{Rect: geom.PointRect(pts[i]), ID: int64(i)}
		}
		bulk := MustNew(6, mode.opts)
		if err := bulk.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		check("bulk/"+mode.name, bulk)

		tr := MustNew(6, mode.opts)
		for i, p := range pts {
			if err := tr.Insert(geom.PointRect(p), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		check("inserts/"+mode.name, tr)

		live := make([]int64, n)
		for i := range live {
			live[i] = int64(i)
		}
		var inPlace, moved int
		for step := 0; step < churn; step++ {
			at := r.Intn(len(live))
			id := live[at]
			old := geom.PointRect(pts[id])
			switch step % 3 {
			case 0:
				if !tr.Delete(old, id) {
					t.Fatalf("step %d: id %d not found for delete", step, id)
				}
				live[at] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			case 1: // an append's drift: stays inside the leaf
				next := pts[id].Clone()
				for i := range next {
					next[i] += r.NormFloat64() * 0.01
				}
				pts[id] = next
			case 2: // a jump: leaves the leaf
				pts[id] = goldenPoint(r)
			}
			ip, found := tr.Update(old, geom.PointRect(pts[id]), id)
			if !found {
				t.Fatalf("step %d: id %d not found for update", step, id)
			}
			if ip {
				inPlace++
			} else {
				moved++
			}
		}
		if inPlace < churn/10 || moved < churn/10 {
			t.Fatalf("%s: %d in-place and %d moving updates: the churn must take both paths", mode.name, inPlace, moved)
		}
		check("churn/"+mode.name, tr)
	}
}
