package index

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/series"
	"repro/internal/transform"
)

// allNear records every item of a nearest-neighbor traversal.
type allNear struct{ dists map[int64]float64 }

func (r *allNear) VisitNear(id int64, distSq float64) bool {
	r.dists[id] = distSq
	return true
}

// TestCartesianBlockDistances is the property the Cartesian leaf blocks
// must keep. The partial distance the batch traversal computes for a leaf
// point — from the point's Cartesian image, with the transformation applied
// as one complex multiplication — is, for every stored point, random query
// and safe polar transformation (identity, moving averages, reversal,
// scalings of either sign, chains of them; one-sided and BOTH):
//
//   - the complex-plane distance of the transformed point's coefficients
//     (coeffDistSq), bit for bit under the identity and to 1e-12 of the
//     magnitudes involved otherwise (there it
//     is the same complex number reached by two routes a few roundings
//     long: scale the magnitude, shift the angle, take sine and cosine —
//     or multiply);
//   - never above the full squared distance of the transformed normal
//     forms in the time domain by more than that: Lemma 1's inequality,
//     which is what makes pruning on it free of false dismissals.
//
// The seed is logged for replay.
func TestCartesianBlockDistances(t *testing.T) {
	const seed, n, count = 20260927, 64, 240
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, count)
	for i := range data {
		data[i] = randomWalk(rng, n)
	}
	chain := func(ts ...transform.T) transform.T {
		out := ts[0]
		for _, u := range ts[1:] {
			var err error
			if out, err = out.Compose(u); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	for _, sc := range []feature.Schema{
		{Space: feature.Polar, K: 2, Moments: true},
		{Space: feature.Polar, K: 3, Moments: false},
	} {
		ix := buildIndex(t, sc, data)
		points := make([]geom.Point, count)
		for i, s := range data {
			points[i], _ = sc.Extract(s)
		}
		for trial := 0; trial < 40; trial++ {
			mavg := transform.MovingAverage(n, 2+rng.Intn(18))
			scale := transform.Scale(n, (0.2+3*rng.Float64())*float64(1-2*rng.Intn(2)))
			tr := []transform.T{
				transform.Identity(n), mavg, transform.Reverse(n), scale,
				chain(transform.Reverse(n), mavg), chain(mavg, scale), chain(mavg, mavg, transform.Reverse(n)),
			}[trial%7]
			both := trial%2 == 1
			m, err := sc.Map(tr)
			if err != nil {
				t.Fatalf("%s: %v", tr, err)
			}
			q := append([]float64(nil), data[rng.Intn(count)]...)
			for i := range q {
				q[i] += rng.NormFloat64()
			}
			qp, _ := sc.Extract(q)
			qn := series.NormalForm(q)
			if both {
				qn = tr.ApplyTime(qn)
				if !m.Identity() {
					qp = m.ApplyPoint(qp)
				}
			}
			var scr Scratch
			got := allNear{dists: map[int64]float64{}}
			ix.NearestIDs(qp, m, &scr, &got)
			if len(got.dists) != count {
				t.Fatalf("%v %s: traversal visited %d of %d items", sc, tr, len(got.dists), count)
			}
			for id, d := range got.dists {
				tp := points[id]
				if !m.Identity() {
					tp = m.ApplyPoint(tp)
				}
				want := coeffDistSq(sc, tp, qp)
				var mag float64
				for _, c := range append(sc.Coeffs(tp), sc.Coeffs(qp)...) {
					mag += real(c)*real(c) + imag(c)*imag(c)
				}
				if m.Identity() && d != want {
					t.Fatalf("%v identity both=%t id %d: block distance %v, from the point %v", sc, both, id, d, want)
				}
				if math.Abs(d-want) > 1e-12*mag {
					t.Fatalf("%v %s both=%t id %d: block distance %v, from the mapped point %v (magnitudes %v)", sc, tr, both, id, d, want, mag)
				}
				full := series.EuclideanDistance(tr.ApplyTime(series.NormalForm(data[id])), qn)
				if full *= full; d > full+1e-12*(mag+full) {
					t.Fatalf("%v %s both=%t id %d: partial distance %v exceeds the full distance %v: a false dismissal", sc, tr, both, id, d, full)
				}
			}
		}
	}
}

// TestCartesianBlockFollowsTheIndex checks the blocks through the index's
// own write paths — single inserts, in-place and relocating updates,
// deletes, a bulk load, and the adoption of a decoded tree — by comparing
// the traversal's partial distances (read from the blocks) with the
// distances computed from an oracle's copy of the stored points, under the
// identity, where the two owe each other bit-identity.
func TestCartesianBlockFollowsTheIndex(t *testing.T) {
	const seed, n, count = 20260928, 64, 300
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	sc := feature.Schema{Space: feature.Polar, K: 2, Moments: true}
	data := make([][]float64, count)
	points := make(map[int64]geom.Point, count)
	for i := range data {
		data[i] = randomWalk(rng, n)
		points[int64(i)], _ = sc.Extract(data[i])
	}
	identity := transform.IdentityMap(sc.Dims(), sc.Angular())
	check := func(label string, ix *KIndex) {
		t.Helper()
		if err := ix.Tree().CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		q, _ := sc.Extract(randomWalk(rng, n))
		var scr Scratch
		got := allNear{dists: map[int64]float64{}}
		ix.NearestIDs(q, identity, &scr, &got)
		if len(got.dists) != len(points) {
			t.Fatalf("%s: the traversal visited %d of %d items", label, len(got.dists), len(points))
		}
		for id, d := range got.dists {
			if p, ok := points[id]; !ok || d != coeffDistSq(sc, p, q) {
				t.Fatalf("%s: id %d: block distance %v, from the point %v", label, id, d, coeffDistSq(sc, p, q))
			}
		}
	}

	ix := buildIndex(t, sc, data) // M = 8: the inserts split leaves
	check("inserted", ix)
	for step := 0; step < 400; step++ {
		id := int64(rng.Intn(count))
		old, ok := points[id]
		switch {
		case !ok:
			p, _ := sc.Extract(randomWalk(rng, n))
			if err := ix.Insert(id, p); err != nil {
				t.Fatal(err)
			}
			points[id] = p
		case step%4 == 3:
			if !ix.Delete(id, old) {
				t.Fatalf("step %d: id %d not found for delete", step, id)
			}
			delete(points, id)
		default:
			// An append's drift: usually inside the leaf, sometimes not.
			p := old.Clone()
			p[sc.Skip()] *= 1 + 0.02*rng.NormFloat64()
			p[sc.Skip()+1] = geom.NormalizeAngle(p[sc.Skip()+1] + 0.02*rng.NormFloat64())
			if _, found := ix.Update(id, old, p); !found {
				t.Fatalf("step %d: id %d not found for update", step, id)
			}
			points[id] = p
		}
		if step%40 == 39 {
			check("churned", ix)
		}
	}

	ids := make([]int64, 0, len(points))
	pts := make([]geom.Point, 0, len(points))
	for id, p := range points {
		ids, pts = append(ids, id), append(pts, p)
	}
	bulk, err := New(sc, rtree.Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(pts, ids); err != nil {
		t.Fatal(err)
	}
	check("bulk-loaded", bulk)

	var buf bytes.Buffer
	if err := ix.EncodeTree(&buf, nil); err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := Adopt(sc, tree)
	if err != nil {
		t.Fatal(err)
	}
	check("adopted", adopted)
}
