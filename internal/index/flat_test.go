package index

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/feature"
	"repro/internal/series"
	"repro/internal/transform"
)

// The batch index search must be bit-identical to the per-entry search:
// same candidate IDs in the same order, same traversal stats, same partial
// distances on the NN path — everywhere but under a transformation in
// S_pol, where the batch search reads leaf points from their Cartesian
// images (one complex multiplication) and the per-entry search maps the
// polar point and takes its sine and cosine. Those partial distances agree
// to rounding, pinned here at 1e-12 relative; order may differ only between
// items whose distances tie that closely.

// exactMap reports whether the batch search owes bit-identity under m.
func exactMap(sc feature.Schema, m transform.AffineMap) bool {
	if sc.Space == feature.Rect {
		return true
	}
	for i := range m.C {
		if m.C[i] != 1 || m.D[i] != 0 {
			return false
		}
	}
	return true // the identity, forced or not: multiplying by (1, 0) is exact
}

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
		for _, plain := range []bool{false, true} {
			ix.SetPlainOverlap(plain)
			for _, m := range flatParityMaps(t, sc, n) {
				var scr Scratch
				var ids []int64
				for trial := 0; trial < 10; trial++ {
					q, err := sc.Extract(data[rng.Intn(len(data))])
					if err != nil {
						t.Fatal(err)
					}
					eps := rng.Float64() * 8
					prune := trial%2 == 0
					want, wantSt := ix.Range(q, eps, m, feature.MomentBounds{}, prune)
					ids, _ = ids[:0], wantSt
					got, gotSt := ix.RangeIDs(q, eps, m, feature.MomentBounds{}, prune, &scr, ids)
					ids = got
					if gotSt != wantSt {
						t.Fatalf("stats %+v, want %+v", gotSt, wantSt)
					}
					if len(got) != len(want) {
						t.Fatalf("%d ids, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i].ID {
							t.Fatalf("id[%d] = %d, want %d", i, got[i], want[i].ID)
						}
					}
				}
			}
		}
		ix.SetPlainOverlap(false)
	}
}

type nearRecorder struct {
	ids   []int64
	dists []float64
	limit int
}

func (r *nearRecorder) VisitNear(id int64, distSq float64) bool {
	r.ids = append(r.ids, id)
	r.dists = append(r.dists, distSq)
	return len(r.ids) < r.limit
}

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
		for _, m := range flatParityMaps(t, sc, n) {
			var scr Scratch
			for trial := 0; trial < 10; trial++ {
				q, err := sc.Extract(series.NormalForm(data[rng.Intn(len(data))]))
				if err != nil {
					t.Fatal(err)
				}
				k := 1 + rng.Intn(20)
				var wantIDs []int64
				var wantDists []float64
				ix.NearestFunc(q, m, func(c Candidate) bool {
					wantIDs = append(wantIDs, c.ID)
					wantDists = append(wantDists, c.PartialDistSq)
					return len(wantIDs) < k
				})
				rec := nearRecorder{limit: k}
				ix.NearestIDs(q, m, &scr, &rec)
				if len(rec.ids) != len(wantIDs) {
					t.Fatalf("%d items, want %d", len(rec.ids), len(wantIDs))
				}
				exact := exactMap(sc, m)
				near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(a, b) }
				for i := range wantIDs {
					switch {
					case exact && (rec.ids[i] != wantIDs[i] || rec.dists[i] != wantDists[i]),
						!near(rec.dists[i], wantDists[i]):
						t.Fatalf("item %d: (%d, %v), want (%d, %v)",
							i, rec.ids[i], rec.dists[i], wantIDs[i], wantDists[i])
					case rec.ids[i] != wantIDs[i]:
						// Allowed only as a swap inside a run of tied distances.
						tied := (i > 0 && near(wantDists[i-1], wantDists[i])) ||
							(i+1 < len(wantDists) && near(wantDists[i], wantDists[i+1])) ||
							i+1 == len(wantDists) // the tie partner fell past the cut
						if !tied {
							t.Fatalf("item %d: id %d, want %d, with no tie at distance %v", i, rec.ids[i], wantIDs[i], wantDists[i])
						}
					}
				}
			}
		}
	}
}
