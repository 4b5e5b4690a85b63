package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func pointRect(x, y float64) geom.Rect {
	return geom.PointRect(geom.Point{x, y})
}

func TestUpdateInPlace(t *testing.T) {
	tr := MustNew(2, Options{})
	for i := 0; i < 10; i++ {
		if err := tr.Insert(pointRect(float64(i), float64(i)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A tiny nudge stays inside the (single) leaf's MBR.
	inPlace, found := tr.Update(pointRect(5, 5), pointRect(5.1, 5.1), 5)
	if !found || !inPlace {
		t.Fatalf("Update = (inPlace=%v, found=%v), want in-place hit", inPlace, found)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := findAt(tr, pointRect(5.1, 5.1)); len(got) != 1 || got[0] != 5 {
		t.Fatalf("moved item not found at new position: %v", got)
	}
	if got := findAt(tr, pointRect(5, 5)); len(got) != 0 {
		t.Fatalf("item still present at old position: %v", got)
	}
}

func TestUpdateNotFound(t *testing.T) {
	tr := MustNew(2, Options{})
	_ = tr.Insert(pointRect(1, 1), 1)
	if _, found := tr.Update(pointRect(2, 2), pointRect(3, 3), 1); found {
		t.Fatal("Update found an item under the wrong rectangle")
	}
	if _, found := tr.Update(pointRect(1, 1), pointRect(3, 3), 9); found {
		t.Fatal("Update found an item under the wrong ID")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after failed updates, want 1", tr.Len())
	}
}

// TestUpdateRandomized interleaves inserts and updates (small drifts and
// large jumps) and checks, after every batch, the structural invariants and
// that every live item is findable at exactly its current position.
func TestUpdateRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tr := MustNew(2, Options{MaxEntries: 8})
	const n = 400
	pos := make(map[int64]geom.Point, n)
	for i := int64(0); i < n; i++ {
		p := geom.Point{r.Float64() * 100, r.Float64() * 100}
		pos[i] = p
		if err := tr.Insert(geom.PointRect(p), i); err != nil {
			t.Fatal(err)
		}
	}
	var inPlace, moved int
	for round := 0; round < 5; round++ {
		for i := int64(0); i < n; i++ {
			old := pos[i]
			var next geom.Point
			if r.Intn(4) == 0 {
				// Long-range jump: should usually reinsert.
				next = geom.Point{r.Float64() * 100, r.Float64() * 100}
			} else {
				// Streaming-style drift.
				next = geom.Point{old[0] + r.Float64() - 0.5, old[1] + r.Float64() - 0.5}
			}
			ip, found := tr.Update(geom.PointRect(old), geom.PointRect(next), i)
			if !found {
				t.Fatalf("round %d: item %d not found at %v", round, i, old)
			}
			if ip {
				inPlace++
			} else {
				moved++
			}
			pos[i] = next
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if tr.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, tr.Len(), n)
		}
		for i := int64(0); i < n; i++ {
			ids := findAt(tr, geom.PointRect(pos[i]))
			ok := false
			for _, id := range ids {
				if id == i {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("round %d: item %d missing at %v", round, i, pos[i])
			}
		}
	}
	if inPlace == 0 || moved == 0 {
		t.Fatalf("both update paths should trigger: inPlace=%d moved=%d", inPlace, moved)
	}
}

// findAt returns the ids of the items intersecting r.
func findAt(tr *Tree, r geom.Rect) []int64 {
	ids, _ := searchIDs(tr, r, identity)
	return ids
}
