package relation

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// TestHeadFollowsPages is the slab's coherence property: after any
// sequence of inserts (encoded, raw and owned) and replacements (same
// size, in place; different size, repointed), every record's resident head
// is the first min(HeadCoeffs, n) coefficients of its pages, bit for bit —
// on memory and disk relations alike. Records shorter than the head
// (n = 1..15 coefficients) keep all of themselves resident.
func TestHeadFollowsPages(t *testing.T) {
	const seed = 20260926
	t.Logf("seed %d", seed)
	for _, disk := range []bool{false, true} {
		rng := rand.New(rand.NewSource(seed))
		var r *Relation
		if disk {
			var err error
			if r, err = NewDisk(filepath.Join(t.TempDir(), "freq.pages"), 128, 4); err != nil {
				t.Fatal(err)
			}
			defer r.Close()
		} else {
			r = New(128)
		}
		r.KeepHeads()

		record := func() []float64 {
			vec := make([]float64, 2*(1+rng.Intn(40))) // (re, im) pairs
			for i := range vec {
				vec[i] = rng.NormFloat64()
			}
			return vec
		}
		want := map[int64][]float64{}
		check := func(step int) {
			t.Helper()
			for id, vec := range want {
				v, err := r.View(id)
				if err != nil {
					t.Fatal(err)
				}
				n := len(vec) / 2
				if wantLen := min(n, HeadCoeffs); len(v.Head) != wantLen {
					t.Fatalf("disk=%t step %d id %d: head of %d coefficients, want %d", disk, step, id, len(v.Head), wantLen)
				}
				pages, err := r.ViewPagesInto(v, nil)
				if err != nil {
					t.Fatal(err)
				}
				cur := CursorAt(pages, r.PageSize(), 0)
				for f, h := range v.Head {
					paged := cur.Next()
					if want := complex(vec[2*f], vec[2*f+1]); h != want || paged != want {
						t.Fatalf("disk=%t step %d id %d coefficient %d: head %v, page %v, stored %v",
							disk, step, id, f, h, paged, want)
					}
				}
				r.ReleaseView(v)
			}
		}
		for step := 0; step < 400; step++ {
			id := int64(rng.Intn(60))
			vec := record()
			var err error
			switch _, stored := want[id]; {
			case !stored && step%3 == 0:
				err = r.Insert(id, vec)
			case !stored && step%3 == 1:
				err = r.InsertRaw(id, encodeFloats(vec))
			case !stored:
				err = r.InsertOwned(id, encodeFloats(vec))
			case rng.Intn(2) == 0:
				// Same size: the pages are overwritten in place.
				vec = vec[:0]
				for range want[id] {
					vec = append(vec, rng.NormFloat64())
				}
				err = r.Replace(id, vec)
			default:
				err = r.Replace(id, vec) // almost surely a size change
			}
			if err != nil {
				t.Fatal(err)
			}
			want[id] = vec
			if step%50 == 49 {
				check(step)
			}
		}
		check(400)
	}
}

// TestNoHeadsUnlessKept: a relation that was not asked to keep heads (the
// time-domain relation) hands out empty heads and allocates no slab.
func TestNoHeadsUnlessKept(t *testing.T) {
	r := New(64)
	if err := r.Insert(1, make([]float64, 64)); err != nil {
		t.Fatal(err)
	}
	v, err := r.View(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Head) != 0 || len(r.heads) != 0 {
		t.Fatalf("head of %d coefficients, %d slab chunks", len(v.Head), len(r.heads))
	}
}
