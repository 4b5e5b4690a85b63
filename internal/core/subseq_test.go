package core

import (
	"math"
	"testing"

	"repro/internal/plan"
	"repro/internal/series"
	"repro/internal/transform"
)

func TestSubsequenceScanFindsPlantedWindow(t *testing.T) {
	db, data := newTestDB(t, 60, 46, Options{})
	// The query is an exact window of series 17.
	q := data[17][20:36]
	res, st, err := db.SubsequenceScan(q, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.ID == 17 {
			found = true
			if r.Offset != 20 || r.Dist > 1e-9 {
				t.Fatalf("window located at offset %d dist %v, want 20 / 0", r.Offset, r.Dist)
			}
		}
	}
	if !found {
		t.Fatalf("planted window not found: %v", res)
	}
	if st.Candidates != db.Len() {
		t.Fatalf("scan visited %d of %d", st.Candidates, db.Len())
	}
	// Results sorted by distance.
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
}

func TestSubsequenceScanMatchesOracle(t *testing.T) {
	db, data := newTestDB(t, 40, 47, Options{})
	q := data[3][10:18]
	eps := 5.0
	res, _, err := db.SubsequenceScan(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]float64{}
	for _, r := range res {
		got[r.ID] = r.Dist
	}
	for i, s := range data {
		want := series.MinSubsequenceDistance(s, q)
		if want <= eps {
			d, ok := got[int64(i)]
			if !ok {
				t.Fatalf("series %d missing (oracle dist %v)", i, want)
			}
			if math.Abs(d-want) > 1e-9 {
				t.Fatalf("series %d: dist %v, oracle %v", i, d, want)
			}
		} else if _, ok := got[int64(i)]; ok {
			t.Fatalf("series %d should not match (oracle dist %v)", i, want)
		}
	}
}

func TestSubsequenceScanValidation(t *testing.T) {
	db, _ := newTestDB(t, 5, 48, Options{})
	if _, _, err := db.SubsequenceScan(nil, 1); err == nil {
		t.Error("empty query should fail")
	}
	if _, _, err := db.SubsequenceScan(make([]float64, testLen+1), 1); err == nil {
		t.Error("over-long query should fail")
	}
	if _, _, err := db.SubsequenceScan(make([]float64, 4), -1); err == nil {
		t.Error("negative eps should fail")
	}
}

func TestUpdateReindexes(t *testing.T) {
	db, data := newTestDB(t, 30, 49, Options{})
	name := db.Name(5)
	// Replace series 5 with a copy of series 9 (plus noise): afterwards a
	// query around series 9 must find the updated series too.
	newVals := series.Clone(data[9])
	for i := range newVals {
		newVals[i] += 0.01
	}
	if _, err := db.Update(name, newVals); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 30 {
		t.Fatalf("Len = %d after update", db.Len())
	}
	res, _, err := forcedRange(db, RangeQuery{Values: data[9], Eps: 0.5, Transform: transform.Identity(testLen)}, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.Name == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("updated series not reindexed: %v", res)
	}
	// Unknown name fails.
	if _, err := db.Update("nope", newVals); err == nil {
		t.Error("update of unknown name should fail")
	}
}

func TestCompactReclaimsPages(t *testing.T) {
	db, data := newTestDB(t, 40, 53, Options{})
	// Delete half the series; pages stay allocated until compaction.
	for i := 0; i < 40; i += 2 {
		if !db.Delete(db.Name(int64(i))) {
			t.Fatal("delete failed")
		}
	}
	reclaimed, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed <= 0 {
		t.Fatalf("compaction reclaimed %d pages", reclaimed)
	}
	// Everything still works after compaction.
	res, _, err := forcedRange(db, RangeQuery{Values: data[1], Eps: 1000, Transform: transform.Identity(testLen)}, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 20 {
		t.Fatalf("post-compaction query found %d, want 20", len(res))
	}
	for _, r := range res {
		vals, err := db.Series(r.ID)
		if err != nil {
			t.Fatalf("series %d unreadable after compaction: %v", r.ID, err)
		}
		if len(vals) != testLen {
			t.Fatal("series corrupted by compaction")
		}
	}
	// Compacting an already-compact DB reclaims nothing.
	again, err := db.Compact()
	if err != nil || again != 0 {
		t.Fatalf("second compaction reclaimed %d (%v)", again, err)
	}
}
