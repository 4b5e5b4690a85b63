package core

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/transform"
)

func TestDeleteRemovesFromAllQueryPaths(t *testing.T) {
	db, data := newTestDB(t, 100, 41, Options{})
	// Pick a series with a planted near-duplicate (index n/2 duplicates
	// index 0 in newTestDB).
	victim := db.Name(int64(50))
	if !db.Delete(victim) {
		t.Fatal("delete of live series failed")
	}
	if db.Delete(victim) {
		t.Fatal("double delete returned true")
	}
	if db.Len() != 99 {
		t.Fatalf("Len = %d", db.Len())
	}
	if err := db.Index().Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := data[0]
	rq := RangeQuery{Values: q, Eps: 1000, Transform: transform.Identity(testLen)}
	for name, run := range map[string]func(RangeQuery) ([]Result, ExecStats, error){
		"indexed":  pinRange(db, plan.Index),
		"scanFreq": pinRange(db, plan.ScanFreq),
		"scanTime": pinRange(db, plan.ScanTime),
	} {
		res, _, err := run(rq)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 99 {
			t.Fatalf("%s: %d results after delete, want 99", name, len(res))
		}
		for _, r := range res {
			if r.Name == victim {
				t.Fatalf("%s: deleted series still returned", name)
			}
		}
	}
	nn, _, err := forcedNN(db, NNQuery{Values: q, K: 99, Transform: transform.Identity(testLen)}, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range nn {
		if r.Name == victim {
			t.Fatal("deleted series appears in NN results")
		}
	}
	pairs, _, err := db.SelfJoin(0.8, transform.Identity(testLen), JoinIndexTransform)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if db.Name(p.A) == victim || db.Name(p.B) == victim {
			t.Fatal("deleted series appears in join results")
		}
	}
}

func TestDeleteThenReinsertSameName(t *testing.T) {
	db, data := newTestDB(t, 20, 42, Options{})
	name := db.Name(3)
	if !db.Delete(name) {
		t.Fatal("delete failed")
	}
	// Re-insert under the same name with different values; new ID must not
	// collide with any live record.
	newVals := make([]float64, testLen)
	copy(newVals, data[7])
	for i := range newVals {
		newVals[i] += 0.01
	}
	id, err := db.Insert(name, newVals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Series(id.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range newVals {
		if got[i] != newVals[i] {
			t.Fatal("reinserted values wrong — likely an ID collision")
		}
	}
	if db.Len() != 20 {
		t.Fatalf("Len = %d", db.Len())
	}
	// All other series still retrievable with correct values.
	for i := 0; i < 20; i++ {
		if i == 3 {
			continue
		}
		vals, err := db.Series(db.IDs()[i])
		if err != nil {
			t.Fatalf("series %d unreadable after delete/reinsert: %v", i, err)
		}
		if len(vals) != testLen {
			t.Fatal("length corrupted")
		}
	}
}

func TestDeleteAllThenBulkForbidden(t *testing.T) {
	db, _ := newTestDB(t, 10, 43, Options{})
	for _, id := range append([]int64(nil), db.IDs()...) {
		if !db.Delete(db.Name(id)) {
			t.Fatal("delete failed")
		}
	}
	if db.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", db.Len())
	}
	// InsertBulk requires a *fresh* DB: the relations still hold dead
	// records, so IDs would collide.
	good := make([]float64, testLen)
	if err := db.InsertBulk([]string{"fresh"}, [][]float64{good}); err == nil {
		t.Fatal("bulk insert after deletions should be rejected")
	}
}
