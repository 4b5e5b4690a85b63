package tsq_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tsq "repro"
	"repro/internal/core"
)

func TestInsertBulkPublicAPI(t *testing.T) {
	batch := tsq.RandomWalks(300, 64, 31)
	inc := tsq.MustOpen(tsq.Options{Length: 64})
	if err := inc.InsertAll(batch); err != nil {
		t.Fatal(err)
	}
	bulk := tsq.MustOpen(tsq.Options{Length: 64})
	if err := bulk.InsertBulk(batch); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != inc.Len() {
		t.Fatalf("bulk %d vs incremental %d", bulk.Len(), inc.Len())
	}
	a, _, err := inc.RangeByName("W0042", 4, tsq.MovingAverage(10), tsq.TransformBoth())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := bulk.RangeByName("W0042", 4, tsq.MovingAverage(10), tsq.TransformBoth())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("results differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || math.Abs(a[i].Distance-b[i].Distance) > 1e-9 {
			t.Fatalf("result %d differs", i)
		}
	}
	// Bulk insert into a non-empty DB fails.
	if err := bulk.InsertBulk(batch[:1]); err == nil {
		t.Fatal("bulk insert into non-empty DB should fail")
	}
}

// TestInsertBulkRefusesNaNFromCSV: a CSV cell spelled NaN parses, and the
// bulk load — tsqd -data's path — refuses it as an insert does, naming the
// series and the position, and loads nothing.
func TestInsertBulkRefusesNaNFromCSV(t *testing.T) {
	const n = 8
	var csv strings.Builder
	for i, row := range []string{"1,2,3,4,5,6,7,8", "1,2,3,NaN,5,6,7,8", "8,7,6,5,4,3,2,1"} {
		fmt.Fprintf(&csv, "S%d,%s\n", i, row)
	}
	path := filepath.Join(t.TempDir(), "nan.csv")
	if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	batch, err := tsq.ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		db := tsq.MustOpen(tsq.Options{Length: n, Shards: shards})
		err := db.InsertBulk(batch)
		if err == nil || !strings.Contains(err.Error(), `"S1"`) || !strings.Contains(err.Error(), "position 3") {
			t.Fatalf("shards=%d: bulk load of a NaN cell: %v", shards, err)
		}
		if ierr := db.Insert(batch[1].Name, batch[1].Values); ierr == nil {
			t.Fatalf("shards=%d: insert accepted the NaN the bulk load refused", shards)
		}
		if db.Len() != 0 {
			t.Fatalf("shards=%d: refused bulk load left %d series", shards, db.Len())
		}
		if err := db.InsertBulk([]tsq.NamedSeries{batch[0], batch[2]}); err != nil {
			t.Fatalf("shards=%d: valid bulk load after the refusal: %v", shards, err)
		}
	}
}

func TestSnapshotRoundTripPublicAPI(t *testing.T) {
	src := tsq.MustOpen(tsq.Options{Length: 128, K: 3, Space: tsq.Rect})
	if err := src.InsertAll(tsq.StockEnsemble(32)[:200]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := src.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("snapshot empty")
	}
	got, err := tsq.ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != src.Len() || got.Length() != 128 {
		t.Fatalf("restored %d x %d", got.Len(), got.Length())
	}
	// Query equivalence, including the restored (Rect, K=3) schema.
	qa, _, err := src.RangeByName("S0000", 3, tsq.Reverse())
	if err != nil {
		t.Fatal(err)
	}
	qb, _, err := got.RangeByName("S0000", 3, tsq.Reverse())
	if err != nil {
		t.Fatal(err)
	}
	if len(qa) != len(qb) {
		t.Fatalf("restored DB answers differ: %d vs %d", len(qa), len(qb))
	}
	// Names preserved in order.
	na, nb := src.Names(), got.Names()
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("name order differs at %d", i)
		}
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := tsq.ReadFrom(strings.NewReader("definitely not a snapshot")); err == nil {
		t.Fatal("garbage snapshot should fail")
	}
}

// TestShardLimitAtOpen: a DB may have no more shards than a snapshot can
// record, so Open and ReadFromShards refuse one more at the start instead of
// handing out a store whose snapshot no build could load.
func TestShardLimitAtOpen(t *testing.T) {
	const over = math.MaxUint16 + 1
	if db, err := tsq.Open(tsq.Options{Length: 16, Shards: over}); err == nil {
		db.Close()
		t.Fatalf("Open made a DB of %d shards", over)
	}
	src := tsq.MustOpen(tsq.Options{Length: 16})
	defer src.Close()
	if err := src.InsertAll(tsq.RandomWalks(3, 16, 5)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if db, err := tsq.ReadFromShards(&buf, over); err == nil {
		db.Close()
		t.Fatalf("ReadFromShards loaded a DB of %d shards", over)
	}
}

// TestEngineAccessor: the engine a DB hands out says by its type how
// many partitions it has — a *core.DB, whose Index() is the one shard's
// k-index over every stored series, iff there is exactly one — whether the
// DB was opened or loaded. benchmark/'s --trace replay asserts on it.
func TestEngineAccessor(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		opened := tsq.MustOpen(tsq.Options{Length: 64, Shards: shards})
		if err := opened.InsertAll(tsq.RandomWalks(40, 64, 3)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := opened.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := tsq.ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, db := range []*tsq.DB{opened, loaded} {
			eng := db.Engine()
			if eng.Length() != 64 || eng.Shards() != max(shards, 1) || db.Shards() != eng.Shards() {
				t.Fatalf("shards=%d: engine has length %d, %d shards (DB says %d)", shards, eng.Length(), eng.Shards(), db.Shards())
			}
			cdb, isDB := eng.(*core.DB)
			if isDB != (shards <= 1) {
				t.Fatalf("shards=%d: Engine() is a %T", shards, eng)
			}
			if isDB {
				if ix := cdb.Index(); ix == nil || ix.Tree().Len() != db.Len() {
					t.Fatalf("shards=%d: Index() = %v, want the k-index over all %d series", shards, ix, db.Len())
				}
			}
		}
	}
}

func TestQueryLanguageBothClause(t *testing.T) {
	db := tsq.MustOpen(tsq.Options{Length: 128})
	if err := db.InsertAll(tsq.StockEnsemble(33)); err != nil {
		t.Fatal(err)
	}
	// Without BOTH, the smooth-only partner is invisible; with BOTH it is
	// found — the clause changes semantics, not just syntax.
	without, err := db.Query("RANGE SERIES 'M0000' EPS 1 TRANSFORM mavg(20)")
	if err != nil {
		t.Fatal(err)
	}
	with, err := db.Query("RANGE SERIES 'M0000' EPS 1 TRANSFORM mavg(20) BOTH")
	if err != nil {
		t.Fatal(err)
	}
	if len(with.Matches) != 2 {
		t.Fatalf("BOTH query found %d, want 2 (self + partner)", len(with.Matches))
	}
	if len(without.Matches) >= len(with.Matches) {
		t.Fatalf("one-sided (%d) should find fewer than two-sided (%d) here",
			len(without.Matches), len(with.Matches))
	}
	// BOTH is rejected in SELFJOIN (already implicit).
	if _, err := db.Query("SELFJOIN EPS 1 TRANSFORM mavg(20) BOTH"); err == nil {
		t.Fatal("BOTH in SELFJOIN should be a parse error")
	}
}

func TestNNWithScanTimeStrategyFallsBack(t *testing.T) {
	db := tsq.MustOpen(tsq.Options{Length: 64})
	if err := db.InsertAll(tsq.RandomWalks(40, 64, 34)); err != nil {
		t.Fatal(err)
	}
	a, _, err := db.NNByName("W0000", 3, tsq.Identity(), tsq.With(tsq.UseScan))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := db.NNByName("W0000", 3, tsq.Identity(), tsq.With(tsq.UseScanTime))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i].Distance-b[i].Distance) > 1e-9 {
			t.Fatal("NN scan strategies disagree")
		}
	}
}

func TestSubsequencePublicAPI(t *testing.T) {
	db := tsq.MustOpen(tsq.Options{Length: 64})
	batch := tsq.RandomWalks(50, 64, 51)
	if err := db.InsertAll(batch); err != nil {
		t.Fatal(err)
	}
	q := batch[11].Values[30:42]
	res, st, err := db.Subsequence(q, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range res {
		if m.Name == "W0011" && m.Offset == 30 {
			found = true
		}
	}
	if !found {
		t.Fatalf("subsequence search missed the planted window: %v", res)
	}
	if st.Candidates != 50 {
		t.Fatalf("scan candidates = %d", st.Candidates)
	}
	if _, _, err := db.Subsequence(nil, 1); err == nil {
		t.Error("empty query should fail")
	}
}

func TestUpdateAndDeletePublicAPI(t *testing.T) {
	db := tsq.MustOpen(tsq.Options{Length: 64})
	batch := tsq.RandomWalks(20, 64, 52)
	if err := db.InsertAll(batch); err != nil {
		t.Fatal(err)
	}
	if !db.Delete("W0004") {
		t.Fatal("delete failed")
	}
	if db.Delete("W0004") {
		t.Fatal("double delete returned true")
	}
	if db.Len() != 19 {
		t.Fatalf("Len = %d", db.Len())
	}
	if err := db.Update("W0005", batch[6].Values); err != nil {
		t.Fatal(err)
	}
	got, err := db.Series("W0005")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != batch[6].Values[i] {
			t.Fatal("update did not replace values")
		}
	}
	if err := db.Update("missing", batch[0].Values); err == nil {
		t.Error("update of unknown name should fail")
	}
}

func TestCompactPublicAPI(t *testing.T) {
	db := tsq.MustOpen(tsq.Options{Length: 64})
	if err := db.InsertAll(tsq.RandomWalks(30, 64, 55)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		db.Delete(fmt.Sprintf("W%04d", i))
	}
	reclaimed, err := db.Compact()
	if err != nil || reclaimed <= 0 {
		t.Fatalf("Compact = %d, %v", reclaimed, err)
	}
	m, _, err := db.RangeByName("W0015", 1000, tsq.Identity())
	if err != nil || len(m) != 20 {
		t.Fatalf("post-compaction query: %d results, %v", len(m), err)
	}
}
