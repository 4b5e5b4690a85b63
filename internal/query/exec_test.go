package query_test

// The language's execution tests. The package under test is syntax only —
// the root package compiles a parsed statement to the typed call — so these
// drive tsq.DB.Query from an external test package (the one way a test in
// this directory may import repro) and keep the oracles they always had: the
// same query planned and executed directly on the engine.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	tsq "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/series"
	"repro/internal/transform"
)

// testDB builds a small store for execution tests.
func testDB(t *testing.T) (*tsq.DB, [][]float64) {
	t.Helper()
	const n = 64
	db, err := tsq.Open(tsq.Options{Length: n})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	data := make([][]float64, 60)
	for i := range data {
		if i >= 40 {
			src := data[i-40]
			dup := make([]float64, n)
			for j := range dup {
				dup[j] = src[j] + r.NormFloat64()*0.2
			}
			data[i] = dup
		} else {
			data[i] = dataset.RandomWalk(r, n)
		}
		if err := db.Insert(seriesName(i), data[i]); err != nil {
			t.Fatal(err)
		}
	}
	return db, data
}

func seriesName(i int) string {
	return string(rune('A'+i/26)) + string(rune('A'+i%26))
}

// seriesIndex inverts seriesName.
func seriesIndex(name string) int {
	return int(name[0]-'A')*26 + int(name[1]-'A')
}

// indexRange is the engine call a range statement must reduce to: the same
// query planned and executed directly, forced onto the index.
func indexRange(t *testing.T, db *tsq.DB, q core.RangeQuery) []core.Result {
	t.Helper()
	eng := db.Engine()
	pl, err := eng.PlanRange(q, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := eng.ExecRangeInto(q, pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunRangeMatchesEngine(t *testing.T) {
	db, data := testDB(t)
	out, err := db.Query("RANGE SERIES 'AA' EPS 2 TRANSFORM mavg(5) USING INDEX")
	if err != nil {
		t.Fatal(err)
	}
	rq := core.RangeQuery{Values: data[0], Eps: 2, Transform: transform.MovingAverage(64, 5)}
	want := indexRange(t, db, rq)
	if len(out.Matches) != len(want) {
		t.Fatalf("query returned %d, engine %d", len(out.Matches), len(want))
	}
	for i := range want {
		if out.Matches[i].Name != want[i].Name || math.Abs(out.Matches[i].Distance-want[i].Dist) > 1e-12 {
			t.Fatalf("result %d differs", i)
		}
	}
}

func TestRunScanStrategiesAgree(t *testing.T) {
	db, _ := testDB(t)
	q := "RANGE SERIES 'AB' EPS 1.5 TRANSFORM mavg(5)"
	idx, err := db.Query(q + " USING INDEX")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := db.Query(q + " USING SCAN")
	if err != nil {
		t.Fatal(err)
	}
	scanTime, err := db.Query(q + " USING SCANTIME")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Matches) != len(scan.Matches) || len(idx.Matches) != len(scanTime.Matches) {
		t.Fatalf("strategies disagree: %d / %d / %d", len(idx.Matches), len(scan.Matches), len(scanTime.Matches))
	}
}

func TestRunNN(t *testing.T) {
	db, _ := testDB(t)
	out, err := db.Query("NN SERIES 'AC' K 3 TRANSFORM identity()")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Matches) != 3 {
		t.Fatalf("NN returned %d", len(out.Matches))
	}
	// The series itself is its own nearest neighbor at distance 0.
	if out.Matches[0].Name != "AC" || out.Matches[0].Distance > 1e-9 {
		t.Fatalf("self should be nearest: %+v", out.Matches[0])
	}
}

func TestRunNNScanStrategy(t *testing.T) {
	db, _ := testDB(t)
	idx, err := db.Query("NN SERIES 'AD' K 5")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := db.Query("NN SERIES 'AD' K 5 USING SCAN")
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx.Matches {
		if math.Abs(idx.Matches[i].Distance-scan.Matches[i].Distance) > 1e-9 {
			t.Fatalf("NN strategies disagree at rank %d", i)
		}
	}
}

func TestRunSelfJoin(t *testing.T) {
	db, _ := testDB(t)
	outD, err := db.Query("SELFJOIN EPS 0.8 TRANSFORM mavg(5) METHOD d")
	if err != nil {
		t.Fatal(err)
	}
	outB, err := db.Query("SELFJOIN EPS 0.8 TRANSFORM mavg(5) METHOD b")
	if err != nil {
		t.Fatal(err)
	}
	if len(outD.Pairs) != 2*len(outB.Pairs) {
		t.Fatalf("method d found %d, method b %d (want exactly double)", len(outD.Pairs), len(outB.Pairs))
	}
	if len(outB.Pairs) == 0 {
		t.Fatal("join found nothing despite planted duplicates")
	}
}

func TestRunWarp(t *testing.T) {
	db, data := testDB(t)
	warped := series.Warp(data[5], 2)
	// Build a VALUES literal query.
	lit := make([]string, len(warped))
	for i, v := range warped {
		lit[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	out, err := db.Query("RANGE VALUES (" + strings.Join(lit, ", ") + ") EPS 0.2 TRANSFORM warp(2)")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range out.Matches {
		if r.Name == seriesName(5) {
			found = true
		}
	}
	if !found {
		t.Fatalf("warp query missed planted series: %+v", out.Matches)
	}
}

func TestRunMomentBounds(t *testing.T) {
	db, data := testDB(t)
	mean := series.Mean(data[0])
	lo, hi := mean-0.01, mean+0.01
	out, err := db.Query(fmt.Sprintf("RANGE SERIES 'AA' EPS 100 MEAN [%g, %g]", lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Matches {
		m := series.Mean(data[seriesIndex(r.Name)])
		if m < lo || m > hi {
			t.Fatalf("moment bound violated: mean %v", m)
		}
	}
	if len(out.Matches) == 0 {
		t.Fatal("self should match its own moment bounds")
	}
}

func TestRunErrors(t *testing.T) {
	db, _ := testDB(t)
	bad := []string{
		"RANGE SERIES 'NOPE' EPS 1",
		"RANGE SERIES 'AA' EPS 1 TRANSFORM frobnicate()",
		"RANGE SERIES 'AA' EPS 1 TRANSFORM mavg(0)",
		"RANGE SERIES 'AA' EPS 1 TRANSFORM mavg(3.5)",
		"RANGE SERIES 'AA' EPS 1 TRANSFORM mavg(3, 4)",
		"RANGE SERIES 'AA' EPS 1 TRANSFORM warp(2) | mavg(3)",
		"RANGE SERIES 'AA' EPS 1 TRANSFORM wmavg()",
		"SELFJOIN EPS 1 TRANSFORM warp(2)",
		"lex error '",
	}
	for _, src := range bad {
		if _, err := db.Query(src); err == nil {
			t.Errorf("Query(%q) should fail", src)
		}
	}
}

func TestComposedPipelineMatchesManualCompose(t *testing.T) {
	db, data := testDB(t)
	out, err := db.Query("RANGE SERIES 'AA' EPS 5 TRANSFORM reverse() | mavg(5)")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := transform.Reverse(64).Compose(transform.MovingAverage(64, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := indexRange(t, db, core.RangeQuery{Values: data[0], Eps: 5, Transform: comp})
	if len(out.Matches) != len(want) {
		t.Fatalf("pipeline %d vs manual %d", len(out.Matches), len(want))
	}
}

func TestRunLimit(t *testing.T) {
	db, _ := testDB(t)
	all, err := db.Query("RANGE SERIES 'AA' EPS 1000")
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Matches) != 60 {
		t.Fatalf("unlimited query returned %d", len(all.Matches))
	}
	limited, err := db.Query("RANGE SERIES 'AA' EPS 1000 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Matches) != 5 {
		t.Fatalf("LIMIT 5 returned %d", len(limited.Matches))
	}
	// Distance-sorted, so the limited prefix matches the full head.
	for i := range limited.Matches {
		if limited.Matches[i].Name != all.Matches[i].Name {
			t.Fatal("LIMIT changed result ordering")
		}
	}
	// LIMIT applies to joins too.
	joined, err := db.Query("SELFJOIN EPS 1000 TRANSFORM mavg(5) METHOD b LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(joined.Pairs) != 7 {
		t.Fatalf("join LIMIT returned %d", len(joined.Pairs))
	}
	nn, err := db.Query("NN SERIES 'AA' K 10 LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(nn.Matches) != 2 {
		t.Fatalf("NN LIMIT returned %d", len(nn.Matches))
	}
}
