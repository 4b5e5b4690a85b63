package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/series"
	"repro/internal/transform"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("RANGE SERIES 'IBM' EPS 2.5 TRANSFORM mavg(20)")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokIdent, tokString, tokIdent, tokNumber, tokIdent, tokIdent, tokLParen, tokNumber, tokRParen, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Fatalf("token %d: kind %v, want %v", i, toks[i].kind, k)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := lex("-1.5 +2 3e4 5.0e-2")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-1.5", "+2", "3e4", "5.0e-2"}
	for i, w := range want {
		if toks[i].kind != tokNumber || toks[i].text != w {
			t.Fatalf("number %d: %v", i, toks[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "RANGE @", "-"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) should fail", src)
		}
	}
}

func TestParseRange(t *testing.T) {
	stmt, err := Parse("RANGE SERIES 'IBM' EPS 2.5 TRANSFORM mavg(20) USING INDEX")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Kind != StmtRange || stmt.SeriesName != "IBM" || stmt.Eps != 2.5 {
		t.Fatalf("parsed: %+v", stmt)
	}
	if len(stmt.Transform) != 1 || stmt.Transform[0].Name != "mavg" || stmt.Transform[0].Args[0] != 20 {
		t.Fatalf("transform: %+v", stmt.Transform)
	}
	if stmt.Exec != ExecIndex {
		t.Fatalf("exec: %v", stmt.Exec)
	}
}

func TestParseValuesLiteral(t *testing.T) {
	stmt, err := Parse("RANGE VALUES (20, 21, 20, 23) EPS 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Literal) != 4 || stmt.Literal[3] != 23 {
		t.Fatalf("literal: %v", stmt.Literal)
	}
}

func TestParsePipeline(t *testing.T) {
	stmt, err := Parse("NN SERIES 'X' K 5 TRANSFORM reverse() | mavg(20) USING SCAN")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Kind != StmtNN || stmt.K != 5 {
		t.Fatalf("stmt: %+v", stmt)
	}
	if len(stmt.Transform) != 2 || stmt.Transform[0].Name != "reverse" || stmt.Transform[1].Name != "mavg" {
		t.Fatalf("pipeline: %+v", stmt.Transform)
	}
	if stmt.Exec != ExecScan {
		t.Fatalf("exec: %v", stmt.Exec)
	}
}

func TestParseSelfJoin(t *testing.T) {
	stmt, err := Parse("SELFJOIN EPS 1.0 TRANSFORM mavg(20) METHOD b")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Kind != StmtSelfJoin || stmt.JoinMethod != "b" || stmt.Eps != 1 {
		t.Fatalf("stmt: %+v", stmt)
	}
	// No METHOD clause defers to the planner (USING AUTO).
	stmt2, err := Parse("SELFJOIN EPS 2")
	if err != nil {
		t.Fatal(err)
	}
	if stmt2.JoinMethod != "" || stmt2.Exec != ExecAuto {
		t.Fatalf("default: method %q exec %v", stmt2.JoinMethod, stmt2.Exec)
	}
	stmt3, err := Parse("SELFJOIN EPS 2 USING SCAN")
	if err != nil {
		t.Fatal(err)
	}
	if stmt3.Exec != ExecScan || !stmt3.UsingSet {
		t.Fatalf("forced: %+v", stmt3)
	}
}

func TestParseJoin(t *testing.T) {
	stmt, err := Parse("JOIN EPS 1.5 LEFT reverse() | mavg(20) RIGHT mavg(20) USING INDEX LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Kind != StmtJoin || stmt.Eps != 1.5 || stmt.Limit != 5 || stmt.Exec != ExecIndex {
		t.Fatalf("stmt: %+v", stmt)
	}
	if len(stmt.LeftTransform) != 2 || stmt.LeftTransform[0].Name != "reverse" {
		t.Fatalf("left pipeline: %+v", stmt.LeftTransform)
	}
	if len(stmt.RightTransform) != 1 || stmt.RightTransform[0].Name != "mavg" {
		t.Fatalf("right pipeline: %+v", stmt.RightTransform)
	}
	// Both sides default to the identity.
	stmt2, err := Parse("JOIN EPS 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt2.LeftTransform) != 0 || len(stmt2.RightTransform) != 0 {
		t.Fatalf("default sides: %+v", stmt2)
	}
}

func TestParseMomentBounds(t *testing.T) {
	stmt, err := Parse("RANGE SERIES 'A' EPS 1 MEAN [5, 15] STD [0.5, 2]")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.MeanBounds == nil || stmt.MeanBounds[0] != 5 || stmt.MeanBounds[1] != 15 {
		t.Fatalf("mean bounds: %v", stmt.MeanBounds)
	}
	if stmt.StdBounds == nil || stmt.StdBounds[0] != 0.5 || stmt.StdBounds[1] != 2 {
		t.Fatalf("std bounds: %v", stmt.StdBounds)
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	if _, err := Parse("range series 'a' eps 1 transform MAVG(3) using index"); err != nil {
		t.Fatalf("lowercase keywords should parse: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROB SERIES 'x' EPS 1",
		"RANGE SERIES 'x'",
		"RANGE SERIES 'x' EPS",
		"RANGE VALUES () EPS 1",
		"RANGE VALUES (1 2) EPS 1",
		"NN SERIES 'x' K 0",
		"NN SERIES 'x' K 1.5",
		"SELFJOIN EPS 1 METHOD z",
		"SELFJOIN EPS 1 METHOD b USING SCAN",
		"SELFJOIN EPS 1 USING SCAN METHOD b",
		"RANGE SERIES 'x' EPS 1 METHOD a",
		"RANGE SERIES 'x' EPS 1 LEFT mavg(3)",
		"JOIN EPS 1 TRANSFORM mavg(3)",
		"JOIN EPS 1 METHOD b",
		"JOIN EPS 1 BOTH",
		"RANGE SERIES 'x' EPS 1 MEAN [5, 1]",
		"RANGE SERIES 'x' EPS 1 USING TURBO",
		"RANGE SERIES 'x' EPS 1 TRANSFORM mavg",
		"RANGE SERIES 'x' EPS 1 TRANSFORM mavg(3",
		"RANGE SERIES 'x' EPS 1 extra",
		"RANGE SERIES 'x' EPS 1 TRANSFORM mavg(3) |",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStatementKindStrings(t *testing.T) {
	if StmtRange.String() != "RANGE" || StmtNN.String() != "NN" || StmtSelfJoin.String() != "SELFJOIN" {
		t.Fatal("kind strings wrong")
	}
	if ExecIndex.String() != "INDEX" || ExecScan.String() != "SCAN" || ExecScanTime.String() != "SCANTIME" {
		t.Fatal("exec strings wrong")
	}
	if StatementKind(9).String() != "UNKNOWN" || ExecStrategy(9).String() != "UNKNOWN" {
		t.Fatal("unknown strings wrong")
	}
}

// testDB builds a small engine DB for execution tests.
func testDB(t *testing.T) (*core.DB, [][]float64) {
	t.Helper()
	const n = 64
	db, err := core.NewDB(n, core.Options{})
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
		if _, err := db.Insert(seriesName(i), data[i]); err != nil {
			t.Fatal(err)
		}
	}
	return db, data
}

func seriesName(i int) string {
	return string(rune('A'+i/26)) + string(rune('A'+i%26))
}

// indexRange is the engine call a range statement must reduce to: the same
// query planned and executed directly, forced onto the index.
func indexRange(t *testing.T, db *core.DB, q core.RangeQuery) []core.Result {
	t.Helper()
	pl, err := db.PlanRange(q, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := db.ExecRangeInto(q, pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunRangeMatchesEngine(t *testing.T) {
	db, data := testDB(t)
	out, err := Run(db, "RANGE SERIES 'AA' EPS 2 TRANSFORM mavg(5) USING INDEX")
	if err != nil {
		t.Fatal(err)
	}
	rq := core.RangeQuery{Values: data[0], Eps: 2, Transform: transform.MovingAverage(64, 5)}
	want := indexRange(t, db, rq)
	if len(out.Results) != len(want) {
		t.Fatalf("query returned %d, engine %d", len(out.Results), len(want))
	}
	for i := range want {
		if out.Results[i].ID != want[i].ID || math.Abs(out.Results[i].Dist-want[i].Dist) > 1e-12 {
			t.Fatalf("result %d differs", i)
		}
	}
}

func TestRunScanStrategiesAgree(t *testing.T) {
	db, _ := testDB(t)
	q := "RANGE SERIES 'AB' EPS 1.5 TRANSFORM mavg(5)"
	idx, err := Run(db, q+" USING INDEX")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := Run(db, q+" USING SCAN")
	if err != nil {
		t.Fatal(err)
	}
	scanTime, err := Run(db, q+" USING SCANTIME")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Results) != len(scan.Results) || len(idx.Results) != len(scanTime.Results) {
		t.Fatalf("strategies disagree: %d / %d / %d", len(idx.Results), len(scan.Results), len(scanTime.Results))
	}
}

func TestRunNN(t *testing.T) {
	db, _ := testDB(t)
	out, err := Run(db, "NN SERIES 'AC' K 3 TRANSFORM identity()")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("NN returned %d", len(out.Results))
	}
	// The series itself is its own nearest neighbor at distance 0.
	if out.Results[0].Name != "AC" || out.Results[0].Dist > 1e-9 {
		t.Fatalf("self should be nearest: %+v", out.Results[0])
	}
}

func TestRunNNScanStrategy(t *testing.T) {
	db, _ := testDB(t)
	idx, err := Run(db, "NN SERIES 'AD' K 5")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := Run(db, "NN SERIES 'AD' K 5 USING SCAN")
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx.Results {
		if math.Abs(idx.Results[i].Dist-scan.Results[i].Dist) > 1e-9 {
			t.Fatalf("NN strategies disagree at rank %d", i)
		}
	}
}

func TestRunSelfJoin(t *testing.T) {
	db, _ := testDB(t)
	outD, err := Run(db, "SELFJOIN EPS 0.8 TRANSFORM mavg(5) METHOD d")
	if err != nil {
		t.Fatal(err)
	}
	outB, err := Run(db, "SELFJOIN EPS 0.8 TRANSFORM mavg(5) METHOD b")
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
	stmt := &Statement{
		Kind:      StmtRange,
		Literal:   warped,
		Eps:       0.2,
		Transform: []TransformCall{{Name: "warp", Args: []float64{2}}},
	}
	out, err := Exec(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range out.Results {
		if int(r.ID) == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("warp query missed planted series: %+v", out.Results)
	}
}

func TestRunMomentBounds(t *testing.T) {
	db, data := testDB(t)
	mean := series.Mean(data[0])
	lo, hi := mean-0.01, mean+0.01
	out, err := Run(db, fmt.Sprintf("RANGE SERIES 'AA' EPS 100 MEAN [%g, %g]", lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Results {
		m := series.Mean(data[r.ID])
		if m < lo || m > hi {
			t.Fatalf("moment bound violated: mean %v", m)
		}
	}
	if len(out.Results) == 0 {
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
		if _, err := Run(db, src); err == nil {
			t.Errorf("Run(%q) should fail", src)
		}
	}
}

func TestComposedPipelineMatchesManualCompose(t *testing.T) {
	db, data := testDB(t)
	out, err := Run(db, "RANGE SERIES 'AA' EPS 5 TRANSFORM reverse() | mavg(5)")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := transform.Reverse(64).Compose(transform.MovingAverage(64, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := indexRange(t, db, core.RangeQuery{Values: data[0], Eps: 5, Transform: comp})
	if len(out.Results) != len(want) {
		t.Fatalf("pipeline %d vs manual %d", len(out.Results), len(want))
	}
}

func TestParseLimit(t *testing.T) {
	stmt, err := Parse("RANGE SERIES 'A' EPS 5 LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Limit != 3 {
		t.Fatalf("Limit = %d", stmt.Limit)
	}
	for _, bad := range []string{
		"RANGE SERIES 'A' EPS 5 LIMIT 0",
		"RANGE SERIES 'A' EPS 5 LIMIT 1.5",
		"RANGE SERIES 'A' EPS 5 LIMIT",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestRunLimit(t *testing.T) {
	db, _ := testDB(t)
	all, err := Run(db, "RANGE SERIES 'AA' EPS 1000")
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Results) != 60 {
		t.Fatalf("unlimited query returned %d", len(all.Results))
	}
	limited, err := Run(db, "RANGE SERIES 'AA' EPS 1000 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Results) != 5 {
		t.Fatalf("LIMIT 5 returned %d", len(limited.Results))
	}
	// Distance-sorted, so the limited prefix matches the full head.
	for i := range limited.Results {
		if limited.Results[i].ID != all.Results[i].ID {
			t.Fatal("LIMIT changed result ordering")
		}
	}
	// LIMIT applies to joins too.
	joined, err := Run(db, "SELFJOIN EPS 1000 TRANSFORM mavg(5) METHOD b LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(joined.Pairs) != 7 {
		t.Fatalf("join LIMIT returned %d", len(joined.Pairs))
	}
	nn, err := Run(db, "NN SERIES 'AA' K 10 LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(nn.Results) != 2 {
		t.Fatalf("NN LIMIT returned %d", len(nn.Results))
	}
}
