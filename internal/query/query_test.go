package query

import "testing"

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

// parseErrorCases is what Parse must refuse; FuzzParse seeds from it too.
var parseErrorCases = []string{
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

func TestParseErrors(t *testing.T) {
	for _, src := range parseErrorCases {
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
