package query_test

import (
	"fmt"
	"testing"

	tsq "repro"
	"repro/internal/query"
)

// FuzzParse: the parser never panics on outside bytes, and whatever it
// accepts means one thing — the statement either fails to compile or run
// with an error, or is answered, and then compiling it a second time
// produces the same cache key: the repeat is served from the entry the first
// filed (EXPLAIN and TRACE never are). Compilation lives in the root
// package, so the target drives it through a small tsq.Server.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		// The DB.Query doc-comment examples.
		"RANGE SERIES 'IBM' EPS 2.5 TRANSFORM mavg(20) USING INDEX",
		"RANGE VALUES (20, 21, 20, 23) EPS 1.0 TRANSFORM warp(2)",
		"NN SERIES 'BBA' K 5 TRANSFORM reverse() | mavg(20)",
		"SELFJOIN EPS 1.0 TRANSFORM mavg(20)",
		"JOIN EPS 1.0 LEFT reverse() | mavg(20) RIGHT mavg(20)",
		"RANGE SERIES 'ZTR' EPS 3 MEAN [5, 15] STD [0.5, 2]",
		"EXPLAIN SELFJOIN EPS 1.0 TRANSFORM mavg(20) USING AUTO",
		// The four shapes benchmark/workload.go renders.
		"RANGE SERIES 'IBM' EPS 2.25 TRANSFORM mavg(4) BOTH USING INDEX",
		"NN SERIES 'BBA' K 5 USING SCAN",
		"RANGE VALUES (1,2,3,4,5,6,7,8) EPS 0.5",
		"NN VALUES (1,2,3,4,5,6,7,8) K 3 TRANSFORM mavg(2) BOTH",
		// What else the front end distinguishes.
		"TRACE EXPLAIN NN SERIES 'ZTR' K 2 APPROX 0.1 LIMIT 1",
		"RANGE SERIES 'IBM' WITHIN 2.5 CONFIDENCE 0.9",
		"SELFJOIN EPS 1 METHOD d LIMIT 3;",
		"NN SERIES 'IBM' K 3 MEAN [1e9, 2e9]",
		"range  series 'IBM'\teps 3.0",
	} {
		f.Add(src)
	}
	for _, src := range query.ParseErrorCases {
		f.Add(src)
	}

	db := tsq.MustOpen(tsq.Options{Length: 8})
	for i, name := range []string{"IBM", "BBA", "ZTR", "x", "W0000", "W0001"} {
		vals := make([]float64, 8)
		for j := range vals {
			vals[j] = float64((i+2)*j%7) + 0.25*float64(i)
		}
		if err := db.Insert(name, vals); err != nil {
			f.Fatal(err)
		}
	}
	srv := tsq.NewServer(db, tsq.ServerOptions{})

	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := query.Parse(src)
		if err != nil {
			if stmt != nil {
				t.Fatalf("Parse(%q) returned a statement beside its error", src)
			}
			return
		}
		first, err := srv.Query(src)
		if err != nil {
			return
		}
		if first.Stats.Cached && (stmt.Explain || stmt.Trace) {
			t.Fatalf("%q was served from the cache", src)
		}
		again, err := srv.Query(src)
		if err != nil {
			t.Fatalf("%q answered once, then failed: %v", src, err)
		}
		if again.Stats.Cached == (stmt.Explain || stmt.Trace) {
			t.Fatalf("%q: the repeat's cached verdict is %t", src, again.Stats.Cached)
		}
		if fmt.Sprint(first.Matches, first.Pairs) != fmt.Sprint(again.Matches, again.Pairs) {
			t.Fatalf("%q answered two ways:\n %v %v\n %v %v", src, first.Matches, first.Pairs, again.Matches, again.Pairs)
		}
	})
}
