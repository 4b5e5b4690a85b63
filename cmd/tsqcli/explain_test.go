package main

import (
	"fmt"
	"math"
	"strings"
	"testing"

	tsq "repro"
)

// explainStore holds eight smooth series of the given length.
func explainStore(t *testing.T, length int) *tsq.DB {
	t.Helper()
	db, err := tsq.Open(tsq.Options{Length: length})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		vals := make([]float64, length)
		for j := range vals {
			vals[j] = 10 + float64(i) + 3*math.Sin(float64(j+i)/2) + float64(j*i)/7
		}
		if err := db.Insert(fmt.Sprintf("S%d", i), vals); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestExplainNamesTheFilter is the golden output of EXPLAIN's plan, filter
// and transform lines: three statements that look alike to a trace reader
// and run three different Lemma 1 filters — eps/√2 under a transformation
// that keeps a real series' conjugate symmetry, eps under time warping,
// which does not, and eps on a store too short for the indexed coefficients
// to have mirrors (2K ≥ n).
func TestExplainNamesTheFilter(t *testing.T) {
	long, short := explainStore(t, 16), explainStore(t, 4)
	var got strings.Builder
	for _, q := range []struct {
		db  *tsq.DB
		src string
	}{
		{long, "EXPLAIN RANGE SERIES 'S3' EPS 2 TRANSFORM mavg(4) BOTH USING INDEX"},
		{long, "EXPLAIN RANGE VALUES (1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,33) EPS 2 TRANSFORM warp(2) USING INDEX"},
		{short, "EXPLAIN NN SERIES 'S3' K 2 USING INDEX"},
	} {
		out, err := q.db.Query(q.src)
		if err != nil {
			t.Fatalf("%s: %v", q.src, err)
		}
		var full strings.Builder
		printExplain(&full, out.Explain)
		for _, line := range strings.Split(full.String(), "\n") {
			if f := strings.Fields(line); len(f) > 0 && (f[0] == "plan:" || f[0] == "filter:" || f[0] == "transform:") {
				got.WriteString(line + "\n")
			}
		}
	}
	const want = `plan: range via index (forced) over 8 series, 1 shard(s)
  filter: eps/√2 (conjugate symmetry)
  transform: mavg(4)
plan: range via index (forced) over 8 series, 1 shard(s)
  filter: eps (asymmetric transform)
  transform: warp(2)
plan: nn via index (forced) over 8 series, 1 shard(s)
  filter: eps (2K ≥ n)
  transform: identity
`
	if got.String() != want {
		t.Fatalf("EXPLAIN output:\n%s\nwant:\n%s", got.String(), want)
	}
}
