// BenchmarkExecHotPath: ns/op, B/op and allocs/op per query kind on a warm
// store — pre-planned ops through ExecRangeInto/ExecNNInto, each kind
// reusing one result buffer. Exercised once per CI run (-benchtime=1x) so it
// cannot rot; the repository's measurements come from benchmark/.
package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/transform"
)

const (
	perfSeries  = 4096
	perfLen     = 128
	perfSeed    = 1997
	perfQueries = 16
	perfK       = 10
	perfEps     = 1.0
	// perfEpsMavg is the radius of the transformed kind: its queries are
	// smoothed series (D(T(nf(x)), nf(q)) compares against a raw query),
	// whose nearest stored series sit a little further out.
	perfEpsMavg = 1.5
)

// perfStore builds the warm store the benchmark measures against:
// seeded random walks with a planted block of near-duplicates so selective
// range queries have answers.
func perfStore(tb testing.TB) (*DB, [][]float64) {
	tb.Helper()
	db, err := NewDB(perfLen, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(perfSeed))
	data := make([][]float64, perfSeries)
	names := make([]string, perfSeries)
	for i := range data {
		if i >= perfSeries/2 && i < perfSeries/2+perfSeries/10 {
			src := data[i-perfSeries/2]
			dup := make([]float64, perfLen)
			for j := range dup {
				dup[j] = src[j] + r.NormFloat64()*0.1
			}
			data[i] = dup
		} else {
			data[i] = dataset.RandomWalk(r, perfLen)
		}
		names[i] = fmt.Sprintf("W%04d", i)
	}
	if err := db.InsertBulk(names, data); err != nil {
		tb.Fatal(err)
	}
	return db, data
}

// perfQueryVecs returns slightly perturbed copies of stored series, so
// every query has at least its source (and that source's near-duplicate)
// in range.
func perfQueryVecs(data [][]float64) [][]float64 {
	r := rand.New(rand.NewSource(perfSeed + 1))
	qs := make([][]float64, perfQueries)
	for i := range qs {
		src := data[i]
		q := make([]float64, perfLen)
		for j := range q {
			q[j] = src[j] + r.NormFloat64()*0.02
		}
		qs[i] = q
	}
	return qs
}

// perfKind is one measured query kind: a pre-planned op the measurement
// loop can run repeatedly with no per-op planning cost.
type perfKind struct {
	name string
	// run executes op i and returns the number of results it produced.
	run func(i int) int
}

// perfKinds pre-plans the benchmark's query mix against db. Plans are
// built once per query vector; the hot loop is ExecRangeInto/ExecNNInto
// only.
func perfKinds(tb testing.TB, db *DB, data [][]float64) []perfKind {
	tb.Helper()
	qvecs := perfQueryVecs(data)
	id := transform.Identity(perfLen)
	mavg := transform.MovingAverage(perfLen, 8)

	type rangeOp struct {
		q  RangeQuery
		pl *plan.Plan
	}
	type nnOp struct {
		q  NNQuery
		pl *plan.Plan
	}
	planRangeOps := func(vecs [][]float64, tr transform.T, eps float64, want plan.Strategy) []rangeOp {
		ops := make([]rangeOp, len(vecs))
		for i, v := range vecs {
			q := RangeQuery{Values: v, Eps: eps, Transform: tr}
			pl, err := db.PlanRange(q, want)
			if err != nil {
				tb.Fatal(err)
			}
			ops[i] = rangeOp{q: q, pl: pl}
		}
		return ops
	}
	planNNOps := func(vecs [][]float64, tr transform.T, want plan.Strategy) []nnOp {
		ops := make([]nnOp, len(vecs))
		for i, v := range vecs {
			q := NNQuery{Values: v, K: perfK, Transform: tr}
			pl, err := db.PlanNN(q, want)
			if err != nil {
				tb.Fatal(err)
			}
			ops[i] = nnOp{q: q, pl: pl}
		}
		return ops
	}

	riOps := planRangeOps(qvecs, id, perfEps, plan.Index)
	rsOps := planRangeOps(qvecs, id, perfEps, plan.ScanFreq)
	// The transformed kind queries with smoothed series: the query-language
	// semantics compare T(nf(x)) against nf(q), so a raw-walk q matches
	// nothing under mavg.
	mavgVecs := make([][]float64, perfQueries)
	for i := range mavgVecs {
		mavgVecs[i] = mavg.ApplyTime(data[i])
	}
	rmOps := planRangeOps(mavgVecs, mavg, perfEpsMavg, plan.Index)
	niOps := planNNOps(qvecs, id, plan.Index)
	nsOps := planNNOps(qvecs, id, plan.ScanFreq)

	// Each kind reuses one result buffer across ops via the Into entry
	// points — the steady-state calling convention the zero-allocation
	// contract is stated for (see TestHotPathZeroAlloc).
	runRange := func(ops []rangeOp) func(i int) int {
		var dst []Result
		return func(i int) int {
			op := &ops[i%len(ops)]
			res, _, err := db.ExecRangeInto(op.q, op.pl, dst[:0])
			if err != nil {
				tb.Fatal(err)
			}
			dst = res
			return len(res)
		}
	}
	runNN := func(ops []nnOp) func(i int) int {
		var dst []Result
		return func(i int) int {
			op := &ops[i%len(ops)]
			res, _, err := db.ExecNNInto(op.q, op.pl, dst[:0])
			if err != nil {
				tb.Fatal(err)
			}
			dst = res
			return len(res)
		}
	}

	return []perfKind{
		{name: "range_index", run: runRange(riOps)},
		{name: "range_scan", run: runRange(rsOps)},
		{name: "range_index_mavg", run: runRange(rmOps)},
		{name: "nn_index", run: runNN(niOps)},
		{name: "nn_scan", run: runNN(nsOps)},
	}
}

func BenchmarkExecHotPath(b *testing.B) {
	db, data := perfStore(b)
	kinds := perfKinds(b, db, data)
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.run(i)
			}
		})
	}
}
