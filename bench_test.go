// Benchmarks regenerating the paper's evaluation, one benchmark (pair) per
// figure and table — internal/experiments' package doc indexes them. The
// two curves of each figure appear as sibling sub-benchmarks so
// `go test -bench=.` output reads like the paper's plots:
//
//	Figure 8/9:  IndexWithTransform vs IndexPlain  (identity transformation)
//	Figure 10/11: Index vs SeqScan                 (moving-average transformation)
//	Figure 12:   Index vs SeqScan at growing answer-set sizes
//	Table 1:     join methods a, b, c, d
//
// plus ablation benchmarks of the design's own choices. Fixtures are
// one-shard stores built once per (count, length) and reused across
// benchmarks.
package tsq_test

import (
	"fmt"
	"sync"
	"testing"

	tsq "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/rtree"
	"repro/internal/transform"
)

// ---------------------------------------------------------------------------
// Fixtures

var (
	fixtureMu sync.Mutex
	fixtures  = map[string]*core.Store{}
)

func walkDB(b *testing.B, count, length int) *core.Store {
	b.Helper()
	key := fmt.Sprintf("walks/%d/%d", count, length)
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if db, ok := fixtures[key]; ok {
		return db
	}
	db, err := core.NewStore(length, 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range dataset.RandomWalks(count, length, 1997) {
		if _, err := db.Insert(s.Name, s.Values); err != nil {
			b.Fatal(err)
		}
	}
	fixtures[key] = db
	return db
}

func stockDB(b *testing.B) (*core.Store, *dataset.StockEnsemble) {
	b.Helper()
	key := "stock"
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if db, ok := fixtures[key]; ok {
		return db, stockEns
	}
	stockEns = dataset.DefaultStockEnsemble(1997)
	db, err := core.NewStore(128, 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range stockEns.Series {
		if _, err := db.Insert(s.Name, s.Values); err != nil {
			b.Fatal(err)
		}
	}
	fixtures[key] = db
	return db, stockEns
}

var stockEns *dataset.StockEnsemble

func queryValues(b *testing.B, db *core.Store, i int) []float64 {
	b.Helper()
	ids := db.IDs()
	vals, err := db.Series(ids[(i*37)%len(ids)])
	if err != nil {
		b.Fatal(err)
	}
	return vals
}

// forcedRange runs a range query under a forced strategy: the figures set
// index against scan as two plans for one query.
func forcedRange(db *core.Store, q core.RangeQuery, want plan.Strategy) ([]core.Result, core.ExecStats, error) {
	pl, err := db.PlanRange(q, want)
	if err != nil {
		return nil, core.ExecStats{}, err
	}
	return db.ExecRangeInto(q, pl, nil)
}

// ---------------------------------------------------------------------------
// Figure 8: range query time vs sequence length (1000 sequences), identity
// transformation through the transform path vs the plain path.

func benchmarkFig8(b *testing.B, length int, force bool) {
	db := walkDB(b, 1000, length)
	ident := transform.Identity(length)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := forcedRange(db, core.RangeQuery{
			Values: queryValues(b, db, i), Eps: 1, Transform: ident, ForceTransform: force,
		}, plan.Index)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8_IndexWithTransform(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) { benchmarkFig8(b, n, true) })
	}
}

func BenchmarkFigure8_IndexPlain(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) { benchmarkFig8(b, n, false) })
	}
}

// ---------------------------------------------------------------------------
// Figure 9: the same comparison vs number of sequences (length 128).

func benchmarkFig9(b *testing.B, count int, force bool) {
	db := walkDB(b, count, 128)
	ident := transform.Identity(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := forcedRange(db, core.RangeQuery{
			Values: queryValues(b, db, i), Eps: 1, Transform: ident, ForceTransform: force,
		}, plan.Index)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9_IndexWithTransform(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000, 8000, 12000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkFig9(b, n, true) })
	}
}

func BenchmarkFigure9_IndexPlain(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000, 8000, 12000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkFig9(b, n, false) })
	}
}

// ---------------------------------------------------------------------------
// Figure 10: index vs sequential scan vs sequence length (1000 sequences),
// moving-average transformation on both sides.

func benchmarkFig10(b *testing.B, length int, scan bool) {
	db := walkDB(b, 1000, length)
	window := 20
	if window > length/2 {
		window = length / 2
	}
	mavg := transform.MovingAverage(length, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rq := core.RangeQuery{
			Values: queryValues(b, db, i), Eps: 1, Transform: mavg, BothSides: true,
		}
		var err error
		if scan {
			_, _, err = forcedRange(db, rq, plan.ScanFreq)
		} else {
			_, _, err = forcedRange(db, rq, plan.Index)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10_Index(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) { benchmarkFig10(b, n, false) })
	}
}

func BenchmarkFigure10_SeqScan(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) { benchmarkFig10(b, n, true) })
	}
}

// ---------------------------------------------------------------------------
// Figure 11: index vs sequential scan vs number of sequences (length 128).

func benchmarkFig11(b *testing.B, count int, scan bool) {
	db := walkDB(b, count, 128)
	mavg := transform.MovingAverage(128, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rq := core.RangeQuery{
			Values: queryValues(b, db, i), Eps: 1, Transform: mavg, BothSides: true,
		}
		var err error
		if scan {
			_, _, err = forcedRange(db, rq, plan.ScanFreq)
		} else {
			_, _, err = forcedRange(db, rq, plan.Index)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11_Index(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000, 8000, 12000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkFig11(b, n, false) })
	}
}

func BenchmarkFigure11_SeqScan(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000, 8000, 12000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkFig11(b, n, true) })
	}
}

// ---------------------------------------------------------------------------
// Figure 12: index vs scan at growing answer-set sizes on the stock-like
// relation (thresholds chosen so answers span the paper's 0..400).

func benchmarkFig12(b *testing.B, eps float64, scan bool) {
	db, _ := stockDB(b)
	mavg := transform.MovingAverage(128, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rq := core.RangeQuery{
			Values: queryValues(b, db, i), Eps: eps, Transform: mavg, BothSides: true,
		}
		var err error
		if scan {
			_, _, err = forcedRange(db, rq, plan.ScanFreq)
		} else {
			_, _, err = forcedRange(db, rq, plan.Index)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12_Index(b *testing.B) {
	for _, eps := range []float64{0.5, 2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) { benchmarkFig12(b, eps, false) })
	}
}

func BenchmarkFigure12_SeqScan(b *testing.B) {
	for _, eps := range []float64{0.5, 2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) { benchmarkFig12(b, eps, true) })
	}
}

// ---------------------------------------------------------------------------
// Table 1: the four self-join methods on the 1067x128 stock-like relation.

func benchmarkTable1(b *testing.B, method core.JoinMethod) {
	db, ens := stockDB(b)
	mavg := transform.MovingAverage(128, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs, _, err := db.SelfJoin(ens.Epsilon, mavg, method)
		if err != nil {
			b.Fatal(err)
		}
		if len(pairs) == 0 {
			b.Fatal("join found nothing")
		}
	}
}

func BenchmarkTable1_MethodA_SeqScan(b *testing.B) { benchmarkTable1(b, core.JoinScanNaive) }
func BenchmarkTable1_MethodB_EarlyAbandon(b *testing.B) {
	benchmarkTable1(b, core.JoinScanEarlyAbandon)
}
func BenchmarkTable1_MethodC_IndexPlain(b *testing.B) { benchmarkTable1(b, core.JoinIndexPlain) }
func BenchmarkTable1_MethodD_IndexTransform(b *testing.B) {
	benchmarkTable1(b, core.JoinIndexTransform)
}

// ---------------------------------------------------------------------------
// Ablations.

// BenchmarkAblationMaterializedIndex compares Algorithm 2's on-the-fly
// transformed traversal against searching a pre-materialized transformed
// index (Algorithm 1 applied eagerly). The paper's claim: building I' on
// the fly costs no disk and little time, so one index serves many
// transformations.
func BenchmarkAblationMaterializedIndex(b *testing.B) {
	sc := feature.DefaultSchema
	walks := dataset.RandomWalks(2000, 128, 1997)
	ix, err := index.New(sc, rtree.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for j, w := range walks {
		if err := ix.InsertSeries(int64(j), w.Values); err != nil {
			b.Fatal(err)
		}
	}
	mavg := transform.MovingAverage(128, 20)
	m, err := sc.Map(mavg)
	if err != nil {
		b.Fatal(err)
	}
	idm := transform.IdentityMap(sc.Dims(), sc.Angular())
	query := func(i int) geom.Point {
		q, _ := sc.Extract(walks[(i*37)%len(walks)].Values)
		return m.ApplyPoint(q)
	}

	var scr index.Scratch
	var ids []int64
	b.Run("on-the-fly", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ids, _ = ix.RangeIDs(query(i), 1, m, feature.MomentBounds{}, true, &scr, ids[:0])
		}
	})
	b.Run("materialize-then-search", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mat := ix.Materialize(m) // paid per transformation change
			ids, _ = mat.RangeIDs(query(i), 1, idm, feature.MomentBounds{}, true, &scr, ids[:0])
		}
	})
	b.Run("search-premat", func(b *testing.B) {
		mat := ix.Materialize(m)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids, _ = mat.RangeIDs(query(i), 1, idm, feature.MomentBounds{}, true, &scr, ids[:0])
		}
	})
}

// BenchmarkAblationEarlyAbandon isolates the early-abandoning optimization
// of the scan baseline.
func BenchmarkAblationEarlyAbandon(b *testing.B) {
	db := walkDB(b, 1000, 128)
	mavg := transform.MovingAverage(128, 20)
	b.Run("abandon", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			forcedRange(db, core.RangeQuery{
				Values: queryValues(b, db, i), Eps: 1, Transform: mavg, BothSides: true,
			}, plan.ScanFreq)
		}
	})
	b.Run("full-distance", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			forcedRange(db, core.RangeQuery{
				Values: queryValues(b, db, i), Eps: 1, Transform: mavg, BothSides: true,
			}, plan.ScanTime)
		}
	})
}

// BenchmarkAblationPartialPrune measures the k-coefficient pruning of
// index candidates on a bare k-index, the paper's filter at eps (the store
// always prunes).
func BenchmarkAblationPartialPrune(b *testing.B) {
	sc := feature.DefaultSchema
	walks := dataset.RandomWalks(1000, 128, 1997)
	ix, err := index.New(sc, rtree.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for j, w := range walks {
		if err := ix.InsertSeries(int64(j), w.Values); err != nil {
			b.Fatal(err)
		}
	}
	m, err := sc.Map(transform.MovingAverage(128, 20))
	if err != nil {
		b.Fatal(err)
	}
	query := func(i int) geom.Point {
		q, _ := sc.Extract(walks[(i*37)%len(walks)].Values)
		return m.ApplyPoint(q)
	}
	var scr index.Scratch
	var ids []int64
	for _, tc := range []struct {
		name  string
		prune bool
	}{{"prune-on", true}, {"prune-off", false}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ids, _ = ix.RangeIDs(query(i), 2, m, feature.MomentBounds{}, tc.prune, &scr, ids[:0])
			}
		})
	}
}

// BenchmarkAblationReinsert measures R*-tree build cost with and without
// forced reinsertion (query-quality effects are in the tsqbench ablation
// table; here the build-time cost of reinsertion is visible).
func BenchmarkAblationReinsert(b *testing.B) {
	sc := feature.DefaultSchema
	walks := dataset.RandomWalks(2000, 128, 1997)
	points := make([][]float64, len(walks))
	for i, w := range walks {
		points[i] = w.Values
	}
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"reinsert-on", false}, {"reinsert-off", true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix, err := index.New(sc, rtree.Options{DisableReinsert: tc.disable})
				if err != nil {
					b.Fatal(err)
				}
				for j, vals := range points {
					if err := ix.InsertSeries(int64(j), vals); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkWarpQuery exercises the Appendix A path end to end: warped
// queries against the half-rate store.
func BenchmarkWarpQuery(b *testing.B) {
	db := walkDB(b, 1000, 128)
	warp := transform.Warp(128, 2)
	base := queryValues(b, db, 0)
	warped := make([]float64, 0, 256)
	for _, v := range base {
		warped = append(warped, v, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := forcedRange(db, core.RangeQuery{
			Values: warped, Eps: 1, Transform: warp, WarpFactor: 2,
		}, plan.Index)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryLanguage measures the parse+plan+execute overhead of the
// declarative layer relative to the direct API (BenchmarkFigure9 at
// n=1000 is the direct-API equivalent).
func BenchmarkQueryLanguage(b *testing.B) {
	db, err := tsq.Open(tsq.Options{Length: 128})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.InsertAll(tsq.RandomWalks(1000, 128, 1997)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("RANGE SERIES 'W0123' EPS 1 TRANSFORM mavg(20) BOTH USING INDEX"); err != nil {
			b.Fatal(err)
		}
	}
}
