// Package experiments regenerates every figure and table of the paper's
// evaluation (Section 5) against this reproduction:
//
//	Figure 8  — range-query time vs sequence length, index with an
//	            (identity) transformation vs index without transformations
//	Figure 9  — the same comparison vs number of sequences
//	Figure 10 — index with transformation vs sequential scan, vs length
//	Figure 11 — the same comparison vs number of sequences
//	Figure 12 — query time vs answer-set size on the stock-like relation
//	Table 1   — the spatial self-join under T_mavg20, methods (a)-(d)
//
// plus ablation studies of the design's own choices (ablations.go). The
// harness produces plain data rows; cmd/tsqbench renders them as text
// tables, and bench_test.go exposes each experiment as a Go benchmark.
//
// Absolute milliseconds differ from the 1997 hardware, of course; the
// assertions worth making — and the ones the accompanying tests make —
// are about shape: which method wins, how the gap scales, where the
// crossover sits, and the exact answer-set cardinalities of Table 1.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/transform"
)

// Config tunes how many query repetitions each timing point averages over
// and the base RNG seed. The zero value selects sensible defaults.
type Config struct {
	Queries int
	Seed    int64
	// Eps is the range-query threshold for Figures 8-11 (default 1.0:
	// answer sets stay small, as in an exact-match-like workload).
	Eps float64
}

func (c Config) withDefaults() Config {
	if c.Queries == 0 {
		c.Queries = 20
	}
	if c.Seed == 0 {
		c.Seed = 1997
	}
	if c.Eps == 0 {
		c.Eps = 1.0
	}
	return c
}

// buildDB loads the given series into a fresh one-shard store.
func buildDB(seriesList []dataset.Series, length int) (*core.Store, error) {
	db, err := core.NewStore(length, 1, core.Options{})
	if err != nil {
		return nil, err
	}
	for _, s := range seriesList {
		if _, err := db.Insert(s.Name, s.Values); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// forcedRange runs a range query under a forced strategy — the figures set
// index against scan as two plans for one query, executed through the one
// entry point so both sides carry identical bookkeeping.
func forcedRange(db *core.Store, q core.RangeQuery, want plan.Strategy) ([]core.Result, core.ExecStats, error) {
	pl, err := db.PlanRange(q, want)
	if err != nil {
		return nil, core.ExecStats{}, err
	}
	return db.ExecRangeInto(q, pl, nil)
}

// msPerQuery runs fn once per query repetition and returns the mean
// duration in milliseconds.
func msPerQuery(queries int, fn func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < queries; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / 1000 / float64(queries), nil
}

// PageCostMs is the synthetic cost charged per relation page read when
// modeling 1997-era storage. The library itself never sleeps or pads
// timings; the harness reports modeled time = measured CPU time +
// PageCostMs * pages alongside raw wall time, because on an in-memory
// substrate the scan baselines pay no I/O at all and the paper's
// wall-clock comparisons (Figures 10-12, Table 1's index-vs-scan gap)
// were I/O-shaped.
const PageCostMs = 0.05

// headsPerPage is how many resident spectrum heads (relation.HeadCoeffs
// coefficients of 16 bytes) a 4 KiB page of the 1997 model holds.
const headsPerPage = 4096 / (16 * relation.HeadCoeffs)

// modeledPages prices one execution's storage reads for the 1997 model.
// The engine verifies a candidate off the first relation.HeadCoeffs
// coefficients of its spectrum, which it keeps in memory, and opens the
// record's pages only when those cannot decide — so ExecStats.PageReads,
// for index and scan methods alike, now counts little more than the answer
// set's neighbourhood (by Lemma 1 the same records either way), and on its
// own would price a scan of the whole relation like an index probe. A 1997
// system would hold the heads in a page file of their own, so the model
// charges them as page reads: one page per candidate for an index method,
// which reaches heads in index order, and one page per headsPerPage
// candidates for a scan (sequential), which sweeps them in storage order.
func modeledPages(st core.ExecStats, sequential bool) int64 {
	heads := int64(st.Candidates)
	if sequential {
		heads = (heads + headsPerPage - 1) / headsPerPage
	}
	return st.PageReads + heads
}

// Modeled returns the modeled duration in milliseconds for a measured
// duration plus page reads.
func Modeled(measuredMs float64, pages int64) float64 {
	return measuredMs + PageCostMs*float64(pages)
}

// TimingPoint is one x-position of a two-curve timing figure.
type TimingPoint struct {
	X float64
	// A and B are the two curves' mean query times in milliseconds; their
	// meaning depends on the figure (see each function's doc comment).
	A, B float64
	// NodesA and NodesB are mean index node accesses where applicable,
	// CandsA and CandsB mean verified candidates.
	NodesA, NodesB float64
	CandsA, CandsB float64
	// PagesA and PagesB are mean modeled page reads per query (see
	// modeledPages).
	PagesA, PagesB float64
}

// ModeledA returns the modeled milliseconds of curve A (see Modeled).
func (p TimingPoint) ModeledA() float64 { return p.A + PageCostMs*p.PagesA }

// ModeledB returns the modeled milliseconds of curve B.
func (p TimingPoint) ModeledB() float64 { return p.B + PageCostMs*p.PagesB }

// Figure8 reproduces the paper's Figure 8: mean range-query time as the
// sequence length grows (1,000 sequences), with curve A the index
// traversal through an identity *transformation* and curve B the plain
// index query. The paper's finding: the curves differ by a small constant
// (the vector-multiply CPU cost) and the disk (node) accesses are
// identical.
func Figure8(lengths []int, numSeries int, cfg Config) ([]TimingPoint, error) {
	cfg = cfg.withDefaults()
	out := make([]TimingPoint, 0, len(lengths))
	for _, n := range lengths {
		p, err := rangeIdentityComparison(n, numSeries, cfg)
		if err != nil {
			return nil, fmt.Errorf("figure 8, length %d: %w", n, err)
		}
		p.X = float64(n)
		out = append(out, p)
	}
	return out, nil
}

// Figure9 reproduces Figure 9: the same comparison as Figure 8 with the
// sequence length fixed (128) and the number of sequences growing.
func Figure9(counts []int, length int, cfg Config) ([]TimingPoint, error) {
	cfg = cfg.withDefaults()
	out := make([]TimingPoint, 0, len(counts))
	for _, count := range counts {
		p, err := rangeIdentityComparison(length, count, cfg)
		if err != nil {
			return nil, fmt.Errorf("figure 9, count %d: %w", count, err)
		}
		p.X = float64(count)
		out = append(out, p)
	}
	return out, nil
}

func rangeIdentityComparison(length, count int, cfg Config) (TimingPoint, error) {
	db, err := buildDB(dataset.RandomWalks(count, length, cfg.Seed), length)
	if err != nil {
		return TimingPoint{}, err
	}
	r := rand.New(rand.NewSource(cfg.Seed + 1))
	ids := db.IDs()
	pick := make([]int64, cfg.Queries)
	for i := range pick {
		pick[i] = ids[r.Intn(len(ids))]
	}
	ident := transform.Identity(length)

	var nodesWith, nodesPlain, candsWith, candsPlain int
	msWith, err := msPerQuery(cfg.Queries, func(i int) error {
		vals, err := db.Series(pick[i])
		if err != nil {
			return err
		}
		_, st, err := forcedRange(db, core.RangeQuery{
			Values: vals, Eps: cfg.Eps, Transform: ident, ForceTransform: true,
		}, plan.Index)
		nodesWith += st.NodeAccesses
		candsWith += st.Candidates
		return err
	})
	if err != nil {
		return TimingPoint{}, err
	}
	msPlain, err := msPerQuery(cfg.Queries, func(i int) error {
		vals, err := db.Series(pick[i])
		if err != nil {
			return err
		}
		_, st, err := forcedRange(db, core.RangeQuery{
			Values: vals, Eps: cfg.Eps, Transform: ident,
		}, plan.Index)
		nodesPlain += st.NodeAccesses
		candsPlain += st.Candidates
		return err
	})
	if err != nil {
		return TimingPoint{}, err
	}
	q := float64(cfg.Queries)
	return TimingPoint{
		A: msWith, B: msPlain,
		NodesA: float64(nodesWith) / q, NodesB: float64(nodesPlain) / q,
		CandsA: float64(candsWith) / q, CandsB: float64(candsPlain) / q,
	}, nil
}

// Figure10 reproduces Figure 10: curve A is the index with a (moving
// average) transformation, curve B the sequential scan over the
// frequency-domain relation with the same transformation, as the sequence
// length grows. The paper's finding: the index wins, increasingly so.
func Figure10(lengths []int, numSeries int, cfg Config) ([]TimingPoint, error) {
	cfg = cfg.withDefaults()
	out := make([]TimingPoint, 0, len(lengths))
	for _, n := range lengths {
		p, err := indexVsScan(n, numSeries, cfg)
		if err != nil {
			return nil, fmt.Errorf("figure 10, length %d: %w", n, err)
		}
		p.X = float64(n)
		out = append(out, p)
	}
	return out, nil
}

// Figure11 reproduces Figure 11: the same comparison as Figure 10 with
// length fixed (128) and the number of sequences growing.
func Figure11(counts []int, length int, cfg Config) ([]TimingPoint, error) {
	cfg = cfg.withDefaults()
	out := make([]TimingPoint, 0, len(counts))
	for _, count := range counts {
		p, err := indexVsScan(length, count, cfg)
		if err != nil {
			return nil, fmt.Errorf("figure 11, count %d: %w", count, err)
		}
		p.X = float64(count)
		out = append(out, p)
	}
	return out, nil
}

func indexVsScan(length, count int, cfg Config) (TimingPoint, error) {
	db, err := buildDB(dataset.RandomWalks(count, length, cfg.Seed), length)
	if err != nil {
		return TimingPoint{}, err
	}
	r := rand.New(rand.NewSource(cfg.Seed + 2))
	ids := db.IDs()
	pick := make([]int64, cfg.Queries)
	for i := range pick {
		pick[i] = ids[r.Intn(len(ids))]
	}
	window := 20
	if window > length/2 {
		window = length / 2
	}
	mavg := transform.MovingAverage(length, window)

	var pagesIndex, pagesScan int64
	msIndex, err := msPerQuery(cfg.Queries, func(i int) error {
		vals, err := db.Series(pick[i])
		if err != nil {
			return err
		}
		_, st, err := forcedRange(db, core.RangeQuery{
			Values: vals, Eps: cfg.Eps, Transform: mavg, BothSides: true,
		}, plan.Index)
		pagesIndex += modeledPages(st, false)
		return err
	})
	if err != nil {
		return TimingPoint{}, err
	}
	msScan, err := msPerQuery(cfg.Queries, func(i int) error {
		vals, err := db.Series(pick[i])
		if err != nil {
			return err
		}
		_, st, err := forcedRange(db, core.RangeQuery{
			Values: vals, Eps: cfg.Eps, Transform: mavg, BothSides: true,
		}, plan.ScanFreq)
		pagesScan += modeledPages(st, true)
		return err
	})
	if err != nil {
		return TimingPoint{}, err
	}
	q := float64(cfg.Queries)
	return TimingPoint{
		A: msIndex, B: msScan,
		PagesA: float64(pagesIndex) / q, PagesB: float64(pagesScan) / q,
	}, nil
}

// Figure12Point is one threshold setting of Figure 12.
type Figure12Point struct {
	Eps        float64
	AnswerSize int
	MsIndex    float64
	MsScan     float64
	PagesIndex float64
	PagesScan  float64
}

// ModeledIndex returns the modeled milliseconds of the index curve.
func (p Figure12Point) ModeledIndex() float64 { return p.MsIndex + PageCostMs*p.PagesIndex }

// ModeledScan returns the modeled milliseconds of the scan curve.
func (p Figure12Point) ModeledScan() float64 { return p.MsScan + PageCostMs*p.PagesScan }

// Figure12 reproduces Figure 12: on the stock-like relation (1067 series
// of length 128), the threshold sweeps upward so the answer set grows from
// near-empty to a large fraction of the relation; the index beats the scan
// until the answer set reaches roughly a third of the relation, after
// which the scan's single pass wins.
func Figure12(epsValues []float64, cfg Config) ([]Figure12Point, error) {
	cfg = cfg.withDefaults()
	ens := dataset.DefaultStockEnsemble(cfg.Seed)
	db, err := buildDB(ens.Series, 128)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed + 3))
	ids := db.IDs()
	pick := make([]int64, cfg.Queries)
	for i := range pick {
		pick[i] = ids[r.Intn(len(ids))]
	}
	mavg := transform.MovingAverage(128, 20)

	out := make([]Figure12Point, 0, len(epsValues))
	for _, eps := range epsValues {
		var answers int
		var pagesIndex, pagesScan int64
		msIndex, err := msPerQuery(cfg.Queries, func(i int) error {
			vals, err := db.Series(pick[i])
			if err != nil {
				return err
			}
			res, st, err := forcedRange(db, core.RangeQuery{
				Values: vals, Eps: eps, Transform: mavg, BothSides: true,
			}, plan.Index)
			answers += len(res)
			pagesIndex += modeledPages(st, false)
			return err
		})
		if err != nil {
			return nil, err
		}
		msScan, err := msPerQuery(cfg.Queries, func(i int) error {
			vals, err := db.Series(pick[i])
			if err != nil {
				return err
			}
			_, st, err := forcedRange(db, core.RangeQuery{
				Values: vals, Eps: eps, Transform: mavg, BothSides: true,
			}, plan.ScanFreq)
			pagesScan += modeledPages(st, true)
			return err
		})
		if err != nil {
			return nil, err
		}
		q := float64(cfg.Queries)
		out = append(out, Figure12Point{
			Eps:        eps,
			AnswerSize: answers / cfg.Queries,
			MsIndex:    msIndex,
			MsScan:     msScan,
			PagesIndex: float64(pagesIndex) / q,
			PagesScan:  float64(pagesScan) / q,
		})
	}
	return out, nil
}

// Table1Row is one method's line of Table 1.
type Table1Row struct {
	Method        string
	Elapsed       time.Duration
	AnswerSize    int
	PageReads     int64 // modeled, see modeledPages
	DistanceTerms int64
}

// Table1 reproduces the paper's Table 1: the spatial self-join "find all
// pairs of stocks whose 20-day moving averages are within eps" on the
// stock-like relation, under the four execution methods. The paper's
// ordering — (a) slowest by an order of magnitude over (b), both far
// slower than the index methods (c, d), with (d) slightly slower than (c)
// — and the answer cardinalities 12 / 12 / 3x2 / 12x2 are the
// reproduction targets.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	ens := dataset.DefaultStockEnsemble(cfg.Seed)
	db, err := buildDB(ens.Series, 128)
	if err != nil {
		return nil, err
	}
	mavg := transform.MovingAverage(128, 20)
	methods := []core.JoinMethod{
		core.JoinScanNaive,
		core.JoinScanEarlyAbandon,
		core.JoinIndexPlain,
		core.JoinIndexTransform,
	}
	out := make([]Table1Row, 0, len(methods))
	for _, m := range methods {
		pairs, st, err := db.SelfJoin(ens.Epsilon, mavg, m)
		if err != nil {
			return nil, err
		}
		out = append(out, Table1Row{
			Method:        m.String(),
			Elapsed:       st.Elapsed,
			AnswerSize:    len(pairs),
			PageReads:     modeledPages(st, m == core.JoinScanNaive || m == core.JoinScanEarlyAbandon),
			DistanceTerms: st.DistanceTerms,
		})
	}
	return out, nil
}

// DefaultFigure8Lengths are the paper's x positions for Figures 8 and 10.
var DefaultFigure8Lengths = []int{64, 128, 256, 512, 1024}

// DefaultFigure9Counts are the paper's x positions for Figures 9 and 11.
var DefaultFigure9Counts = []int{500, 1000, 2000, 4000, 8000, 12000}

// DefaultFigure12Eps sweeps thresholds so answer sizes span the paper's
// 0..400 range on the 1067-series relation.
var DefaultFigure12Eps = []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
