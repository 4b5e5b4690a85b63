package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/rtree"
	"repro/internal/transform"
)

// AblationResult is one before/after comparison.
type AblationResult struct {
	Name string
	// Baseline and Variant are the two measurements; Metric names their
	// unit.
	Baseline, Variant float64
	Metric            string
	// Note records qualitative findings (e.g. missed answers).
	Note string
}

// AblationReinsert measures R*-tree forced reinsertion: node accesses per
// query with reinsertion on (baseline) vs off (variant). BKSS90's claim —
// reinsertion buys better-clustered nodes, hence fewer accesses — should
// reproduce.
func AblationReinsert(cfg Config) (AblationResult, error) {
	cfg = cfg.withDefaults()
	const length, count = 128, 2000
	walks := dataset.RandomWalks(count, length, cfg.Seed)
	sc := feature.DefaultSchema

	nodes := func(disable bool) (float64, error) {
		ix, err := index.New(sc, rtree.Options{DisableReinsert: disable})
		if err != nil {
			return 0, err
		}
		for i, w := range walks {
			if err := ix.InsertSeries(int64(i), w.Values); err != nil {
				return 0, err
			}
		}
		idm := transform.IdentityMap(sc.Dims(), sc.Angular())
		total := 0
		var scr index.Scratch
		for i := 0; i < cfg.Queries; i++ {
			q, err := sc.Extract(walks[(i*37)%count].Values)
			if err != nil {
				return 0, err
			}
			_, st := ix.RangeIDs(q, cfg.Eps, idm, feature.MomentBounds{}, true, &scr, nil)
			total += st.NodesVisited
		}
		return float64(total) / float64(cfg.Queries), nil
	}
	withR, err := nodes(false)
	if err != nil {
		return AblationResult{}, err
	}
	withoutR, err := nodes(true)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "forced reinsertion",
		Baseline: withR, Variant: withoutR,
		Metric: "index node accesses per query (reinsert on vs off)",
	}, nil
}

// AblationBulkLoad compares STR bulk loading (variant) against one-by-one
// insertion (baseline): build time, with query node accesses as the note.
func AblationBulkLoad(cfg Config) (AblationResult, error) {
	cfg = cfg.withDefaults()
	const length, count = 128, 4000
	walks := dataset.RandomWalks(count, length, cfg.Seed)
	sc := feature.DefaultSchema
	points := make([]geom.Point, count)
	ids := make([]int64, count)
	for i, w := range walks {
		p, err := sc.Extract(w.Values)
		if err != nil {
			return AblationResult{}, err
		}
		points[i] = p
		ids[i] = int64(i)
	}

	start := time.Now()
	inc, err := index.New(sc, rtree.Options{})
	if err != nil {
		return AblationResult{}, err
	}
	for i := range points {
		if err := inc.Insert(ids[i], points[i]); err != nil {
			return AblationResult{}, err
		}
	}
	incBuild := time.Since(start)

	start = time.Now()
	bulk, err := index.New(sc, rtree.Options{})
	if err != nil {
		return AblationResult{}, err
	}
	if err := bulk.BulkLoad(points, ids); err != nil {
		return AblationResult{}, err
	}
	bulkBuild := time.Since(start)

	idm := transform.IdentityMap(sc.Dims(), sc.Angular())
	var incNodes, bulkNodes int
	var scr index.Scratch
	for i := 0; i < cfg.Queries; i++ {
		q := points[(i*41)%count]
		_, st := inc.RangeIDs(q, cfg.Eps, idm, feature.MomentBounds{}, true, &scr, nil)
		incNodes += st.NodesVisited
		_, st = bulk.RangeIDs(q, cfg.Eps, idm, feature.MomentBounds{}, true, &scr, nil)
		bulkNodes += st.NodesVisited
	}
	return AblationResult{
		Name:     "STR bulk load",
		Baseline: float64(incBuild.Microseconds()) / 1000,
		Variant:  float64(bulkBuild.Microseconds()) / 1000,
		Metric:   "index build time ms (incremental vs bulk)",
		Note: fmt.Sprintf("node accesses/query: incremental %.1f, bulk %.1f",
			float64(incNodes)/float64(cfg.Queries), float64(bulkNodes)/float64(cfg.Queries)),
	}, nil
}

// AblationEarlyAbandon measures the distance-term savings of early
// abandoning in the scan baseline (the paper's 10x between join methods
// (a) and (b) comes from exactly this).
func AblationEarlyAbandon(cfg Config) (AblationResult, error) {
	cfg = cfg.withDefaults()
	const length, count = 128, 1000
	db, err := buildDB(dataset.RandomWalks(count, length, cfg.Seed), length)
	if err != nil {
		return AblationResult{}, err
	}
	mavg := transform.MovingAverage(length, 20)
	ids := db.IDs()

	var withTerms, withoutTerms int64
	for i := 0; i < cfg.Queries; i++ {
		vals, err := db.Series(ids[(i*43)%count])
		if err != nil {
			return AblationResult{}, err
		}
		// Early abandoning scan.
		_, st, err := forcedRange(db, core.RangeQuery{
			Values: vals, Eps: cfg.Eps, Transform: mavg, BothSides: true,
		}, plan.ScanFreq)
		if err != nil {
			return AblationResult{}, err
		}
		withTerms += st.DistanceTerms
		// Full-distance scan: the time-domain baseline computes every term.
		_, st2, err := forcedRange(db, core.RangeQuery{
			Values: vals, Eps: cfg.Eps, Transform: mavg, BothSides: true,
		}, plan.ScanTime)
		if err != nil {
			return AblationResult{}, err
		}
		withoutTerms += st2.DistanceTerms
	}
	return AblationResult{
		Name:     "early abandoning",
		Baseline: float64(withoutTerms) / float64(cfg.Queries),
		Variant:  float64(withTerms) / float64(cfg.Queries),
		Metric:   "distance terms per query (full vs abandoning)",
	}, nil
}

// AblationPartialPrune measures the k-coefficient candidate pruning inside
// the index filter phase: candidates verified per query with pruning off
// (baseline) vs on (variant).
func AblationPartialPrune(cfg Config) (AblationResult, error) {
	cfg = cfg.withDefaults()
	const length, count = 128, 1000
	walks := dataset.RandomWalks(count, length, cfg.Seed)
	mk := func(disable bool) (*core.DB, error) {
		db, err := core.NewDB(length, core.Options{DisablePartialPrune: disable})
		if err != nil {
			return nil, err
		}
		for _, w := range walks {
			if _, err := db.Insert(w.Name, w.Values); err != nil {
				return nil, err
			}
		}
		return db, nil
	}
	dbOn, err := mk(false)
	if err != nil {
		return AblationResult{}, err
	}
	dbOff, err := mk(true)
	if err != nil {
		return AblationResult{}, err
	}
	mavg := transform.MovingAverage(length, 20)
	var on, off int
	onIDs := dbOn.IDs()
	for i := 0; i < cfg.Queries; i++ {
		vals, err := dbOn.Series(onIDs[(i*47)%count])
		if err != nil {
			return AblationResult{}, err
		}
		rq := core.RangeQuery{Values: vals, Eps: cfg.Eps, Transform: mavg, BothSides: true}
		_, st1, err := forcedRange(dbOn, rq, plan.Index)
		if err != nil {
			return AblationResult{}, err
		}
		on += st1.Candidates
		_, st2, err := forcedRange(dbOff, rq, plan.Index)
		if err != nil {
			return AblationResult{}, err
		}
		off += st2.Candidates
	}
	return AblationResult{
		Name:     "partial-distance pruning",
		Baseline: float64(off) / float64(cfg.Queries),
		Variant:  float64(on) / float64(cfg.Queries),
		Metric:   "verified candidates per query (prune off vs on)",
	}, nil
}

// KTradeoffRow is one K setting of the cut-off ablation.
type KTradeoffRow struct {
	K          int
	Dims       int
	Candidates float64 // verified candidates per query
	Nodes      float64 // index node accesses per query
	MsPerQuery float64
}

// AblationK sweeps the k-index cut-off (the paper: "this method requires a
// cut-off point for the number of Fourier coefficients kept in the
// index"; its experiments keep two). More coefficients filter more
// candidates but widen the index, growing node accesses — the sweep shows
// the trade-off the paper's K=2 choice sits on.
func AblationK(ks []int, cfg Config) ([]KTradeoffRow, error) {
	cfg = cfg.withDefaults()
	const length, count = 128, 1000
	walks := dataset.RandomWalks(count, length, cfg.Seed)
	mavg := transform.MovingAverage(length, 20)
	out := make([]KTradeoffRow, 0, len(ks))
	for _, k := range ks {
		sc := feature.Schema{Space: feature.Polar, K: k, Moments: true}
		db, err := core.NewDB(length, core.Options{Schema: sc})
		if err != nil {
			return nil, err
		}
		for _, w := range walks {
			if _, err := db.Insert(w.Name, w.Values); err != nil {
				return nil, err
			}
		}
		var cands, nodes int
		ids := db.IDs()
		ms, err := msPerQuery(cfg.Queries, func(i int) error {
			vals, err := db.Series(ids[(i*53)%count])
			if err != nil {
				return err
			}
			_, st, err := forcedRange(db, core.RangeQuery{
				Values: vals, Eps: cfg.Eps, Transform: mavg, BothSides: true,
			}, plan.Index)
			cands += st.Candidates
			nodes += st.NodeAccesses
			return err
		})
		if err != nil {
			return nil, err
		}
		q := float64(cfg.Queries)
		out = append(out, KTradeoffRow{
			K:          k,
			Dims:       sc.Dims(),
			Candidates: float64(cands) / q,
			Nodes:      float64(nodes) / q,
			MsPerQuery: ms,
		})
	}
	return out, nil
}

// AblationAngularSeam measures the correctness cost of ignoring the
// +/- pi seam on phase-angle dimensions (as a plain reading of the paper
// would): the number of true answers the seam-unaware traversal dismisses
// across a workload of moving-average queries, which rotate phases and
// push intervals across the seam.
func AblationAngularSeam(cfg Config) (AblationResult, error) {
	cfg = cfg.withDefaults()
	const length, count = 128, 800
	walks := dataset.RandomWalks(count, length, cfg.Seed)
	sc := feature.DefaultSchema
	ix, err := index.New(sc, rtree.Options{})
	if err != nil {
		return AblationResult{}, err
	}
	for i, w := range walks {
		if err := ix.InsertSeries(int64(i), w.Values); err != nil {
			return AblationResult{}, err
		}
	}
	// Rotate phases by a large angle: compose moving average (whose
	// spectrum rotates phases) with itself for variety across coefficients.
	mavg := transform.MovingAverage(length, 20)
	m, err := sc.Map(mavg)
	if err != nil {
		return AblationResult{}, err
	}

	missed, total := 0, 0
	var scr index.Scratch
	for i := 0; i < count; i += count / (cfg.Queries * 2) {
		q, err := sc.Extract(walks[i].Values)
		if err != nil {
			return AblationResult{}, err
		}
		tq := m.ApplyPoint(q)
		// Seam-aware candidates (reference).
		ix.SetPlainOverlap(false)
		ref, _ := ix.RangeIDs(tq, 2.0, m, feature.MomentBounds{}, false, &scr, nil)
		// Seam-unaware.
		ix.SetPlainOverlap(true)
		plain, _ := ix.RangeIDs(tq, 2.0, m, feature.MomentBounds{}, false, &scr, nil)
		ix.SetPlainOverlap(false)
		got := map[int64]bool{}
		for _, id := range plain {
			got[id] = true
		}
		for _, id := range ref {
			total++
			if !got[id] {
				missed++
			}
		}
	}
	return AblationResult{
		Name:     "angular seam handling",
		Baseline: float64(total),
		Variant:  float64(missed),
		Metric:   "candidates (seam-aware total vs dismissed by plain overlap)",
		Note:     "any nonzero dismissal count is a correctness bug in the seam-unaware variant",
	}, nil
}

// AblationBufferPool reruns Table 1's method (a) join over a disk-backed
// store twice: behind a buffer pool of a few pages, then behind one sized to
// hold the whole frequency-domain relation. Logical page requests stay in
// the tens of thousands either way; with the relation pooled, physical reads
// collapse to one cold pass. This is why the paper's scans were CPU-bound
// after the first pass (their ~2 MB relation fit the buffer manager) and why
// method (a) vs (b) differed by CPU, not I/O. (Method (a) and not (b): the
// early-abandoning join now drops nearly every pair inside the resident
// spectrum head and asks for almost no inner pages, whatever the pool; the
// naive join walks every inner record in full and is the one whose reads a
// pool absorbs.)
func AblationBufferPool(cfg Config) (AblationResult, error) {
	cfg = cfg.withDefaults()
	ens, err := dataset.StockLike(400, 128, cfg.Seed, 2, 4, 0)
	if err != nil {
		return AblationResult{}, err
	}
	run := func(cachePages int) (int64, error) {
		dir, err := os.MkdirTemp("", "tsq-ablation-pool-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		db, err := core.NewDB(128, core.Options{Backing: dir, CachePages: cachePages})
		if err != nil {
			return 0, err
		}
		defer db.Close()
		for _, s := range ens.Series {
			if _, err := db.Insert(s.Name, s.Values); err != nil {
				return 0, err
			}
		}
		_, st, err := db.SelfJoin(ens.Epsilon, transform.MovingAverage(128, 20), core.JoinScanNaive)
		if err != nil {
			return 0, err
		}
		return st.PageReads, nil
	}
	tiny, err := run(4)
	if err != nil {
		return AblationResult{}, err
	}
	sized, err := run(4096) // comfortably holds the 400-record relation
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "buffer pool",
		Baseline: float64(tiny),
		Variant:  float64(sized),
		Metric:   "physical page reads for the method-(a) join on disk (4-page pool vs relation-sized pool)",
		Note:     "with the relation pooled, only the cold first pass touches storage",
	}, nil
}
