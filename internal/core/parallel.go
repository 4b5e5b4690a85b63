package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/stats"
	"repro/internal/transform"
)

// SelfJoinScanParallel is the parallel form of join method (b): the outer
// loop of the nested scan is partitioned across workers, each running the
// early-abandoning inner comparison independently (reads of the paged
// relations are safe to share). Results match selfJoinScan exactly
// (ordering included, pairs are re-sorted by outer then inner ID); the
// page-read and distance-term counters aggregate across workers.
//
// workers <= 0 selects GOMAXPROCS. The paper predates multicore concerns;
// this exists because a modern adopter of the system would expect the
// embarrassingly parallel join to use the machine.
func (db *DB) SelfJoinScanParallel(eps float64, t transform.T, workers int) ([]JoinPair, ExecStats, error) {
	var st ExecStats
	jp, err := db.planJoin(selfJoinQuery(eps, t))
	if err != nil {
		return nil, st, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	timer := stats.StartTimer()
	reads0 := db.pageReads()
	n := len(db.ids)

	type partial struct {
		pairs []JoinPair
		st    ExecStats
		err   error
	}
	results := make([]partial, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &results[w]
			var pages [][]byte
			// Strided outer partitioning balances the triangular workload
			// (early outer rows compare against more inner rows).
			for i := w; i < n; i += workers {
				X, err := db.spectrum(db.ids[i])
				if err != nil {
					out.err = err
					return
				}
				tx := make([]complex128, len(X))
				for f := range X {
					tx[f] = jp.la[f]*X[f] + jp.lb[f]
				}
				for j := i + 1; j < n; j++ {
					if out.pairs, out.err = db.scanInner(jp, db.ids[i], db.ids[j], tx, nil, true, &pages, &out.st, out.pairs); out.err != nil {
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var out []JoinPair
	for _, r := range results {
		if r.err != nil {
			return nil, st, fmt.Errorf("core: parallel join worker: %w", r.err)
		}
		out = append(out, r.pairs...)
		st.DistanceTerms += r.st.DistanceTerms
		st.Candidates += r.st.Candidates
		st.HeadResolved += r.st.HeadResolved
	}
	sortPairs(out)
	st.Results = len(out)
	st.PageReads = db.pageReads() - reads0
	st.Elapsed = timer.Elapsed()
	return out, st, nil
}
