// Allocation-regression gate and arena-safety stress for the zero-alloc
// hot path. TestHotPathZeroAlloc is the CI gate: a warm planned
// range/NN execution through the Into entry points must allocate
// nothing (telemetry off, result buffer reused), so any future edit
// that reintroduces a per-query allocation fails the build rather than
// silently taxing every query. TestArenaSafetyRace is the memory-safety
// half of the same contract: pooled arenas must never leak into
// returned results.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/telemetry"
	"repro/internal/transform"
)

// allocStore builds a small warm one-shard store — the Store itself, so the
// gate runs the store's own ExecRangeInto/ExecNNInto — with planted
// near-duplicates so selective queries have non-empty answers.
func allocStore(tb testing.TB, n, length int, opts Options) (*Store, [][]float64) {
	tb.Helper()
	db, err := NewStore(length, 1, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	r := rand.New(rand.NewSource(7))
	data := make([][]float64, n)
	names := make([]string, n)
	for i := range data {
		if i >= n/2 {
			src := data[i-n/2]
			dup := make([]float64, length)
			for j := range dup {
				dup[j] = src[j] + r.NormFloat64()*0.05
			}
			data[i] = dup
		} else {
			data[i] = dataset.RandomWalk(r, length)
		}
		names[i] = fmt.Sprintf("A%04d", i)
	}
	if err := db.InsertBulk(names, data); err != nil {
		tb.Fatal(err)
	}
	return db, data
}

// TestHotPathZeroAlloc pins warm planned executions at zero allocations
// per operation. The contract it states: with telemetry off, a plan in
// hand, and a result buffer with capacity, a one-shard store's
// ExecRangeInto and ExecNNInto touch only pooled arena scratch — every byte of per-query state lives
// in the arena or the caller's buffer. The disk-backed variant extends
// the contract to the buffer pool: a warm execution whose working set is
// resident (all pool hits — pin, view, release) allocates nothing either.
func TestHotPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"memory", Options{}},
		{"disk", Options{CachePages: 2048}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.opts.CachePages > 0 {
				tc.opts.Backing = t.TempDir()
			}
			testHotPathZeroAlloc(t, tc.opts)
		})
	}
}

func testHotPathZeroAlloc(t *testing.T, opts Options) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates counters")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs without -race (make alloc-gate)")
	}
	db, data := allocStore(t, 512, 64, opts)
	id := transform.Identity(64)

	wasEnabled := telemetry.Enabled()
	telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(wasEnabled)

	check := func(name string, run func() int) {
		t.Helper()
		// Warm: settle the arena pool, grow scratch and result capacity.
		want := run()
		for i := 0; i < 32; i++ {
			run()
		}
		allocs := testing.AllocsPerRun(100, func() {
			if got := run(); got != want {
				t.Fatalf("%s: warm run returned %d results, first returned %d", name, got, want)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs/op on the warm hot path, want 0", name, allocs)
		}
		if want == 0 {
			t.Errorf("%s: zero results — the gate is not exercising verification", name)
		}
	}

	rq := RangeQuery{Values: data[3], Eps: 1.0, Transform: id}
	for _, strat := range []plan.Strategy{plan.Index, plan.ScanFreq} {
		pl, err := db.PlanRange(rq, strat)
		if err != nil {
			t.Fatal(err)
		}
		var dst []Result
		check(fmt.Sprintf("ExecRangeInto/%v", strat), func() int {
			res, _, err := db.ExecRangeInto(rq, pl, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
			dst = res
			return len(res)
		})
	}

	nq := NNQuery{Values: data[5], K: 8, Transform: id}
	for _, strat := range []plan.Strategy{plan.Index, plan.ScanFreq} {
		pl, err := db.PlanNN(nq, strat)
		if err != nil {
			t.Fatal(err)
		}
		var dst []Result
		check(fmt.Sprintf("ExecNNInto/%v", strat), func() int {
			res, _, err := db.ExecNNInto(nq, pl, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
			dst = res
			return len(res)
		})
	}

	// Under a transformation the index applies the map to leaf points as a
	// complex multiplication, the factors formed per query in scratch: that
	// must be allocation-free too, and so must an unforced plan of either
	// strategy.
	nqT := NNQuery{Values: data[5], K: 8, Transform: transform.MovingAverage(64, 5), BothSides: true}
	for _, strat := range []plan.Strategy{plan.Index, plan.ScanFreq} {
		pl, err := db.PlanNN(nqT, plan.Auto)
		if err != nil {
			t.Fatal(err)
		}
		pl.Strategy = strat // as the planner would have resolved it: not forced
		var dst []Result
		check(fmt.Sprintf("ExecNNInto/mavg/auto-%v", strat), func() int {
			res, _, err := db.ExecNNInto(nqT, pl, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
			dst = res
			return len(res)
		})
	}

	// An unforced auto plan runs through the same entry point and must be
	// allocation-free too.
	pl, err := db.PlanRange(rq, plan.Auto)
	if err != nil {
		t.Fatal(err)
	}
	var dst []Result
	check("ExecRangeInto/auto", func() int {
		res, _, err := db.ExecRangeInto(rq, pl, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		dst = res
		return len(res)
	})
}

// TestArenaSafetyRace hammers the pooled-arena hot path from many
// goroutines under the race detector and plants a mutate-after-return
// canary: results handed back by the engine are the caller's property,
// so corrupting them must never bleed into another query's answer (it
// would if an arena-owned slice escaped through the copy-out boundary).
func TestArenaSafetyRace(t *testing.T) {
	db, data := allocStore(t, 256, 32, Options{})
	id := transform.Identity(32)

	rq := RangeQuery{Values: data[2], Eps: 1.0, Transform: id}
	nq := NNQuery{Values: data[4], K: 5, Transform: id}
	rpl, err := db.PlanRange(rq, plan.Auto)
	if err != nil {
		t.Fatal(err)
	}
	npl, err := db.PlanNN(nq, plan.Auto)
	if err != nil {
		t.Fatal(err)
	}
	wantRange, _, err := db.ExecRangeInto(rq, rpl, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantNN, _, err := db.ExecNNInto(nq, npl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRange) == 0 || len(wantNN) == 0 {
		t.Fatal("stress queries answer nothing; nothing to corrupt")
	}

	same := func(a, b []Result) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []Result
			for i := 0; i < iters; i++ {
				var got []Result
				var err error
				if (w+i)%2 == 0 {
					got, _, err = db.ExecRangeInto(rq, rpl, dst[:0])
					if err == nil && !same(got, wantRange) {
						err = fmt.Errorf("worker %d iter %d: range answer diverged", w, i)
					}
				} else {
					got, _, err = db.ExecNNInto(nq, npl, dst[:0])
					if err == nil && !same(got, wantNN) {
						err = fmt.Errorf("worker %d iter %d: NN answer diverged", w, i)
					}
				}
				if err != nil {
					errs <- err
					return
				}
				// Canary: trash the returned results. If any of this memory
				// is still referenced by a pooled arena or by the store, a
				// concurrent (or the next) query will return the poison and
				// fail the divergence check above.
				for j := range got {
					got[j] = Result{ID: -1, Name: "poisoned", Dist: math.Inf(-1)}
				}
				dst = got
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The store itself must be unharmed after the stampede.
	final, _, err := db.ExecRangeInto(rq, rpl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !same(final, wantRange) {
		t.Fatalf("post-stress answer diverged:\n got %v\nwant %v", final, wantRange)
	}
}
