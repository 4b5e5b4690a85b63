package tsq_test

// A forced strategy is a forced plan: a typed read that names its strategy
// goes down the same path as a statement or UseAuto, so it reports its
// strategy, carries a span tree, lands in the flight recorder and is
// counted under its strategy — at shards 1 and 4. That the plan is marked
// forced is checked where EXPLAIN shows it (internal/server/explain_test.go,
// internal/core/plan_test.go).

import (
	"fmt"
	"strings"
	"testing"

	tsq "repro"
	"repro/internal/telemetry"
)

func TestForcedReadsAreObservable(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := tsq.NewServer(parityDB(t, shards), tsq.ServerOptions{CacheSize: -1})
		for _, tc := range []struct {
			use      tsq.Strategy
			rangeRan string
			nnRan    string // NN has no time-domain baseline
		}{
			{tsq.UseIndex, "index", "index"},
			{tsq.UseScan, "scan", "scan"},
			{tsq.UseScanTime, "scantime", "scan"},
		} {
			for _, kind := range []string{"range", "nn"} {
				name := fmt.Sprintf("shards-%d/%s/%s", shards, kind, tc.rangeRan)
				want := tc.rangeRan
				if kind == "nn" {
					want = tc.nnRan
				}
				counted := telemetry.Count("tsq_queries_total", "kind", kind, "strategy", want, "outcome", "ok")
				before := counted.Value()
				reqID := "req-" + name
				var (
					m   []tsq.Match
					st  tsq.Stats
					err error
				)
				if kind == "range" {
					m, st, err = s.RangeByName("W0011", 4, tsq.MovingAverage(10), tsq.With(tc.use), tsq.WithRequest(reqID))
				} else {
					m, st, err = s.NN(tsq.RandomWalks(1, parityLength, 3)[0].Values, 5, tsq.Identity(), tsq.With(tc.use), tsq.WithRequest(reqID))
				}
				if err != nil || len(m) == 0 {
					t.Fatalf("%s: %d answers, err %v", name, len(m), err)
				}
				if st.Strategy != want {
					t.Errorf("%s: Stats.Strategy = %q, want %q", name, st.Strategy, want)
				}
				if len(st.Spans) == 0 {
					t.Errorf("%s: no spans with telemetry on", name)
				}
				if tr, ok := s.TraceByID(reqID); !ok || tr.Strategy != want || len(tr.Spans) == 0 {
					t.Errorf("%s: flight recorder kept %+v (found %t), want a %s trace with spans", name, tr, ok, want)
				}
				if got := counted.Value() - before; got != 1 {
					t.Errorf("%s: tsq_queries_total{strategy=%q} moved by %d, want 1", name, want, got)
				}
			}
		}
		// The library call without a Server takes the same path.
		db := parityDB(t, shards)
		_, st, err := db.RangeByName("W0011", 4, tsq.Identity())
		if err != nil || st.Strategy != "index" {
			t.Errorf("shards-%d: DB.RangeByName default: strategy %q, err %v, want index", shards, st.Strategy, err)
		}
	}
}

// TestUnknownStrategyIsAnError: range and NN share one Strategy mapping, so
// a value outside it is refused by both (NN used to run the scan silently).
func TestUnknownStrategyIsAnError(t *testing.T) {
	db := parityDB(t, 1)
	s := tsq.NewServer(parityDB(t, 4), tsq.ServerOptions{})
	q := tsq.RandomWalks(1, parityLength, 3)[0].Values
	bogus := tsq.With(tsq.Strategy(99))
	for name, run := range map[string]func() ([]tsq.Match, tsq.Stats, error){
		"DB.Range":           func() ([]tsq.Match, tsq.Stats, error) { return db.Range(q, 4, tsq.Identity(), bogus) },
		"DB.RangeByName":     func() ([]tsq.Match, tsq.Stats, error) { return db.RangeByName("W0011", 4, tsq.Identity(), bogus) },
		"DB.NN":              func() ([]tsq.Match, tsq.Stats, error) { return db.NN(q, 3, tsq.Identity(), bogus) },
		"DB.NNByName":        func() ([]tsq.Match, tsq.Stats, error) { return db.NNByName("W0011", 3, tsq.Identity(), bogus) },
		"Server.Range":       func() ([]tsq.Match, tsq.Stats, error) { return s.Range(q, 4, tsq.Identity(), bogus) },
		"Server.RangeByName": func() ([]tsq.Match, tsq.Stats, error) { return s.RangeByName("W0011", 4, tsq.Identity(), bogus) },
		"Server.NN":          func() ([]tsq.Match, tsq.Stats, error) { return s.NN(q, 3, tsq.Identity(), bogus) },
		"Server.NNByName":    func() ([]tsq.Match, tsq.Stats, error) { return s.NNByName("W0011", 3, tsq.Identity(), bogus) },
	} {
		if m, _, err := run(); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
			t.Errorf("%s with Strategy(99): %d answers, err %v; want an unknown-strategy error", name, len(m), err)
		}
	}
}
