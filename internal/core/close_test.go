package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/testkit"
	"repro/internal/transform"
)

// closeCase is a store shape the close tests run at: memory or disk, one
// shard or four.
type closeCase struct {
	disk   bool
	shards int
}

func (c closeCase) String() string { return fmt.Sprintf("shards=%d/disk=%t", c.shards, c.disk) }

var closeCases = []closeCase{{false, 1}, {false, 4}, {true, 1}, {true, 4}}

// closeStore bulk-loads count walks of testLen values into a store of the
// case's shape.
func closeStore(t *testing.T, c closeCase, count int) (Engine, [][]float64) {
	t.Helper()
	opts := Options{}
	if c.disk {
		opts = Options{Backing: t.TempDir(), CachePages: 16}
	}
	s, err := NewStore(testLen, c.shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	names, values := walks(count, testLen, 5)
	if err := s.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	return s.Engine(), values
}

// closedReads are the read kinds of a store, each returning its error.
func closedReads(e Engine, values [][]float64) map[string]func() error {
	id := transform.Identity(testLen)
	mavg := transform.MovingAverage(testLen, 4)
	nn := func(delta float64) error {
		_, _, err := forcedNN(e, NNQuery{Values: values[3], K: 5, Transform: id, Delta: delta}, plan.Index)
		return err
	}
	return map[string]func() error{
		"range": func() error {
			_, _, err := forcedRange(e, RangeQuery{Values: values[3], Eps: 2, Transform: id}, plan.Index)
			return err
		},
		"range scan": func() error {
			_, _, err := forcedRange(e, RangeQuery{Values: values[3], Eps: 2, Transform: id}, plan.ScanFreq)
			return err
		},
		"nn":        func() error { return nn(0) },
		"approx nn": func() error { return nn(0.5) },
		"self-join": func() error {
			_, _, err := e.SelfJoin(1, id, JoinScanEarlyAbandon)
			return err
		},
		"self-join index": func() error {
			_, _, err := e.SelfJoin(1, id, JoinIndexTransform)
			return err
		},
		"two-sided join": func() error {
			_, _, err := forcedJoinTwoSided(e, 1, mavg, id)
			return err
		},
		"subsequence": func() error {
			_, _, err := e.SubsequenceScan(values[3][:16], 1)
			return err
		},
		"query prep": func() error {
			if _, ok := e.QueryPrep(3); ok {
				return nil
			}
			return ErrClosed
		},
		"get": func() error {
			_, err := e.Series(3)
			return err
		},
		"snapshot write": func() error {
			_, err := e.WriteTo(io.Discard)
			return err
		},
	}
}

// TestClosedStoreRefusesEveryRead: after Close every read kind of a memory
// or disk store, at one shard and four, returns an error — with no panic,
// and no fault on the memory store's unmapped pages — where before it every
// one answered.
func TestClosedStoreRefusesEveryRead(t *testing.T) {
	for _, c := range closeCases {
		t.Run(c.String(), func(t *testing.T) {
			e, values := closeStore(t, c, 120)
			reads := closedReads(e, values)
			for kind, read := range reads {
				if err := read(); err != nil {
					t.Fatalf("%s on the open store: %v", kind, err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			for kind, read := range reads {
				if err := read(); err == nil {
					t.Errorf("%s after Close answered", kind)
				} else if kind != "query prep" && !errors.Is(err, ErrClosed) {
					t.Errorf("%s after Close: %v, want ErrClosed", kind, err)
				}
			}
			if err := e.Close(); err != nil {
				t.Errorf("a second Close: %v", err)
			}
		})
	}
}

// TestCloseRacingReaders: a Close racing eight readers leaves every read
// either answered correctly — range and NN judged by the time-domain oracle
// — or refused with ErrClosed; none faults on unmapped pages, and none is
// answered after a refusal. Run it under -race -count=10.
func TestCloseRacingReaders(t *testing.T) {
	for _, c := range closeCases {
		t.Run(c.String(), func(t *testing.T) {
			e, values := closeStore(t, c, 150)
			op := testkit.Identity(testLen)
			const readers = 8
			var started, done sync.WaitGroup
			started.Add(readers)
			done.Add(readers)
			errs := make([]error, readers)
			for r := 0; r < readers; r++ {
				go func(r int) {
					defer done.Done()
					first := true
					for i := 0; ; i++ {
						q := values[(r*7+i)%len(values)]
						ranked := testkit.Rank(values, q, op, false)
						var err error
						if i%2 == 0 {
							var res []Result
							res, _, err = forcedRange(e, RangeQuery{Values: q, Eps: 3, Transform: op.T}, plan.Index)
							if err == nil {
								err = testkit.CheckRange(ranked, hitsOf(res, nil), 3, 0, 1e-6)
							}
						} else {
							var res []Result
							res, _, err = forcedNN(e, NNQuery{Values: q, K: 4, Transform: op.T}, plan.Index)
							if err == nil {
								err = testkit.CheckApproxNN(ranked, hitsOf(res, nil), 4, 0, 1e-6)
							}
						}
						if first {
							first = false
							started.Done()
						}
						if errors.Is(err, ErrClosed) {
							return
						}
						if err != nil {
							errs[r] = fmt.Errorf("reader %d, read %d: %w", r, i, err)
							return
						}
					}
				}(r)
			}
			started.Wait()
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			done.Wait()
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}
