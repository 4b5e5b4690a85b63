package tsq_test

import (
	"fmt"
	"io"
	"sync"
	"testing"

	tsq "repro"
)

// TestServerConcurrentReadsAndWrites hammers one Server with parallel
// Range/NN/Query readers while writers insert, update, and delete — the
// acceptance stress test for the session layer, at one shard and at four:
// the store's per-shard locks under the version-guarded cache. Run with
// -race.
func TestServerConcurrentReadsAndWrites(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			stressServer(t, shards)
		})
	}
}

func stressServer(t *testing.T, shards int) {
	const (
		stable  = 40 // series never touched by writers
		churn   = 20 // series writers cycle through
		length  = 64
		readers = 4
		writers = 2
		iters   = 120
	)
	walks := tsq.RandomWalks(stable+churn+writers, length, 7)
	db := tsq.MustOpen(tsq.Options{Length: length, Shards: shards})
	if err := db.InsertAll(walks[:stable]); err != nil {
		t.Fatal(err)
	}
	s := tsq.NewServer(db, tsq.ServerOptions{CacheSize: 64})

	var wg sync.WaitGroup
	errs := make(chan error, readers+writers+1)

	// A metrics scraper runs alongside the readers and writers: /metrics
	// and /stats are served from live servers, so the snapshot paths must
	// be race-free against every mutation above.
	done := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = s.Stats()
			if err := s.WriteMetrics(io.Discard); err != nil {
				errs <- fmt.Errorf("scraper: %w", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("W%04d", (r*13+i)%stable)
				switch i % 4 {
				case 0:
					if _, _, err := s.RangeByName(name, 2, tsq.MovingAverage(10)); err != nil {
						errs <- fmt.Errorf("reader %d range: %w", r, err)
						return
					}
				case 1:
					if _, _, err := s.NNByName(name, 3, tsq.Identity()); err != nil {
						errs <- fmt.Errorf("reader %d nn: %w", r, err)
						return
					}
				case 2:
					stmt := fmt.Sprintf("RANGE SERIES '%s' EPS 2 TRANSFORM mavg(20)", name)
					if _, err := s.Query(stmt); err != nil {
						errs <- fmt.Errorf("reader %d query: %w", r, err)
						return
					}
				case 3:
					if _, err := s.Series(name); err != nil {
						errs <- fmt.Errorf("reader %d series: %w", r, err)
						return
					}
					_ = s.Names()
					_ = s.Stats()
				}
			}
		}(r)
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fresh := walks[stable+churn+w].Values
			// Each writer owns a disjoint half of the churn series and
			// walks each victim through a full insert-update-delete cycle.
			own := walks[stable+w*churn/writers : stable+(w+1)*churn/writers]
			for i := 0; i < iters; i++ {
				victim := own[(i/3)%len(own)]
				switch i % 3 {
				case 0:
					if err := s.Insert(victim.Name, victim.Values); err != nil {
						errs <- fmt.Errorf("writer %d insert: %w", w, err)
						return
					}
				case 1:
					if err := s.Update(victim.Name, fresh); err != nil {
						errs <- fmt.Errorf("writer %d update: %w", w, err)
						return
					}
				case 2:
					if !s.Delete(victim.Name) {
						errs <- fmt.Errorf("writer %d delete: %s missing", w, victim.Name)
						return
					}
				}
			}
		}(w)
	}

	wg.Wait()
	close(done)
	scraper.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// All stable series must have survived the churn intact.
	if got := s.Len(); got < stable {
		t.Fatalf("Len = %d, want >= %d", got, stable)
	}
	for i := 0; i < stable; i++ {
		if _, err := s.Series(fmt.Sprintf("W%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBareDBConcurrentUse pins the one concurrency contract: a DB with no
// Server around it — one shard, the default, included — takes concurrent
// Insert/Append/Delete/Range/NN as it is, because the store locks itself at
// every shard count. Run with -race (at one shard this raced before the
// store had its own lock: an unsharded DB needed external write locking).
func TestBareDBConcurrentUse(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			const (
				stable  = 32 // series the writers only append to
				length  = 64
				readers = 3
				writers = 2
				iters   = 90
			)
			walks := tsq.RandomWalks(stable+writers, length, 23)
			db, err := tsq.Open(tsq.Options{Length: length, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.InsertAll(walks[:stable]); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, readers+writers)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						name := fmt.Sprintf("W%04d", (r*11+i)%stable)
						var err error
						switch i % 3 {
						case 0:
							_, _, err = db.RangeByName(name, 2, tsq.MovingAverage(10))
						case 1:
							_, _, err = db.NN(walks[stable].Values, 3, tsq.Identity(), tsq.With(tsq.UseAuto))
						case 2:
							_, _, err = db.Range(walks[stable+1].Values, 3, tsq.Identity(), tsq.With(tsq.UseScan))
						}
						if err != nil {
							errs <- fmt.Errorf("reader %d: %w", r, err)
							return
						}
					}
				}(r)
			}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						name := fmt.Sprintf("churn-%d-%d", w, i)
						if err := db.Insert(name, walks[stable+w].Values); err != nil {
							errs <- fmt.Errorf("writer %d insert: %w", w, err)
							return
						}
						if err := db.Append(fmt.Sprintf("W%04d", (w*7+i)%stable), []float64{float64(i), float64(w)}); err != nil {
							errs <- fmt.Errorf("writer %d append: %w", w, err)
							return
						}
						if i%2 == 0 && !db.Delete(name) {
							errs <- fmt.Errorf("writer %d: lost %s", w, name)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if got, want := db.Len(), stable+writers*iters/2; got != want {
				t.Fatalf("Len = %d after the churn, want %d", got, want)
			}
		})
	}
}

func TestServerCacheSemantics(t *testing.T) {
	const length = 64
	walks := tsq.RandomWalks(30, length, 11)
	db := tsq.MustOpen(tsq.Options{Length: length})
	if err := db.InsertAll(walks); err != nil {
		t.Fatal(err)
	}
	s := tsq.NewServer(db, tsq.ServerOptions{})

	m1, st1, err := s.RangeByName("W0000", 2.5, tsq.MovingAverage(20))
	if err != nil {
		t.Fatal(err)
	}
	if st1.Cached {
		t.Fatal("first query reported cached")
	}
	m2, st2, err := s.RangeByName("W0000", 2.5, tsq.MovingAverage(20))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("repeat query not cached")
	}
	if len(m1) != len(m2) {
		t.Fatalf("cached result has %d matches, fresh had %d", len(m2), len(m1))
	}
	if st2.NodeAccesses != st1.NodeAccesses {
		t.Fatalf("cached stats should replay the original cost: %d vs %d",
			st2.NodeAccesses, st1.NodeAccesses)
	}

	// Cached results are defensive copies: mutating a returned slice must
	// not corrupt later answers.
	if len(m2) > 0 {
		m2[0].Name = "CORRUPTED"
	}
	m3, _, err := s.RangeByName("W0000", 2.5, tsq.MovingAverage(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(m3) > 0 && m3[0].Name == "CORRUPTED" {
		t.Fatal("cache shares memory with callers")
	}

	// Same semantics, different key: a changed option must miss.
	_, st4, err := s.RangeByName("W0000", 2.5, tsq.MovingAverage(20), tsq.With(tsq.UseScan))
	if err != nil {
		t.Fatal(err)
	}
	if st4.Cached {
		t.Fatal("different strategy hit the same cache entry")
	}

	// Writes invalidate: results reflect the new store state immediately.
	if err := s.Update("W0000", walks[1].Values); err != nil {
		t.Fatal(err)
	}
	_, st5, err := s.RangeByName("W0000", 2.5, tsq.MovingAverage(20))
	if err != nil {
		t.Fatal(err)
	}
	if st5.Cached {
		t.Fatal("cache survived an update")
	}

	stats := s.Stats()
	if stats.CacheHits < 2 {
		t.Fatalf("CacheHits = %d, want >= 2", stats.CacheHits)
	}
	if stats.Queries < 5 {
		t.Fatalf("Queries = %d, want >= 5", stats.Queries)
	}
	if stats.Writes != 1 {
		t.Fatalf("Writes = %d, want 1", stats.Writes)
	}
}

// TestServerNoopWritesKeepCache: rejected writes and deletes of missing
// names must not evict cached results or count as writes.
func TestServerNoopWritesKeepCache(t *testing.T) {
	walks := tsq.RandomWalks(20, 64, 17)
	db := tsq.MustOpen(tsq.Options{Length: 64})
	if err := db.InsertAll(walks); err != nil {
		t.Fatal(err)
	}
	s := tsq.NewServer(db, tsq.ServerOptions{})

	if _, _, err := s.NNByName("W0000", 3, tsq.Identity()); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("W0000", walks[0].Values); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if err := s.Update("W0000", []float64{1, 2}); err == nil {
		t.Fatal("wrong-length update succeeded")
	}
	if s.Delete("MISSING") {
		t.Fatal("delete of missing name reported true")
	}
	_, st, err := s.NNByName("W0000", 3, tsq.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Fatal("no-op writes evicted the cache")
	}
	if w := s.Stats().Writes; w != 0 {
		t.Fatalf("Writes = %d after only no-op writes, want 0", w)
	}
}

func TestServerCacheDisabled(t *testing.T) {
	walks := tsq.RandomWalks(10, 64, 3)
	db := tsq.MustOpen(tsq.Options{Length: 64})
	if err := db.InsertAll(walks); err != nil {
		t.Fatal(err)
	}
	s := tsq.NewServer(db, tsq.ServerOptions{CacheSize: -1})
	for i := 0; i < 2; i++ {
		_, st, err := s.NNByName("W0000", 3, tsq.Identity())
		if err != nil {
			t.Fatal(err)
		}
		if st.Cached {
			t.Fatal("disabled cache served a hit")
		}
	}
}

func TestServerQueryLanguageParity(t *testing.T) {
	walks := tsq.RandomWalks(40, 64, 5)
	db := tsq.MustOpen(tsq.Options{Length: 64})
	if err := db.InsertAll(walks); err != nil {
		t.Fatal(err)
	}
	ref := tsq.MustOpen(tsq.Options{Length: 64})
	if err := ref.InsertAll(walks); err != nil {
		t.Fatal(err)
	}
	s := tsq.NewServer(db, tsq.ServerOptions{})

	const stmt = "RANGE SERIES 'W0006' EPS 2.75 TRANSFORM mavg(20)"
	want, err := ref.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("server found %d matches, embedded %d", len(got.Matches), len(want.Matches))
	}
	for i := range want.Matches {
		if got.Matches[i] != want.Matches[i] {
			t.Fatalf("match %d: %+v, want %+v", i, got.Matches[i], want.Matches[i])
		}
	}
}
