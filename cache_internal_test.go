package tsq

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/geom"
)

// The result cache without a Server: recency and capacity (the behaviours
// internal/lru's own tests held before the two became one type), then the
// filing protocol — what a reader that overlapped writes may still file.

// rectEntry is a filed answer whose dependency is spelled out by hand: one
// member, and the interval [0, 1] of the first feature dimension standing in
// for the Lemma 1 search rectangle.
func rectEntry(tag int) cachedResult {
	return cachedResult{
		stats: Stats{Candidates: tag},
		affected: func(ev writeEvent) bool {
			if ev.name == "member" {
				return true
			}
			return ev.kind == writePut && ev.point[0] >= 0 && ev.point[0] <= 1
		},
	}
}

func putAt(name string, x float64) writeEvent {
	return writeEvent{kind: writePut, name: name, point: geom.Point{x}}
}

// fileNow files r the way a read with no overlapping write does.
func fileNow(c *resultCache, key string, r cachedResult) {
	_, v0, _ := c.get(key)
	c.file(key, v0, r)
}

func holds(c *resultCache, key string) bool {
	_, _, ok := c.get(key)
	return ok
}

func TestResultCache(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		run      func(t *testing.T, c *resultCache)
	}{
		{"evicts_in_recency_order", 2, func(t *testing.T, c *resultCache) {
			fileNow(c, "a", rectEntry(1))
			fileNow(c, "b", rectEntry(2))
			if !holds(c, "a") {
				t.Fatal("a should be cached")
			}
			fileNow(c, "c", rectEntry(3)) // evicts b: a was just touched
			if holds(c, "b") {
				t.Fatal("b should have been evicted")
			}
			if !holds(c, "a") || !holds(c, "c") {
				t.Fatal("a and c should be cached")
			}
			if _, _, n := c.counts(); n != 2 {
				t.Fatalf("%d entries, want 2", n)
			}
		}},
		{"refiling_refreshes", 2, func(t *testing.T, c *resultCache) {
			fileNow(c, "a", rectEntry(1))
			fileNow(c, "b", rectEntry(2))
			fileNow(c, "a", rectEntry(10)) // refresh, not insert
			fileNow(c, "c", rectEntry(3))  // evicts b
			if r, _, ok := c.get("a"); !ok || r.stats.Candidates != 10 {
				t.Fatalf("get(a) = %d, %t; want 10, true", r.stats.Candidates, ok)
			}
			if holds(c, "b") {
				t.Fatal("b should have been evicted")
			}
		}},
		{"barrier_keeps_counters", 4, func(t *testing.T, c *resultCache) {
			fileNow(c, "a", rectEntry(1)) // one miss
			c.get("a")
			c.get("missing")
			c.publish(barrier)
			if holds(c, "a") {
				t.Fatal("a should be gone after a barrier")
			}
			if hits, misses, n := c.counts(); hits != 1 || misses != 3 || n != 0 {
				t.Fatalf("hits, misses, entries = %d, %d, %d; want 1, 3, 0", hits, misses, n)
			}
		}},
		{"capacity_zero_stores_nothing", -1, func(t *testing.T, c *resultCache) {
			fileNow(c, "a", rectEntry(1))
			if holds(c, "a") {
				t.Fatal("a zero-capacity cache should never hit")
			}
			if hits, misses, n := c.counts(); hits != 0 || misses != 2 || n != 0 || c.capacity != 0 {
				t.Fatalf("hits, misses, entries, capacity = %d, %d, %d, %d", hits, misses, n, c.capacity)
			}
		}},
		{"selective_eviction", 8, func(t *testing.T, c *resultCache) {
			fileNow(c, "rect", rectEntry(1))
			fileNow(c, "bare", cachedResult{}) // no predicate: goes on any write
			c.publish(putAt("far", 5))
			if !holds(c, "rect") || holds(c, "bare") {
				t.Fatal("a put outside the rectangle must evict only the entry without a predicate")
			}
			c.publish(writeEvent{kind: writeDelete, name: "stranger"})
			if !holds(c, "rect") {
				t.Fatal("a non-member's delete evicted the entry")
			}
			c.publish(putAt("near", 0.5))
			if holds(c, "rect") {
				t.Fatal("a put inside the rectangle left the entry filed")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newResultCache(tc.capacity)) })
	}
}

// TestResultCacheFiling: a reader misses, writes are published while it
// computes, and it files.
func TestResultCacheFiling(t *testing.T) {
	many := make([]writeEvent, writeLogCap+1)
	for i := range many {
		many[i] = putAt(fmt.Sprintf("far%d", i), 5)
	}
	for _, tc := range []struct {
		name     string
		entry    cachedResult
		overlap  []writeEvent
		wantFile bool
	}{
		{"unchanged_version", rectEntry(1), nil, true},
		{"unrelated_put", rectEntry(1), []writeEvent{putAt("far", 5)}, true},
		{"unrelated_delete", rectEntry(1), []writeEvent{{kind: writeDelete, name: "stranger"}}, true},
		{"log_exactly_full", rectEntry(1), many[:writeLogCap], true},
		{"put_inside_the_rectangle", rectEntry(1), []writeEvent{putAt("near", 0.5)}, false},
		{"member_moved_away", rectEntry(1), []writeEvent{putAt("member", 5)}, false},
		{"member_deleted", rectEntry(1), []writeEvent{{kind: writeDelete, name: "member"}}, false},
		{"barrier", rectEntry(1), []writeEvent{barrier}, false},
		{"affecting_write_among_unrelated", rectEntry(1), []writeEvent{putAt("far", 5), putAt("near", 0.5), putAt("far", 6)}, false},
		{"more_writes_than_the_log_holds", rectEntry(1), many, false},
		{"no_predicate", cachedResult{}, []writeEvent{putAt("far", 5)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newResultCache(4)
			// Writes before the read began are not its concern, however many.
			c.publish(many...)
			c.publish(putAt("near", 0.5))
			_, v0, ok := c.get("q")
			if ok {
				t.Fatal("hit on an empty cache")
			}
			for _, ev := range tc.overlap {
				c.publish(ev)
			}
			c.file("q", v0, tc.entry)
			if got := holds(c, "q"); got != tc.wantFile {
				t.Fatalf("filed = %t, want %t", got, tc.wantFile)
			}
		})
	}
}

// TestResultCacheSlowReaderCannotUndoEviction: two readers compute the same
// answer from pre-write state; the fast one files, the write evicts its
// entry, and the slow one — whose version predates the write — must not put
// the stale answer back.
func TestResultCacheSlowReaderCannotUndoEviction(t *testing.T) {
	c := newResultCache(4)
	_, fast, _ := c.get("q")
	_, slow, _ := c.get("q")
	c.file("q", fast, rectEntry(1))
	if !holds(c, "q") {
		t.Fatal("the fast reader's answer was not filed")
	}
	c.publish(putAt("near", 0.5))
	if holds(c, "q") {
		t.Fatal("the write left the entry filed")
	}
	c.file("q", slow, rectEntry(1))
	if holds(c, "q") {
		t.Fatal("the slow reader re-filed an evicted answer")
	}
	// A read that starts after the write files normally.
	fileNow(c, "q", rectEntry(2))
	if r, _, ok := c.get("q"); !ok || r.stats.Candidates != 2 {
		t.Fatal("a read begun after the write could not file")
	}
}

func TestResultCacheConcurrent(t *testing.T) {
	c := newResultCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%32)
				if i%3 == 0 {
					fileNow(c, k, rectEntry(i))
				} else {
					c.get(k)
				}
				switch {
				case i%100 == 0:
					c.publish(barrier)
				case i%10 == 0:
					c.publish(putAt("w", float64(i%4)))
				}
			}
		}(g)
	}
	wg.Wait()
	if _, _, n := c.counts(); n > 16 {
		t.Fatalf("%d entries exceed capacity 16", n)
	}
}
