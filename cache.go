package tsq

import (
	"sync"

	"repro/internal/geom"
)

// writeKind discriminates committed writes for the cache and the monitors.
type writeKind int

const (
	// writePut left a series at a feature point: an insert, an update or an
	// append — by Lemma 1 they are one event, "name now sits at point".
	writePut writeKind = iota
	// writeDelete removed a series (no point: only membership matters — a
	// deleted non-member cannot change any cached answer).
	writeDelete
	// writeBarrier is a whole-store mutation, or one whose transient states
	// were visible and are gone (bulk loads, large or rolled-back batch
	// inserts, compaction): nothing can be proved about it.
	writeBarrier
)

// writeEvent describes one committed write: what happened, to which series,
// and where its feature point landed — for a put, the core.Committed the
// engine returned under the shard's write lock. Cached entries carry an
// affected predicate over these events (Lemma 1 rectangle tests plus
// membership), so a write evicts only the entries it could actually have
// changed.
type writeEvent struct {
	kind  writeKind
	name  string
	point geom.Point
}

// barrier is the event of a write nothing can be proved about.
var barrier = writeEvent{kind: writeBarrier}

// cachedResult is one filed answer — at most one of the payload fields is
// set, matching the query kind.
type cachedResult struct {
	matches []Match
	pairs   []Pair
	subseq  []SubseqMatch
	stats   Stats
	// affected decides whether one committed put or delete could change this
	// result; nil means the entry goes on any write.
	affected func(writeEvent) bool
}

// touches reports whether a committed write could have changed r.
func (r *cachedResult) touches(ev writeEvent) bool {
	return ev.kind == writeBarrier || r.affected == nil || r.affected(ev)
}

// writeLogCap bounds the recent-write log a filing replays; a query that
// overlapped more writes than this simply isn't cached.
const writeLogCap = 128

// resultCache is the Server's query-result cache and the whole of its
// consistency protocol, behind one lock: a fixed-capacity map in recency
// order, a write-version counter, and the log of the last writeLogCap
// committed writes.
//
// A writer publishes after its mutation is visible in the store: per event,
// bump the version, log the event, evict what it could have changed. A reader
// that missed takes the version with its miss (get), computes, and files
// its answer only if no write it cannot account for was published meanwhile
// — either the version has not moved, or the log still holds every write
// since and the entry's own affected predicate dismisses each one (the
// Lemma 1 rectangle/membership proof, the same test publish runs on entries
// already filed). So a query that read any pre-mutation state either files
// before the publish — and is evicted by it if the write affects it — or sees
// the moved version and must prove itself unaffected; an eviction cannot be
// undone by a slow reader, and an append burst that provably cannot change a
// result does not starve the cache. A capacity <= 0 stores nothing and always
// misses.
type resultCache struct {
	capacity int

	mu      sync.Mutex
	entries map[string]*cacheEntry
	// root is the sentinel of the recency ring: root.next is the most
	// recently used entry, root.prev the next to go.
	root    cacheEntry
	version int64
	log     []writeEvent // the writes of versions (version-len(log), version]

	hits, misses int64
}

type cacheEntry struct {
	key        string
	result     cachedResult
	prev, next *cacheEntry
}

func newResultCache(capacity int) *resultCache {
	c := &resultCache{capacity: max(capacity, 0), entries: make(map[string]*cacheEntry)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

func (c *resultCache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *resultCache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// get returns the answer filed under key, marking it most recently used. On a
// miss it returns the write version instead: what the caller hands back to
// file once it has computed the answer.
func (c *resultCache) get(key string) (r cachedResult, version int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return cachedResult{}, c.version, false
	}
	c.hits++
	c.unlink(e)
	c.pushFront(e)
	return e.result, 0, true
}

// file stores an answer computed since get reported version v0, unless a
// write published in between could have changed it (see cacheableLocked). It
// evicts the least recently used entry when full; filing an existing key
// refreshes its value and recency.
func (c *resultCache) file(key string, v0 int64, r cachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity == 0 || !c.cacheableLocked(v0, &r) {
		return
	}
	if e, ok := c.entries[key]; ok {
		e.result = r
		c.unlink(e)
		c.pushFront(e)
		return
	}
	if len(c.entries) >= c.capacity {
		oldest := c.root.prev
		c.unlink(oldest)
		delete(c.entries, oldest.key)
	}
	e := &cacheEntry{key: key, result: r}
	c.entries[key] = e
	c.pushFront(e)
}

// cacheableLocked decides whether a result computed while the version moved
// from v0 to the current value may still be filed: either nothing was
// written, or every overlapped write is still in the log and provably cannot
// affect this entry.
func (c *resultCache) cacheableLocked(v0 int64, r *cachedResult) bool {
	overlapped := c.version - v0
	if overlapped > int64(len(c.log)) {
		return false
	}
	for _, ev := range c.log[len(c.log)-int(overlapped):] {
		if r.touches(ev) {
			return false
		}
	}
	return true
}

// publish is the write half of the protocol, run after the mutation is
// visible in the store: per event, bump the version, log the write and evict
// every entry it could have changed — a barrier purges them all.
func (c *resultCache) publish(evs ...writeEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ev := range evs {
		c.version++
		if len(c.log) >= writeLogCap {
			c.log = append(c.log[:0], c.log[1:]...)
		}
		c.log = append(c.log, ev)
		for e := c.root.next; e != &c.root; e = e.next {
			if e.result.touches(ev) {
				c.unlink(e) // e keeps its own next: the walk goes on
				delete(c.entries, e.key)
			}
		}
	}
}

// counts returns the accumulated hits and misses and the number of entries.
func (c *resultCache) counts() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}
