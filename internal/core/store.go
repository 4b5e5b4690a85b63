package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transform"
)

// Store is the one store: N hash-partitioned shards, each with its own
// k-index, relations, and read-write lock, partitioned by series name
// (FNV-1a), and the one implementation of Engine. Queries fan out to every
// shard — the paper's Algorithm 2 filter runs the same index traversal on
// each partition and exact verification composes by merging — and a merge
// step aggregates ExecStats and re-sorts results under the deterministic
// (distance, ID) order, so a store returns byte-identical answers at every
// shard count. Nearest-neighbor searches share one k-th-best bound across
// all shard traversals, so sharding does not inflate candidate counts. One
// shard is the inline case of the same box: its share of a fan-out runs on
// the caller's goroutine, with no per-shard buffer to merge from.
//
// A Store synchronizes internally at every shard count: every method is
// safe for concurrent use. Writes take only the owning shard's exclusive
// lock, so a writer to one shard never blocks readers of the others; queries
// take each shard's shared lock for just that shard's portion of the
// fan-out. A query therefore sees each shard at a consistent point in
// time, but two shards may be observed at slightly different moments when
// writes race the query — per-shard consistency, the standard partitioned
// reading.
//
// IDs are global: a catalog maps every ID to its owning shard, and shards
// store series under the globally assigned ID, so merged results need no
// translation and ID-based orderings are the same at every shard count.
type Store struct {
	length int
	shards []*shard

	// catalog: global ID space. Lock order is shard lock(s) first, then mu.
	mu     sync.RWMutex
	owner  map[int64]int // global id -> shard index
	ids    []int64       // live ids, arbitrary order (swap-delete)
	idPos  map[int64]int // id -> position in ids
	nextID int64
	// closed is set by Close under every shard's exclusive lock, so a
	// reader holding any one shard's lock reads it safely (live).
	closed bool
}

// ErrClosed is what every read of a closed store returns.
var ErrClosed = errors.New("core: store is closed")

// live refuses a read of a closed store. The caller holds at least one
// shard's lock.
func (s *Store) live() error {
	if s.closed {
		return ErrClosed
	}
	return nil
}

// DB is a Store that proves by its type it has exactly one partition, and
// so can hand out that partition's k-index. It exists for benchmark/'s
// --trace replay, which asserts Engine().(*DB) and times Index() below the
// plan (internal/experiments' ablations and the root benchmarks use it the
// same way); it goes when ROADMAP item 1 deletes the replay.
type DB struct{ *Store }

// Index exposes the one shard's k-index (diagnostics, ablations).
func (db *DB) Index() *index.KIndex {
	sh := db.shards[0]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.idx
}

// NewDB creates an empty one-shard store.
func NewDB(length int, opts Options) (*DB, error) {
	s, err := NewStore(length, 1, opts)
	if err != nil {
		return nil, err
	}
	return &DB{s}, nil
}

// Engine returns the store as the Engine it is handed out as — a *DB iff it
// has one shard. This is the only place that decides the dynamic type.
func (s *Store) Engine() Engine {
	if len(s.shards) == 1 {
		return &DB{s}
	}
	return s
}

// NewStore creates an empty store of n hash-partitioned shards for series
// of the given length. 1 <= n <= MaxShards (a snapshot records the count in
// 16 bits); every shard gets the same Options.
func NewStore(length, n int, opts Options) (*Store, error) {
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("core: shard count %d is not in [1, %d]", n, MaxShards)
	}
	shards := make([]*shard, n)
	for i := range shards {
		sh, err := newShard(length, shardOptions(opts, i))
		if err != nil {
			closeShards(shards)
			return nil, err
		}
		shards[i] = sh
	}
	return newStore(length, shards), nil
}

// shardOptions are shard i's options: a disk-backed shard gets its own
// backing subdirectory, so the shards' scratch page files never collide.
func shardOptions(opts Options, i int) Options {
	if opts.Backing != "" {
		opts.Backing = filepath.Join(opts.Backing, fmt.Sprintf("shard-%03d", i))
	}
	return opts
}

// newStore assembles an empty catalog around built shards.
func newStore(length int, shards []*shard) *Store {
	return &Store{
		length: length,
		shards: shards,
		owner:  make(map[int64]int),
		idPos:  make(map[int64]int),
	}
}

// closeShards releases the built shards of a store that is not returned.
func closeShards(shards []*shard) {
	for _, sh := range shards {
		if sh != nil {
			sh.close()
		}
	}
}

// Close releases every shard's backing storage: it unmaps the page memory
// of a memory store and removes the disk scratch files and the shard
// directories the store created. It waits for the reads in flight, and
// every read after it returns ErrClosed. Closing a closed store does
// nothing.
func (s *Store) Close() error {
	s.lockAll()
	defer s.unlockAll()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	for _, sh := range s.shards {
		if cerr := sh.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// PoolStats reports the combined buffer-pool state across all shards.
func (s *Store) PoolStats() PoolStats {
	var out PoolStats
	for _, sh := range s.shards {
		sh.mu.RLock()
		out.add(sh.timeRel)
		out.add(sh.freqRel)
		out.DiskBacked = out.DiskBacked || sh.timeRel.DiskBacked()
		sh.mu.RUnlock()
	}
	return out
}

// ShardOf returns the hash-assigned shard index of a series name, whether
// or not the name is currently stored: partition assignment is a pure hash.
func (s *Store) ShardOf(name string) int { return shardOf(name, len(s.shards)) }

// shardOf is the partition of a name among n shards: FNV-1a of its bytes,
// modulo n.
func shardOf(name string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(n))
}

// Shards returns the number of shards.
func (s *Store) Shards() int { return len(s.shards) }

// Length returns the fixed series length.
func (s *Store) Length() int { return s.length }

// Schema returns the feature schema (identical on every shard).
func (s *Store) Schema() feature.Schema { return s.shards[0].schema }

// Len returns the number of stored series across all shards.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ids)
}

// IDs returns the live global IDs in insertion order (ascending — IDs are
// assigned monotonically). The returned slice is a fresh copy.
func (s *Store) IDs() []int64 {
	s.mu.RLock()
	out := make([]int64, len(s.ids))
	copy(out, s.ids)
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Names returns the live series names in insertion order, pinned as one
// consistent snapshot: a delete racing the listing can neither blank an
// entry nor tear the list (per-ID lookups over a changing catalog could).
func (s *Store) Names() []string {
	entries, err := s.pinAll()
	if err != nil {
		return nil
	}
	defer s.runlockAll()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.sh.name(e.id)
	}
	return out
}

// rlockOwner returns the shard a live global ID is stored in, holding its
// shared lock (the caller releases it); the error is ErrClosed, or that the
// ID is not stored.
func (s *Store) rlockOwner(id int64) (*shard, error) {
	s.mu.RLock()
	si, ok := s.owner[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: id %d not found", id)
	}
	sh := s.shards[si]
	sh.mu.RLock()
	if err := s.live(); err != nil {
		sh.mu.RUnlock()
		return nil, err
	}
	return sh, nil
}

// Name returns the name stored under a global ID ("" if absent).
func (s *Store) Name(id int64) string {
	sh, err := s.rlockOwner(id)
	if err != nil {
		return ""
	}
	defer sh.mu.RUnlock()
	return sh.name(id)
}

// IDByName resolves a series name to its global ID.
func (s *Store) IDByName(name string) (int64, bool) {
	sh := s.shards[s.ShardOf(name)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	id, ok := sh.byName[name]
	return id, ok
}

// Series fetches the raw values stored under a global ID (charges page
// reads).
func (s *Store) Series(id int64) ([]float64, error) {
	sh, err := s.rlockOwner(id)
	if err != nil {
		return nil, err
	}
	defer sh.mu.RUnlock()
	return sh.timeRel.Get(id)
}

// QueryPrep assembles the stored-record planning artifacts of a global ID
// from its owning shard; see shard.queryPrep. ok is false for an ID not
// stored, and for any ID of a closed store.
func (s *Store) QueryPrep(id int64) (*QueryPrep, bool) {
	sh, err := s.rlockOwner(id)
	if err != nil {
		return nil, false
	}
	defer sh.mu.RUnlock()
	return sh.queryPrep(id)
}

// reserveID hands out the next global ID, for a shard to store a series
// under; register enters the series in the catalog once it has.
func (s *Store) reserveID() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return s.nextID - 1
}

func (s *Store) register(id int64, si int) {
	s.mu.Lock()
	s.owner[id] = si
	s.idPos[id] = len(s.ids)
	s.ids = append(s.ids, id)
	s.mu.Unlock()
}

// Insert stores a named series in its hash-assigned shard under a fresh
// global ID, taking only that shard's exclusive lock. Names must be unique
// and non-empty; lengths must match the store.
func (s *Store) Insert(name string, values []float64) (Committed, error) {
	si := s.ShardOf(name)
	sh := s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.validateInsert(name, values); err != nil {
		return Committed{}, err
	}
	p, rec, err := sh.derive(name, values, nil)
	if err != nil {
		return Committed{}, err
	}
	id := s.reserveID()
	if err := sh.insertAt(id, name, values, p, rec); err != nil {
		// A storage failure (a disk-backed page write); the reserved ID
		// stays burned — a gap in the ID space, never a collision.
		return Committed{}, err
	}
	s.register(id, si)
	return Committed{ID: id, Point: p.Clone()}, nil
}

// InsertBulk loads a batch into an empty store, bulk-loading every shard's
// index in parallel. Global IDs are assigned in batch order, so the store
// is ID-identical at every shard count. The store must be fresh; names must
// be unique and non-empty; all series must have the store's length.
func (s *Store) InsertBulk(names []string, values [][]float64) error {
	if len(names) != len(values) {
		return fmt.Errorf("core: %d names but %d series", len(names), len(values))
	}
	s.lockAll()
	defer s.unlockAll()
	if len(s.ids) > 0 || s.nextID != 0 {
		return fmt.Errorf("core: InsertBulk requires a fresh store (have %d live series, %d ever inserted)", len(s.ids), s.nextID)
	}
	// Validate the entire batch — including the derivation, which refuses
	// a non-finite value — before any shard loads, so a bad series cannot
	// leave sibling shards populated behind an empty catalog. The checks of
	// names and lengths run first, in batch order; the series before the
	// first they refuse are derived, and the error reported is the first in
	// batch order either way.
	bad, badErr := len(names), error(nil)
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		switch {
		case name == "":
			badErr = fmt.Errorf("core: empty series name at position %d", i)
		case seen[name]:
			badErr = fmt.Errorf("core: %w %q", ErrDuplicateSeries, name)
		case len(values[i]) != s.length:
			badErr = fmt.Errorf("core: series %q has length %d, DB expects %d", name, len(values[i]), s.length)
		}
		if badErr != nil {
			bad = i
			break
		}
		seen[name] = true
	}
	// Each series' records are carved out of its own shard's relations and
	// derived in place; a failure after the carving empties every shard, so
	// no page memory outlives the call that took it.
	parts := s.partition(names[:bad])
	specs, times, err := s.carve(parts)
	var points []geom.Point
	if err == nil {
		points, err = s.deriveBulk(names[:bad], values[:bad], specs, times)
	}
	if err == nil {
		err = badErr
	}
	if err == nil {
		errs := make([]error, len(s.shards))
		each(len(s.shards), func(si int) {
			p := parts[si]
			errs[si] = s.shards[si].loadBulk(names, p, points, specs, times)
		})
		err = errors.Join(errs...)
	}
	if err != nil {
		// Empty every shard, leaving the store as fresh as the call found it.
		for _, sh := range s.shards {
			if rerr := sh.reset(); rerr != nil {
				err = errors.Join(err, rerr)
			}
		}
		return err
	}
	s.catalog(names)
	return nil
}

// partition lists, shard by shard, the batch positions of the series each
// shard stores.
func (s *Store) partition(names []string) [][]int {
	parts := make([][]int, len(s.shards))
	for i, name := range names {
		si := s.ShardOf(name)
		parts[si] = append(parts[si], i)
	}
	return parts
}

// carve cuts every series' two records, by batch position, out of its
// shard's relations: a shard's records back to back in one reserved chunk
// of each memory relation's page memory, which the relation adopts in
// place, or in one heap block for each disk relation, which its page runs
// copy from. deriveBulk then writes them where they lie.
func (s *Store) carve(parts [][]int) (specs, times [][]byte, err error) {
	n := 0
	for _, at := range parts {
		n += len(at)
	}
	specs, times = make([][]byte, n), make([][]byte, n)
	specSize, timeSize := 16*halfLen(s.length), 8*s.length
	for si, at := range parts {
		sh := s.shards[si]
		if err := carveFor(sh.freqRel, at, specSize, specs); err != nil {
			return nil, nil, err
		}
		if err := carveFor(sh.timeRel, at, timeSize, times); err != nil {
			return nil, nil, err
		}
	}
	return specs, times, nil
}

// carveFor carves the records at the batch positions at for rel (see carve).
func carveFor(rel *relation.Relation, at []int, size int, recs [][]byte) error {
	rel.Reserve(len(at), size)
	if rel.DiskBacked() {
		block := make([]byte, len(at)*size)
		for j, i := range at {
			recs[i] = block[j*size : (j+1)*size : (j+1)*size]
		}
		return nil
	}
	for _, i := range at {
		rec, err := rel.Carve(size)
		if err != nil {
			return err
		}
		recs[i] = rec
	}
	return nil
}

// deriveBulk derives a batch's points and records — the dominant cost of a
// bulk load, run once per series — into the records carve cut for it: each
// series' half spectrum into specs[i] and its encoded window into
// times[i]. It runs on min(GOMAXPROCS, n/256) workers, each over a
// contiguous range of the batch with its own deriver. A worker stops at its
// first error; the lowest range's is the first in batch order.
func (s *Store) deriveBulk(names []string, values [][]float64, specs, times [][]byte) ([]geom.Point, error) {
	n, schema := len(names), s.shards[0].schema
	points := make([]geom.Point, n)
	workers := max(1, min(runtime.GOMAXPROCS(0), n/256))
	errs := make([]error, workers)
	each(workers, func(w int) {
		var dv deriver
		for i, end := w*n/workers, (w+1)*n/workers; i < end; i++ {
			p, rec, err := dv.derive(schema, names[i], values[i], specs[i][:0])
			if err != nil {
				errs[w] = err
				return
			}
			points[i], specs[i] = p, rec
			times[i] = relation.AppendFloats(times[i][:0], values[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// catalog enters a bulk load's series — the names in ID order, each stored
// in its hash-assigned shard — in the catalog of a fresh store.
func (s *Store) catalog(names []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.owner, s.idPos = make(map[int64]int, len(names)), make(map[int64]int, len(names))
	s.ids = slices.Grow(s.ids, len(names))
	for i, name := range names {
		id := int64(i)
		s.owner[id] = s.ShardOf(name)
		s.idPos[id] = len(s.ids)
		s.ids = append(s.ids, id)
	}
	s.nextID = int64(len(names))
}

// Update replaces the window stored under an existing name, in place: the
// series keeps its ID and its slot, storage does not grow, and the store is
// left exactly as an insert of the same values leaves it (shard.overwrite).
// A rejected replacement — wrong length, a non-finite value — leaves the
// stored series untouched.
func (s *Store) Update(name string, values []float64) (Committed, error) {
	sh := s.shards[s.ShardOf(name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id, ok := sh.byName[name]
	if !ok {
		return Committed{}, fmt.Errorf("core: %w %q", ErrUnknownSeries, name)
	}
	if len(values) != s.length {
		return Committed{}, fmt.Errorf("core: series %q has length %d, DB expects %d", name, len(values), s.length)
	}
	p, err := sh.overwrite(id, values)
	if err != nil {
		return Committed{}, err
	}
	return Committed{ID: id, Point: p.Clone()}, nil
}

// Append slides a series' window forward in its owning shard — shift, then
// the overwrite Update runs (shard.appendPoints). Neither touches the
// catalog: the global ID is stable, so a writer to one shard never takes
// another shard's lock or the catalog mutex.
func (s *Store) Append(name string, points []float64) (Committed, error) {
	sh := s.shards[s.ShardOf(name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id, p, err := sh.appendPoints(name, points)
	if err != nil {
		return Committed{}, err
	}
	return Committed{ID: id, Point: p.Clone()}, nil
}

// Delete removes a series by name, taking only its shard's exclusive
// lock. It reports whether the name was present.
func (s *Store) Delete(name string) bool {
	sh := s.shards[s.ShardOf(name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id, ok := sh.remove(name)
	if !ok {
		return false
	}
	s.mu.Lock()
	s.dropLocked(id)
	s.mu.Unlock()
	return true
}

// dropLocked drops a global ID from the catalog (caller holds s.mu).
func (s *Store) dropLocked(id int64) {
	delete(s.owner, id)
	if pos, ok := s.idPos[id]; ok {
		last := len(s.ids) - 1
		moved := s.ids[last]
		s.ids[pos] = moved
		s.idPos[moved] = pos
		s.ids = s.ids[:last]
		delete(s.idPos, id)
	}
}

// Compact rebuilds every shard's storage pages and repacks its index,
// returning the total pages reclaimed. Shards compact one at a time under
// their own exclusive locks — never the whole store at once — so queries
// against the other shards proceed while one shard rebuilds (the
// background-maintenance pattern: a compaction pass stalls at most 1/N of
// the store at any moment).
func (s *Store) Compact() (int, error) {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n, err := sh.compact()
		sh.mu.Unlock()
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// CheckWithin verifies one stored series against a range query under its
// shard's shared lock. See shard.checkWithin.
func (s *Store) CheckWithin(name string, q RangeQuery) (float64, bool, error) {
	sh := s.shards[s.ShardOf(name)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if err := s.live(); err != nil {
		return 0, false, err
	}
	return sh.checkWithin(name, q)
}

// PlanPrefilter builds the prefilter for a range-shaped query spec (Eps is
// ignored — the threshold is supplied per Hit, which is what lets NN
// monitors reuse one prefilter as their k-th-best distance tightens).
// Planning depends only on the schema and length shared by every shard, so
// no locks are taken.
func (s *Store) PlanPrefilter(q RangeQuery) (*Prefilter, error) {
	sh := s.shards[0]
	if err := sh.validateRange(q); err != nil {
		return nil, err
	}
	prep, err := sh.prepOf(q)
	if err != nil {
		return nil, err
	}
	return sh.planPrefilter(q, prep.Point)
}

// lockAll / unlockAll take every shard's exclusive lock in ascending
// order (the global lock order, so whole-store operations cannot deadlock
// against per-shard writers).
func (s *Store) lockAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

func (s *Store) unlockAll() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// rlockAll / runlockAll are the shared-mode counterparts, used by
// cross-shard reads (joins, snapshots) that need every shard pinned at
// once.
func (s *Store) rlockAll() {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
}

func (s *Store) runlockAll() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.RUnlock()
	}
}

// rlockLive is rlockAll for a read: on a closed store it takes no lock
// and returns ErrClosed.
func (s *Store) rlockLive() error {
	s.rlockAll()
	if err := s.live(); err != nil {
		s.runlockAll()
		return err
	}
	return nil
}

// each runs fn(0) … fn(n-1), n >= 1, and waits for all of them: fn(0) on
// the calling goroutine, the rest concurrently. With n == 1 — a one-shard
// store — nothing is spawned.
func each(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	fn(0)
	wg.Wait()
}

// fanOut runs fn for every shard under that shard's shared lock — shard 0
// on the calling goroutine, the rest concurrently — returning the
// lowest-indexed error.
func (s *Store) fanOut(fn func(si int, sh *shard) error) error {
	errs := make([]error, len(s.shards))
	each(len(s.shards), func(si int) {
		sh := s.shards[si]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		if errs[si] = s.live(); errs[si] == nil {
			errs[si] = fn(si, sh)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeStats folds per-shard execution costs into one ExecStats. Elapsed
// is deliberately left to the caller's wall clock — summing per-shard
// elapsed times would double-count parallel work.
func mergeStats(parts []ExecStats) ExecStats {
	var st ExecStats
	for i := range parts {
		st.add(&parts[i])
	}
	return st
}

// add folds one part's costs into st (see mergeStats).
func (st *ExecStats) add(p *ExecStats) {
	st.NodeAccesses += p.NodeAccesses
	st.PageReads += p.PageReads
	st.Candidates += p.Candidates
	st.HeadResolved += p.HeadResolved
	st.LeafResolved += p.LeafResolved
	st.DistanceTerms += p.DistanceTerms
	st.Delta = max(st.Delta, p.Delta)
	if p.Filter != nil {
		st.Filter = p.Filter // one plan fans out to every shard
	}
}

// gather folds a finished execution's per-shard costs sts into one
// ExecStats (mergeStats) carrying its per-shard provenance: each shard's
// costs beside counts[si], its contribution to the merged answer. The
// provenance is what EXPLAIN's per-shard table, the shard metrics and the
// fanout span's children are built from; a one-shard store carries none,
// its one partition's costs being the execution's own. Every fan-out —
// Store.fan, the join fans — ends here; Results, Elapsed and the spans are
// the caller's.
func (s *Store) gather(sts []ExecStats, counts []int) ExecStats {
	st := mergeStats(sts)
	if len(s.shards) == 1 {
		return st
	}
	st.Shards = make([]ShardExec, len(sts))
	for si := range sts {
		st.Shards[si] = ShardExec{
			Shard:        si,
			NodeAccesses: sts[si].NodeAccesses,
			PageReads:    sts[si].PageReads,
			Candidates:   sts[si].Candidates,
			HeadResolved: sts[si].HeadResolved,
			Elapsed:      sts[si].Elapsed,
			Results:      counts[si],
		}
	}
	return st
}

// fan is the one fan-out-and-merge every per-shard execution goes through:
// run executes on every shard in parallel (fanOut), accumulating that
// shard's costs into its own ExecStats; merge then gathers the per-shard
// answers — sorting them under the deterministic order — and reports how
// many each shard contributed (counts) and the merged total. fan times both
// steps, charges each shard its page reads and wall time, and folds it all
// into one ExecStats with per-shard provenance and the fanout/merge spans.
func (s *Store) fan(run func(si int, sh *shard, st *ExecStats) error, merge func(counts []int) (results int)) (ExecStats, error) {
	timer := stats.StartTimer()
	sts := make([]ExecStats, len(s.shards))
	if err := s.fanOut(func(si int, sh *shard) error {
		shTimer := stats.StartTimer()
		reads0 := sh.pageReads()
		err := run(si, sh, &sts[si])
		sts[si].PageReads = sh.pageReads() - reads0
		sts[si].Elapsed = shTimer.Elapsed()
		return err
	}); err != nil {
		return ExecStats{}, err
	}
	fanD := timer.Elapsed()
	mergeT := stats.StartTimer()
	counts := make([]int, len(s.shards))
	results := merge(counts)
	st := s.gather(sts, counts)
	st.Results = results
	st.Spans = fanSpans(&st, fanD, mergeT.Elapsed())
	st.Elapsed = timer.Elapsed()
	return st, nil
}

// inline is fan on a one-shard store for the two hot reads: the one
// partition runs on the caller's goroutine under its shared lock and
// answers straight into the caller's buffer, so there is nothing per-shard
// to allocate or merge from and a warm execution allocates nothing. The
// search/merge span pair is built only when something will read it — the
// process metrics registry or a TRACE statement (trace).
func (s *Store) inline(st *ExecStats, trace bool, run func(sh *shard) error, merge func() (results int)) error {
	start := time.Now()
	sh := s.shards[0]
	sh.mu.RLock()
	reads0 := sh.pageReads()
	err := s.live()
	if err == nil {
		err = run(sh)
	}
	st.PageReads = sh.pageReads() - reads0
	sh.mu.RUnlock()
	searchD := time.Since(start)
	if err != nil {
		return err
	}
	mergeT := time.Now()
	st.Results = merge()
	mergeD := time.Since(mergeT)
	st.Elapsed = time.Since(start)
	if trace || telemetry.Enabled() {
		st.Spans = fanSpans(st, searchD, mergeD)
	}
	return nil
}

// SubsequenceScan finds, for every stored series, the contiguous window of
// the query's length nearest to the query (raw values, no normalization),
// returning the series whose best window is within eps — the comparison of
// the paper's Example 1.2 ("the Euclidean distance between p and any
// subsequence of length four of s"), run across the whole relation. This
// is a time-domain scan (the whole-sequence k-index does not index
// subsequences; FRM94's ST-index is the follow-up work that does); inner
// window sums abandon against the best window so far. Results sort by
// distance.
func (s *Store) SubsequenceScan(q []float64, eps float64) ([]SubseqResult, ExecStats, error) {
	if len(q) == 0 || len(q) > s.length {
		return nil, ExecStats{}, fmt.Errorf("core: subsequence query length %d out of range [1, %d]", len(q), s.length)
	}
	if eps < 0 {
		return nil, ExecStats{}, fmt.Errorf("core: negative eps %g", eps)
	}
	parts := make([][]SubseqResult, len(s.shards))
	var out []SubseqResult
	st, err := s.fan(func(si int, sh *shard, pst *ExecStats) (err error) {
		parts[si], err = sh.subsequenceScan(q, eps, pst)
		return err
	}, func(counts []int) int {
		for si, p := range parts {
			counts[si] = len(p)
			out = append(out, p...)
		}
		sortSubseq(out)
		return len(out)
	})
	if err != nil {
		return nil, ExecStats{}, err
	}
	return out, st, nil
}

// entry is one live series pinned for a cross-shard read: its global ID,
// owning shard index, and that shard.
type entry struct {
	id int64
	si int
	sh *shard
}

// pinAll takes every shard's shared lock and snapshots the catalog in
// ascending global-ID (insertion) order. The caller must runlockAll when
// done, unless the store is closed: then pinAll releases the locks itself
// and returns ErrClosed.
func (s *Store) pinAll() ([]entry, error) {
	if err := s.rlockLive(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	out := make([]entry, 0, len(s.ids))
	for _, id := range s.ids {
		si := s.owner[id]
		out = append(out, entry{id: id, si: si, sh: s.shards[si]})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out, nil
}

// SelfJoin finds all pairs (x, y) of distinct stored series with
// D(T(nf(x)), T(nf(y))) <= eps under the given Table 1 method, across all
// shards: scan methods (a, b) run one global nested scan and report each
// unordered pair once; index methods (c, d) probe every shard's index with
// every stored series and report each pair twice — the paper's Table 1
// counts preserved exactly, at every shard count. Method (c) ignores the
// transformation by construction. For cost-based method selection use
// PlanJoin/ExecJoin instead.
func (s *Store) SelfJoin(eps float64, t transform.T, method JoinMethod) ([]JoinPair, ExecStats, error) {
	var (
		q    JoinQuery
		scan bool
		ea   bool
	)
	switch method {
	case JoinScanNaive:
		q, scan = selfJoinQuery(eps, t), true
	case JoinScanEarlyAbandon:
		q, scan, ea = selfJoinQuery(eps, t), true, true
	case JoinIndexPlain:
		q = selfJoinQuery(eps, transform.Identity(s.length))
	case JoinIndexTransform:
		q = selfJoinQuery(eps, t)
	default:
		return nil, ExecStats{}, fmt.Errorf("core: unknown join method %d", method)
	}
	jp, err := s.shards[0].planJoin(q)
	if err != nil {
		return nil, ExecStats{}, err
	}
	if scan {
		return s.joinScanFan(jp, ea)
	}
	if jp.mapErr != nil {
		return nil, ExecStats{}, jp.mapErr
	}
	return s.joinIndexFan(jp, false)
}

// joinScanFan is the global nested scan over the frequency-domain relation
// (methods a and b): every unordered pair of stored series — from every
// shard — is compared once, with (method b) or without (method a) early
// abandoning. The outer record is fetched once per outer step; each inner
// record fetch is charged, mirroring the block-less nested-loop cost
// profile that made method (a) cost 20 minutes in the paper. Self joins
// emit the pair's single D(T x, T y) comparison; two-sided joins verify both
// orientations — D(L x_i, R x_j) for pair (i, j) and D(L x_j, R x_i) for
// (j, i) — so the scan answers exactly what the index-nested-loop answers.
// Across shards the outer rows are strided over GOMAXPROCS workers, each
// emitting into a private buffer; one shard scans on the caller's goroutine
// alone, so Table 1's a and b stay single-threaded timings. All shard locks
// are held in shared mode for the duration. Costs and results are attributed
// to the outer row's owning shard in the per-shard provenance.
func (s *Store) joinScanFan(jp *joinPlan, earlyAbandon bool) ([]JoinPair, ExecStats, error) {
	timer := stats.StartTimer()
	entries, err := s.pinAll()
	if err != nil {
		return nil, ExecStats{}, err
	}
	defer s.runlockAll()
	reads0 := s.pageReadsLocked()

	n := len(entries)
	workers := 1
	if len(s.shards) > 1 {
		workers = max(1, min(runtime.GOMAXPROCS(0), n))
	}

	type partial struct {
		pairs []JoinPair
		sts   []ExecStats // by outer row's shard
		err   error
	}
	results := make([]partial, workers)
	each(workers, func(w int) {
		out := &results[w]
		out.sts = make([]ExecStats, len(s.shards))
		var (
			pages  [][]byte
			X      []complex128
			lx, rx []twin
			err    error
		)
		for i := w; i < n; i += workers {
			if X, err = entries[i].sh.spectrum(X, entries[i].id); err != nil {
				out.err = err
				return
			}
			// The outer row x_i is the query side of its kernels: a self join
			// compares T x_j with T x_i; a two-sided join compares R x_j with
			// L x_i (pair (i, j)) and L x_j with R x_i (pair (j, i)).
			if jp.q.TwoSided {
				lx = kernel(lx, jp.q.Right, jp.q.Left, X)
				rx = kernel(rx, jp.q.Left, jp.q.Right, X)
			} else {
				lx = kernel(lx, jp.q.Left, jp.q.Left, X)
			}
			st := &out.sts[entries[i].si]
			found := len(out.pairs)
			for j := i + 1; j < n; j++ {
				if out.pairs, out.err = entries[j].sh.scanInner(jp, entries[i].id, entries[j].id, lx, rx, earlyAbandon, &pages, st, out.pairs); out.err != nil {
					return
				}
			}
			st.Results += len(out.pairs) - found
		}
	})
	scanD := timer.Elapsed()
	mergeT := stats.StartTimer()

	var out []JoinPair
	sts, counts := make([]ExecStats, len(s.shards)), make([]int, len(s.shards))
	for _, r := range results {
		if r.err != nil {
			return nil, ExecStats{}, fmt.Errorf("core: join worker: %w", r.err)
		}
		out = append(out, r.pairs...)
		for si := range r.sts {
			sts[si].add(&r.sts[si])
			counts[si] += r.sts[si].Results
		}
	}
	sortPairs(out)
	st := s.gather(sts, counts)
	st.Results = len(out)
	st.PageReads = s.pageReadsLocked() - reads0
	// The workers stride outer rows, not shards: no shard has a wall time of
	// its own, so the scan is one step.
	st.Spans = []Span{workSpan("scan", scanD, &st), span("merge", mergeT.Elapsed())}
	st.Elapsed = timer.Elapsed()
	return out, st, nil
}

// joinIndexFan is the index-nested-loop join (self-join methods c/d and
// planned index joins, two-sided ones included): every stored series, in
// parallel batches partitioned by its owning shard, probes every shard's
// index with the right-side transformation applied to its point, and
// candidates verify in their owning shard against the left-side
// transformation. jp.q.TwoSided selects the two-sided join's (candidate,
// probe) pair orientation; otherwise pairs are (probe, candidate), emitted
// in both directions. selfOnce emits each unordered pair exactly once — from
// its lower-ID probe, skipping higher-to-lower candidates before
// verification, which also halves the verification work versus the paper's
// twice-reporting methods c/d: the planned self join's canonical accounting.
func (s *Store) joinIndexFan(jp *joinPlan, selfOnce bool) ([]JoinPair, ExecStats, error) {
	timer := stats.StartTimer()
	if err := s.rlockLive(); err != nil {
		return nil, ExecStats{}, err
	}
	defer s.runlockAll()
	reads0 := s.pageReadsLocked()

	type partial struct {
		pairs []JoinPair
		st    ExecStats
		err   error
	}
	results := make([]partial, len(s.shards))
	each(len(s.shards), func(pi int) {
		shTimer := stats.StartTimer()
		out := &results[pi]
		defer func() { out.st.Elapsed = shTimer.Elapsed() }()
		probe := s.shards[pi]
		var (
			pages [][]byte
			sc    index.Scratch
			buf   []int64
			QX    []complex128
			k     []twin
			err   error
		)
		for _, qid := range probe.ids {
			qp := probe.rec(qid).point
			tq := qp
			if !jp.rm.Identity() {
				tq = jp.rm.ApplyPoint(qp)
			}
			if QX, err = probe.spectrum(QX, qid); err != nil {
				out.err = err
				return
			}
			// Candidates x verify as D(L x, R x_probe).
			k = kernel(k, jp.q.Left, jp.q.Right, QX)
			for _, target := range s.shards {
				cands, searchStats := target.idx.RangeIDs(tq, jp.radius, jp.lm, feature.MomentBounds{}, true, &sc, buf[:0])
				buf = cands
				out.st.NodeAccesses += searchStats.NodesVisited
				for _, id := range cands {
					if id == qid {
						continue
					}
					if selfOnce && id < qid {
						continue
					}
					out.st.Candidates++
					within, dist, err := target.verifyFreq(&out.st, &pages, id, k, jp.q.Eps)
					if err != nil {
						out.err = err
						return
					}
					if within {
						if jp.q.TwoSided {
							out.pairs = append(out.pairs, JoinPair{A: id, B: qid, Dist: dist})
						} else {
							out.pairs = append(out.pairs, JoinPair{A: qid, B: id, Dist: dist})
						}
					}
				}
			}
		}
	})
	fanD := timer.Elapsed()
	mergeT := stats.StartTimer()

	var out []JoinPair
	sts, counts := make([]ExecStats, len(results)), make([]int, len(results))
	for pi, r := range results {
		if r.err != nil {
			return nil, ExecStats{}, fmt.Errorf("core: join worker: %w", r.err)
		}
		out = append(out, r.pairs...)
		sts[pi], counts[pi] = r.st, len(r.pairs)
	}
	sortPairs(out)
	st := s.gather(sts, counts)
	st.Results = len(out)
	st.PageReads = s.pageReadsLocked() - reads0
	st.Spans = fanSpans(&st, fanD, mergeT.Elapsed())
	st.Elapsed = timer.Elapsed()
	return out, st, nil
}

// pageReadsLocked sums relation read counters across shards (caller holds
// all shard locks in at least shared mode).
func (s *Store) pageReadsLocked() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.pageReads()
	}
	return total
}
