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
	"sync/atomic"
	"time"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/plan"
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

	// tracker feeds merged execution feedback to the query planner;
	// history keeps the recent executed plans for est-vs-actual
	// diagnostics.
	tracker *plan.Tracker
	history *plan.History
	// exploreTick counts unforced scan-routed range executions; every
	// exploreEvery-th one runs a count-only index probe so the range
	// calibration keeps learning while scans win (see maybeExploreRange).
	// joinExploreTick is the same counter for scan-routed joins (see
	// maybeExploreJoin), exploreNNTick for scan-routed NN (see exploreNN).
	exploreTick     atomic.Uint64
	joinExploreTick atomic.Uint64
	exploreNNTick   atomic.Uint64

	// catalog: global ID space. Lock order is shard lock(s) first, then mu.
	mu     sync.RWMutex
	owner  map[int64]int // global id -> shard index
	ids    []int64       // live ids, arbitrary order (swap-delete)
	idPos  map[int64]int // id -> position in ids
	nextID int64
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
// of the given length. n must be >= 1; every shard gets the same Options.
func NewStore(length, n int, opts Options) (*Store, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: shard count %d must be >= 1", n)
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
	s := &Store{
		length:  length,
		shards:  shards,
		tracker: plan.NewTracker(),
		history: plan.NewHistory(0),
		owner:   make(map[int64]int),
		idPos:   make(map[int64]int),
	}
	// Price plans with machine-measured cost constants (one calibration
	// per process; see plan.Calibrate).
	s.tracker.SetCosts(plan.Calibrated())
	return s
}

// closeShards releases the built shards of a store that is not returned.
func closeShards(shards []*shard) {
	for _, sh := range shards {
		if sh != nil {
			sh.close()
		}
	}
}

// Close releases every shard's backing storage, removing the disk scratch
// files and the shard directories the store created. The store must not be
// used afterwards.
func (s *Store) Close() error {
	s.lockAll()
	defer s.unlockAll()
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

// FeatureBounds returns the union of every shard's feature-space MBR.
func (s *Store) FeatureBounds() geom.Rect {
	b, _ := s.featureBounds()
	return b
}

// ShardOf returns the hash-assigned shard index of a series name (whether
// or not the name is currently stored — partition assignment is a pure
// hash, which is what lets the server tag cached results with shard sets
// without consulting the catalog).
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
	entries := s.pinAll()
	defer s.runlockAll()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.sh.name(e.id)
	}
	return out
}

// rlockOwner returns the shard a live global ID is stored in, holding its
// shared lock (the caller releases it), or nil when the ID is not stored.
func (s *Store) rlockOwner(id int64) *shard {
	s.mu.RLock()
	si, ok := s.owner[id]
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	s.shards[si].mu.RLock()
	return s.shards[si]
}

// Name returns the name stored under a global ID ("" if absent).
func (s *Store) Name(id int64) string {
	sh := s.rlockOwner(id)
	if sh == nil {
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
	sh := s.rlockOwner(id)
	if sh == nil {
		return nil, fmt.Errorf("core: id %d not found", id)
	}
	defer sh.mu.RUnlock()
	return sh.timeRel.Get(id)
}

// FeaturePoint returns the indexed feature point stored under a global ID.
func (s *Store) FeaturePoint(id int64) (geom.Point, bool) {
	sh := s.rlockOwner(id)
	if sh == nil {
		return nil, false
	}
	defer sh.mu.RUnlock()
	if r := sh.rec(id); r != nil {
		return r.point, true
	}
	return nil, false
}

// QueryPrep assembles the stored-record planning artifacts of a global ID
// from its owning shard; see shard.queryPrep.
func (s *Store) QueryPrep(id int64) (*QueryPrep, bool) {
	sh := s.rlockOwner(id)
	if sh == nil {
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
	return Committed{ID: id, Shard: si, Point: p.Clone()}, nil
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
	// leave sibling shards populated behind an empty catalog. The derived
	// points and records ride along to the shard loads, so the dominant
	// bulk-load cost runs once per series: records are carved from blocks
	// the frequency relations then own. Every shard lock is held, so shard
	// 0's scratch is free for the derivation.
	size := 16 * halfLen(s.length)
	var blocks records
	points, specs := make([]geom.Point, len(values)), make([][]byte, len(values))
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		if name == "" {
			return fmt.Errorf("core: empty series name at position %d", i)
		}
		if seen[name] {
			return fmt.Errorf("core: duplicate series name %q", name)
		}
		seen[name] = true
		if len(values[i]) != s.length {
			return fmt.Errorf("core: series %q has length %d, DB expects %d", name, len(values[i]), s.length)
		}
		p, rec, err := s.shards[0].derive(name, values[i], blocks.take(size, len(names)-i)[:0])
		if err != nil {
			return err
		}
		points[i], specs[i] = p, rec
	}
	// part is one shard's slice of the batch.
	type part struct {
		names  []string
		values [][]float64
		ids    []int64
		points []geom.Point
		specs  [][]byte
	}
	parts := make([]part, len(s.shards))
	for i, name := range names {
		p := &parts[s.ShardOf(name)]
		p.names = append(p.names, name)
		p.values = append(p.values, values[i])
		p.ids = append(p.ids, int64(i))
		p.points = append(p.points, points[i])
		p.specs = append(p.specs, specs[i])
	}
	errs := make([]error, len(s.shards))
	each(len(s.shards), func(si int) {
		p := parts[si]
		errs[si] = s.shards[si].loadBulk(p.names, p.values, p.ids, p.points, p.specs)
	})
	if err := errors.Join(errs...); err != nil {
		// A page write failed: empty every shard, leaving the store as fresh
		// as the call found it.
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
	si := s.ShardOf(name)
	sh := s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id, ok := sh.byName[name]
	if !ok {
		return Committed{}, fmt.Errorf("core: unknown series %q", name)
	}
	if len(values) != s.length {
		return Committed{}, fmt.Errorf("core: series %q has length %d, DB expects %d", name, len(values), s.length)
	}
	p, err := sh.overwrite(id, values)
	if err != nil {
		return Committed{}, err
	}
	return Committed{ID: id, Shard: si, Point: p.Clone()}, nil
}

// Append slides a series' window forward in its owning shard — shift, then
// the overwrite Update runs (shard.appendPoints). Neither touches the
// catalog: the global ID is stable, so a writer to one shard never takes
// another shard's lock or the catalog mutex.
func (s *Store) Append(name string, points []float64) (Committed, error) {
	si := s.ShardOf(name)
	sh := s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id, p, err := sh.appendPoints(name, points)
	if err != nil {
		return Committed{}, err
	}
	return Committed{ID: id, Shard: si, Point: p.Clone()}, nil
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
		errs[si] = fn(si, sh)
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
	for _, p := range parts {
		st.NodeAccesses += p.NodeAccesses
		st.PageReads += p.PageReads
		st.Candidates += p.Candidates
		st.HeadResolved += p.HeadResolved
		st.DistanceTerms += p.DistanceTerms
		st.EarlyAccepts += p.EarlyAccepts
		st.BoundTightSum += p.BoundTightSum
		if p.Delta > st.Delta {
			st.Delta = p.Delta
		}
		if p.Rung > st.Rung {
			st.Rung = p.Rung
		}
		if p.Filter != nil {
			st.Filter = p.Filter // one plan fans out to every shard
		}
	}
	return st
}

// provenance returns a finished execution's per-shard breakdown — what
// EXPLAIN's per-shard table, the shard metrics and the fanout span's
// children are built from — or nil on a one-shard store, whose one
// partition's costs are the execution's own.
func (s *Store) provenance(shards []ShardExec) []ShardExec {
	if len(s.shards) == 1 {
		return nil
	}
	return shards
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
	st := mergeStats(sts)
	st.Results = results
	shards := make([]ShardExec, len(sts))
	for si := range sts {
		shards[si] = ShardExec{
			Shard:        si,
			NodeAccesses: sts[si].NodeAccesses,
			PageReads:    sts[si].PageReads,
			Candidates:   sts[si].Candidates,
			HeadResolved: sts[si].HeadResolved,
			Elapsed:      sts[si].Elapsed,
			Results:      counts[si],
		}
	}
	st.Shards = s.provenance(shards)
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
	err := run(sh)
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
// done.
func (s *Store) pinAll() []entry {
	s.rlockAll()
	s.mu.RLock()
	out := make([]entry, 0, len(s.ids))
	for _, id := range s.ids {
		si := s.owner[id]
		out = append(out, entry{id: id, si: si, sh: s.shards[si]})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
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
	entries := s.pinAll()
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

	var st ExecStats
	var out []JoinPair
	shards := make([]ShardExec, len(s.shards))
	for si := range shards {
		shards[si].Shard = si
	}
	for _, r := range results {
		if r.err != nil {
			return nil, st, fmt.Errorf("core: join worker: %w", r.err)
		}
		out = append(out, r.pairs...)
		for si, part := range r.sts {
			st.DistanceTerms += part.DistanceTerms
			st.Candidates += part.Candidates
			st.HeadResolved += part.HeadResolved
			shards[si].Candidates += part.Candidates
			shards[si].HeadResolved += part.HeadResolved
			shards[si].Results += part.Results
		}
	}
	sortPairs(out)
	st.Results = len(out)
	st.PageReads = s.pageReadsLocked() - reads0
	st.Shards = s.provenance(shards)
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
	s.rlockAll()
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
				cands, searchStats := target.idx.RangeIDs(tq, jp.radius, jp.lm, feature.MomentBounds{}, !target.opts.DisablePartialPrune, &sc, buf[:0])
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

	var st ExecStats
	var out []JoinPair
	shards := make([]ShardExec, len(results))
	for pi, r := range results {
		if r.err != nil {
			return nil, ExecStats{}, fmt.Errorf("core: join worker: %w", r.err)
		}
		out = append(out, r.pairs...)
		st.NodeAccesses += r.st.NodeAccesses
		st.Candidates += r.st.Candidates
		st.HeadResolved += r.st.HeadResolved
		st.DistanceTerms += r.st.DistanceTerms
		shards[pi] = ShardExec{
			Shard:        pi,
			NodeAccesses: r.st.NodeAccesses,
			Candidates:   r.st.Candidates,
			HeadResolved: r.st.HeadResolved,
			Results:      len(r.pairs),
			Elapsed:      r.st.Elapsed,
		}
	}
	sortPairs(out)
	st.Results = len(out)
	st.PageReads = s.pageReadsLocked() - reads0
	st.Shards = s.provenance(shards)
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
