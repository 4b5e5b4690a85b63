package core

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/rtree"
	"repro/internal/stats"
	"repro/internal/transform"
)

// Sharded is a hash-partitioned store: N independent DB shards, each with
// its own k-index, relations, and read-write lock, partitioned by series
// name (FNV-1a). Queries fan out to every shard in parallel — the paper's
// Algorithm 2 filter runs the same index traversal on each partition and
// exact verification composes by merging — and a merge step aggregates
// ExecStats and re-sorts results under the deterministic (distance, ID)
// order, so a Sharded store returns byte-identical answers to a single DB
// holding the same series. Nearest-neighbor searches share one k-th-best
// bound across all shard traversals, so sharding does not inflate
// candidate counts.
//
// Unlike DB, a Sharded store synchronizes internally: every method is safe
// for concurrent use. Writes take only the owning shard's exclusive lock,
// so a writer to one shard never blocks readers of the others; queries
// take each shard's shared lock for just that shard's portion of the
// fan-out. A query therefore sees each shard at a consistent point in
// time, but two shards may be observed at slightly different moments when
// writes race the query — per-shard consistency, the standard partitioned
// reading.
//
// IDs are global: a catalog maps every ID to its owning shard, and shards
// store series under the globally assigned ID, so merged results need no
// translation and ID-based orderings match the unsharded store exactly.
type Sharded struct {
	length int
	shards []*DB
	locks  []sync.RWMutex // index-aligned with shards

	// tracker feeds merged execution feedback to the query planner (the
	// per-shard DB trackers stay cold: planning happens at this level);
	// history keeps the recent executed plans for est-vs-actual
	// diagnostics.
	tracker *plan.Tracker
	history *plan.History
	// exploreNNTick counts unforced scan-routed NN executions (see
	// exploreNN in plan.go).
	exploreNNTick atomic.Uint64

	// catalog: global ID space. Lock order is shard lock(s) first, then mu.
	mu     sync.RWMutex
	owner  map[int64]int // global id -> shard index
	ids    []int64       // live ids, arbitrary order (swap-delete)
	idPos  map[int64]int // id -> position in ids
	nextID int64
}

// NewSharded creates an empty sharded store of n hash-partitioned shards
// for series of the given length. n must be >= 1; every shard gets the
// same Options.
func NewSharded(length, n int, opts Options) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: shard count %d must be >= 1", n)
	}
	s := &Sharded{
		length:  length,
		shards:  make([]*DB, n),
		locks:   make([]sync.RWMutex, n),
		tracker: plan.NewTracker(),
		history: plan.NewHistory(0),
		owner:   make(map[int64]int),
		idPos:   make(map[int64]int),
	}
	s.tracker.SetCosts(plan.Calibrated())
	for i := range s.shards {
		shOpts := opts
		if opts.Backing != "" {
			// Each shard gets its own backing subdirectory so the shards'
			// scratch page files never collide.
			shOpts.Backing = filepath.Join(opts.Backing, fmt.Sprintf("shard-%03d", i))
		}
		db, err := NewDB(length, shOpts)
		if err != nil {
			for j := 0; j < i; j++ {
				s.shards[j].Close()
			}
			return nil, err
		}
		s.shards[i] = db
	}
	return s, nil
}

// Close releases every shard's backing storage (removing disk scratch
// files). The store must not be used afterwards.
func (s *Sharded) Close() error {
	s.lockAll()
	defer s.unlockAll()
	var err error
	for _, sh := range s.shards {
		if cerr := sh.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// PoolStats reports the combined buffer-pool state across all shards.
func (s *Sharded) PoolStats() PoolStats {
	var out PoolStats
	for si := range s.shards {
		s.locks[si].RLock()
		st := s.shards[si].PoolStats()
		s.locks[si].RUnlock()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
		out.Resident += st.Resident
		out.Pinned += st.Pinned
		out.Capacity += st.Capacity
		out.DiskBacked = out.DiskBacked || st.DiskBacked
	}
	return out
}

// FeatureBounds returns the union of every shard's feature-space MBR.
func (s *Sharded) FeatureBounds() geom.Rect {
	b, _ := s.featureBounds()
	return b
}

// shardFor maps a series name to its owning shard.
func (s *Sharded) shardFor(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Length returns the fixed series length.
func (s *Sharded) Length() int { return s.length }

// Schema returns the feature schema (identical on every shard).
func (s *Sharded) Schema() feature.Schema { return s.shards[0].Schema() }

// Len returns the number of stored series across all shards.
func (s *Sharded) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ids)
}

// IDs returns the live global IDs in insertion order (ascending — IDs are
// assigned monotonically).
func (s *Sharded) IDs() []int64 {
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
func (s *Sharded) Names() []string {
	entries := s.pinAll()
	defer s.runlockAll()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.sh.Name(e.id)
	}
	return out
}

// Name returns the name stored under a global ID ("" if absent).
func (s *Sharded) Name(id int64) string {
	s.mu.RLock()
	si, ok := s.owner[id]
	s.mu.RUnlock()
	if !ok {
		return ""
	}
	s.locks[si].RLock()
	defer s.locks[si].RUnlock()
	return s.shards[si].Name(id)
}

// IDByName resolves a series name to its global ID.
func (s *Sharded) IDByName(name string) (int64, bool) {
	si := s.shardFor(name)
	s.locks[si].RLock()
	defer s.locks[si].RUnlock()
	return s.shards[si].IDByName(name)
}

// Series fetches the raw values stored under a global ID.
func (s *Sharded) Series(id int64) ([]float64, error) {
	s.mu.RLock()
	si, ok := s.owner[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: id %d not found", id)
	}
	s.locks[si].RLock()
	defer s.locks[si].RUnlock()
	return s.shards[si].Series(id)
}

// Insert stores a named series in its hash-assigned shard under a fresh
// global ID, taking only that shard's exclusive lock.
func (s *Sharded) Insert(name string, values []float64) (int64, error) {
	si := s.shardFor(name)
	sh := s.shards[si]
	s.locks[si].Lock()
	defer s.locks[si].Unlock()
	if err := sh.validateInsert(name, values); err != nil {
		return 0, err
	}
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.mu.Unlock()
	if err := sh.insertAt(id, name, values); err != nil {
		// Unreachable after validateInsert for well-formed input (e.g. a
		// non-finite series rejected by feature extraction); the reserved
		// ID stays burned — a gap in the ID space, never a collision.
		return 0, err
	}
	s.mu.Lock()
	s.owner[id] = si
	s.idPos[id] = len(s.ids)
	s.ids = append(s.ids, id)
	s.mu.Unlock()
	return id, nil
}

// InsertBulk loads a batch into an empty sharded store, bulk-loading every
// shard's index in parallel. Global IDs are assigned in batch order, so
// the resulting store is ID-identical to an unsharded InsertBulk of the
// same batch.
func (s *Sharded) InsertBulk(names []string, values [][]float64) error {
	return s.insertBulkPrepared(names, values, nil, nil, nil, nil)
}

// insertBulkPrepared is InsertBulk with optional precomputed derived data
// from a snapshot: feature points, raw encoded series and spectrum
// records (the snapshot's byte layout is the page-file record layout, so
// shards store them verbatim), and per-shard packed trees. points == nil
// runs the full validation + extraction here (the plain InsertBulk path);
// with points the extraction is skipped and only the cheap structural
// checks run. trees, when non-nil, must hold one decoded tree per shard,
// partitioned exactly as this store partitions (same shard count,
// hash-of-name assignment) — each shard then adopts its tree instead of
// STR bulk loading.
func (s *Sharded) insertBulkPrepared(names []string, values [][]float64, rawVals [][]byte, points []geom.Point, specs [][]byte, trees []*rtree.Tree) error {
	if values == nil && (rawVals == nil || points == nil || specs == nil) {
		return fmt.Errorf("core: a raw-only bulk load needs raw records, points, and spectra")
	}
	if values != nil && len(names) != len(values) {
		return fmt.Errorf("core: %d names but %d series", len(names), len(values))
	}
	if rawVals != nil && len(rawVals) != len(names) {
		return fmt.Errorf("core: %d names but %d raw value records", len(names), len(rawVals))
	}
	if trees != nil && len(trees) != len(s.shards) {
		return fmt.Errorf("core: %d packed trees for %d shards", len(trees), len(s.shards))
	}
	s.lockAll()
	defer s.unlockAll()
	if len(s.ids) > 0 || s.nextID != 0 {
		return fmt.Errorf("core: InsertBulk requires a fresh store (have %d live series, %d ever inserted)", len(s.ids), s.nextID)
	}
	// Validate the entire batch — including feature extraction, the only
	// check that can fail on well-formed names — before any shard loads,
	// so a bad series cannot leave sibling shards populated behind an
	// empty catalog (the unsharded InsertBulk is all-or-nothing too). The
	// extracted points ride along to the shard loads, so the dominant
	// bulk-load cost runs once per series. Snapshot loads hand the points
	// in and skip straight to the structural checks.
	extract := points == nil
	if extract {
		points = make([]geom.Point, len(values))
	}
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		if name == "" {
			return fmt.Errorf("core: empty series name at position %d", i)
		}
		if seen[name] {
			return fmt.Errorf("core: duplicate series name %q", name)
		}
		seen[name] = true
		if values != nil && len(values[i]) != s.length {
			return fmt.Errorf("core: series %q has length %d, DB expects %d", name, len(values[i]), s.length)
		}
		if rawVals != nil && len(rawVals[i]) != 8*s.length {
			return fmt.Errorf("core: series %q raw record has %d bytes, DB expects %d", name, len(rawVals[i]), 8*s.length)
		}
		if extract {
			p, err := s.Schema().Extract(values[i])
			if err != nil {
				return err
			}
			points[i] = p
		}
	}
	n := len(s.shards)
	partNames := make([][]string, n)
	partValues := make([][][]float64, n)
	partIDs := make([][]int64, n)
	partPoints := make([][]geom.Point, n)
	partSpecs := make([][][]byte, n)
	partRaw := make([][][]byte, n)
	for i, name := range names {
		si := s.shardFor(name)
		partNames[si] = append(partNames[si], name)
		if values != nil {
			partValues[si] = append(partValues[si], values[i])
		}
		partIDs[si] = append(partIDs[si], int64(i))
		partPoints[si] = append(partPoints[si], points[i])
		if specs != nil {
			partSpecs[si] = append(partSpecs[si], specs[i])
		}
		if rawVals != nil {
			partRaw[si] = append(partRaw[si], rawVals[i])
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for si := 0; si < n; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sh := s.shards[si]
			sp := partSpecs[si]
			if specs == nil {
				sp = nil
			}
			rv := partRaw[si]
			if rawVals == nil {
				rv = nil
			}
			if trees != nil {
				errs[si] = sh.adoptBulk(partNames[si], partValues[si], partIDs[si], partPoints[si], rv, sp, trees[si])
			} else {
				errs[si] = sh.loadBulk(partNames[si], partValues[si], partIDs[si], partPoints[si], rv, sp, nil)
			}
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.mu.Lock()
	for i := range names {
		id := int64(i)
		s.owner[id] = s.shardFor(names[i])
		s.idPos[id] = len(s.ids)
		s.ids = append(s.ids, id)
	}
	s.nextID = int64(len(names))
	s.mu.Unlock()
	return nil
}

// Update replaces the values stored under an existing name, reindexing the
// series in its shard under a fresh global ID (Delete + Insert semantics,
// matching DB.Update).
func (s *Sharded) Update(name string, values []float64) (int64, error) {
	si := s.shardFor(name)
	sh := s.shards[si]
	s.locks[si].Lock()
	defer s.locks[si].Unlock()
	oldID, ok := sh.IDByName(name)
	if !ok {
		return 0, fmt.Errorf("core: unknown series %q", name)
	}
	if len(values) != s.length {
		return 0, fmt.Errorf("core: series %q has length %d, DB expects %d", name, len(values), s.length)
	}
	if _, err := sh.Schema().Extract(values); err != nil {
		return 0, err
	}
	sh.Delete(name)
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.removeCatalogLocked(oldID)
	s.mu.Unlock()
	if err := sh.insertAt(id, name, values); err != nil {
		return 0, err // unreachable after validation
	}
	s.mu.Lock()
	s.owner[id] = si
	s.idPos[id] = len(s.ids)
	s.ids = append(s.ids, id)
	s.mu.Unlock()
	return id, nil
}

// Delete removes a series by name, taking only its shard's exclusive
// lock. It reports whether the name was present.
func (s *Sharded) Delete(name string) bool {
	si := s.shardFor(name)
	sh := s.shards[si]
	s.locks[si].Lock()
	defer s.locks[si].Unlock()
	id, ok := sh.IDByName(name)
	if !ok {
		return false
	}
	sh.Delete(name)
	s.mu.Lock()
	s.removeCatalogLocked(id)
	s.mu.Unlock()
	return true
}

// removeCatalogLocked drops a global ID from the catalog (caller holds
// s.mu).
func (s *Sharded) removeCatalogLocked(id int64) {
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
func (s *Sharded) Compact() (int, error) {
	total := 0
	for si := range s.shards {
		s.locks[si].Lock()
		n, err := s.shards[si].Compact()
		s.locks[si].Unlock()
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// lockAll / unlockAll take every shard's exclusive lock in ascending
// order (the global lock order, so whole-store operations cannot deadlock
// against per-shard writers).
func (s *Sharded) lockAll() {
	for i := range s.locks {
		s.locks[i].Lock()
	}
}

func (s *Sharded) unlockAll() {
	for i := len(s.locks) - 1; i >= 0; i-- {
		s.locks[i].Unlock()
	}
}

// rlockAll / runlockAll are the shared-mode counterparts, used by
// cross-shard reads (joins, snapshots) that need every shard pinned at
// once.
func (s *Sharded) rlockAll() {
	for i := range s.locks {
		s.locks[i].RLock()
	}
}

func (s *Sharded) runlockAll() {
	for i := len(s.locks) - 1; i >= 0; i-- {
		s.locks[i].RUnlock()
	}
}

// fanOut runs fn for every shard under that shard's shared lock — shard 0
// on the calling goroutine, the rest concurrently — returning the
// lowest-indexed error. Running one partition inline keeps the
// single-shard configuration goroutine-free and saves one spawn/wakeup
// per query otherwise.
func (s *Sharded) fanOut(fn func(si int, sh *DB) error) error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := 1; i < len(s.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.locks[i].RLock()
			defer s.locks[i].RUnlock()
			errs[i] = fn(i, s.shards[i])
		}(i)
	}
	s.locks[0].RLock()
	errs[0] = fn(0, s.shards[0])
	s.locks[0].RUnlock()
	wg.Wait()
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

// shardProvenance folds per-shard costs and result counts into the merged
// stats' provenance — what EXPLAIN's per-shard breakdown and the server's
// dependency-tagged cache consume.
func shardProvenance(sts []ExecStats, results []int) []ShardExec {
	out := make([]ShardExec, len(sts))
	for si := range sts {
		out[si] = ShardExec{
			Shard:        si,
			NodeAccesses: sts[si].NodeAccesses,
			PageReads:    sts[si].PageReads,
			Candidates:   sts[si].Candidates,
			HeadResolved: sts[si].HeadResolved,
			Elapsed:      sts[si].Elapsed,
			Results:      results[si],
		}
	}
	return out
}

// fan is the one fan-out-and-merge every per-shard execution goes through:
// run executes on every shard in parallel (fanOut), accumulating that
// shard's costs into its own ExecStats; merge then gathers the per-shard
// answers — sorting them under the deterministic order — and reports how
// many each shard contributed (counts) and the merged total. fan times both
// steps, charges each shard its page reads and wall time, and folds it all
// into one ExecStats with per-shard provenance and the fanout/merge spans.
func (s *Sharded) fan(run func(si int, sh *DB, st *ExecStats) error, merge func(counts []int) (results int)) (ExecStats, error) {
	timer := stats.StartTimer()
	sts := make([]ExecStats, len(s.shards))
	if err := s.fanOut(func(si int, sh *DB) error {
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
	st.Shards = shardProvenance(sts, counts)
	st.Spans = fanSpans(fanD, mergeT.Elapsed(), st.Shards)
	st.Elapsed = timer.Elapsed()
	return st, nil
}

// SubsequenceScan runs the time-domain subsequence scan on every shard in
// parallel.
func (s *Sharded) SubsequenceScan(q []float64, eps float64) ([]SubseqResult, ExecStats, error) {
	parts := make([][]SubseqResult, len(s.shards))
	var out []SubseqResult
	st, err := s.fan(func(si int, sh *DB, pst *ExecStats) (err error) {
		parts[si], *pst, err = sh.SubsequenceScan(q, eps)
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

// entry is one live series pinned for a cross-shard join: its global ID,
// owning shard index, and that shard's store.
type entry struct {
	id int64
	si int
	sh *DB
}

// pinAll takes every shard's shared lock and snapshots the catalog in
// ascending global-ID (insertion) order. The caller must runlockAll when
// done.
func (s *Sharded) pinAll() []entry {
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

// SelfJoin finds all pairs of distinct stored series within eps under the
// given Table 1 method, across all shards: scan methods run one global
// nested scan partitioned across workers; index methods probe every
// shard's index with every stored series in parallel. Output matches the
// unsharded SelfJoin exactly (same pairs, same (A, B) order, same
// once/twice reporting per method). For cost-based method selection use
// PlanJoin/ExecJoin instead.
func (s *Sharded) SelfJoin(eps float64, t transform.T, method JoinMethod) ([]JoinPair, ExecStats, error) {
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

// joinScanFan is the global nested scan (methods a and b): outer rows —
// from every shard — are strided across GOMAXPROCS workers, each emitting
// into a private buffer. All shard locks are held in shared mode for the
// duration. Costs and results are attributed to the outer row's owning
// shard in the merged per-shard provenance.
func (s *Sharded) joinScanFan(jp *joinPlan, earlyAbandon bool) ([]JoinPair, ExecStats, error) {
	timer := stats.StartTimer()
	entries := s.pinAll()
	defer s.runlockAll()
	reads0 := s.pageReadsLocked()

	n := len(entries)
	workers := runtime.GOMAXPROCS(0)
	if workers > n && n > 0 {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	type partial struct {
		pairs []JoinPair
		sts   []ExecStats // by outer row's shard
		err   error
	}
	results := make([]partial, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &results[w]
			out.sts = make([]ExecStats, len(s.shards))
			var pages [][]byte
			for i := w; i < n; i += workers {
				X, err := entries[i].sh.spectrum(entries[i].id)
				if err != nil {
					out.err = err
					return
				}
				lx := make([]complex128, len(X))
				for f := range X {
					lx[f] = jp.la[f]*X[f] + jp.lb[f]
				}
				var rx []complex128
				if jp.q.TwoSided {
					rx = make([]complex128, len(X))
					for f := range X {
						rx[f] = jp.ra[f]*X[f] + jp.rb[f]
					}
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
		}(w)
	}
	wg.Wait()
	scanD := timer.Elapsed()
	mergeT := stats.StartTimer()

	var st ExecStats
	var out []JoinPair
	st.Shards = make([]ShardExec, len(s.shards))
	for si := range st.Shards {
		st.Shards[si].Shard = si
	}
	for _, r := range results {
		if r.err != nil {
			return nil, st, fmt.Errorf("core: sharded join worker: %w", r.err)
		}
		out = append(out, r.pairs...)
		for si, part := range r.sts {
			st.DistanceTerms += part.DistanceTerms
			st.Candidates += part.Candidates
			st.HeadResolved += part.HeadResolved
			st.Shards[si].Candidates += part.Candidates
			st.Shards[si].HeadResolved += part.HeadResolved
			st.Shards[si].Results += part.Results
		}
	}
	sortPairs(out)
	st.Results = len(out)
	st.PageReads = s.pageReadsLocked() - reads0
	st.Spans = []Span{workSpan("scan", scanD, &st), span("merge", mergeT.Elapsed())}
	st.Elapsed = timer.Elapsed()
	return out, st, nil
}

// joinIndexFan is the index-nested-loop join over a sharded store
// (self-join methods c/d and planned index joins, two-sided ones included):
// every stored series, in parallel batches partitioned by its owning
// shard, probes every shard's index with the right-side transformation
// applied to its point, and candidates verify in their owning shard
// against the left-side transformation. jp.q.TwoSided selects the two-sided
// join's (candidate, probe) pair orientation; otherwise pairs are
// (probe, candidate) as in selfJoinIndex. selfOnce emits each unordered
// pair exactly once (from its lower-ID probe), the planned self join's
// canonical accounting.
func (s *Sharded) joinIndexFan(jp *joinPlan, selfOnce bool) ([]JoinPair, ExecStats, error) {
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
	var wg sync.WaitGroup
	for pi := range s.shards {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			shTimer := stats.StartTimer()
			out := &results[pi]
			defer func() { out.st.Elapsed = shTimer.Elapsed() }()
			probe := s.shards[pi]
			var (
				pages [][]byte
				sc    index.Scratch
				buf   []int64
			)
			for _, qid := range probe.ids {
				qp := probe.rec(qid).point
				tq := qp
				if !jp.rm.Identity() {
					tq = jp.rm.ApplyPoint(qp)
				}
				QX, err := probe.spectrum(qid)
				if err != nil {
					out.err = err
					return
				}
				tQ := make([]complex128, len(QX))
				for f := range QX {
					tQ[f] = jp.ra[f]*QX[f] + jp.rb[f]
				}
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
						within, dist, err := target.verifyFreq(&out.st, &pages, id, jp.la, jp.lb, tQ, jp.q.Eps)
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
		}(pi)
	}
	wg.Wait()
	fanD := timer.Elapsed()
	mergeT := stats.StartTimer()

	var st ExecStats
	var out []JoinPair
	st.Shards = make([]ShardExec, len(results))
	for pi, r := range results {
		if r.err != nil {
			return nil, ExecStats{}, fmt.Errorf("core: sharded join worker: %w", r.err)
		}
		out = append(out, r.pairs...)
		st.NodeAccesses += r.st.NodeAccesses
		st.Candidates += r.st.Candidates
		st.HeadResolved += r.st.HeadResolved
		st.DistanceTerms += r.st.DistanceTerms
		st.Shards[pi] = ShardExec{
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
	st.Spans = fanSpans(fanD, mergeT.Elapsed(), st.Shards)
	st.Elapsed = timer.Elapsed()
	return out, st, nil
}

// pageReadsLocked sums relation read counters across shards (caller holds
// all shard locks in at least shared mode).
func (s *Sharded) pageReadsLocked() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.pageReads()
	}
	return total
}
