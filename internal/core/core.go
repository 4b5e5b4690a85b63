// Package core is the query processor at the heart of the reproduction —
// the paper's primary contribution assembled into a working system. It
// wires the k-index (Section 4), the paged relations, and the
// transformation language into the three query kinds the paper supports —
// range queries, nearest-neighbor queries, and all-pairs (join) queries —
// each available both through the index (Algorithm 2) and through the
// sequential-scan baselines the experiments compare against (Section 5).
//
// A Store is a slice of hash-partitioned shards (one shard is the plain,
// unpartitioned store). Each shard holds, for one fixed series length n:
//
//   - the time-domain relation: raw series, used by warp verification and
//     examples;
//   - the frequency-domain relation: the spectrum of every series' normal
//     form, stored as its first ⌊n/2⌋+1 coefficients — the rest are their
//     complex conjugates (half.go) — in natural order, which is energy
//     order, so scans and post-processing can abandon distance computations
//     early;
//   - the k-index: an R*-tree over the Section 5 feature layout
//     (mean, std, polar/rect coefficients X_1..X_K of the normal form).
//
// All query distances are Euclidean distances between *normal forms*
// (optionally transformed), matching the paper's experimental setup where
// every series is normalized before indexing and mean/std live in separate
// index dimensions.
package core

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/rtree"
)

// ErrUnknownSeries and ErrDuplicateSeries are the causes of an operation
// that names a series the store does not hold, or one it already holds.
// Every error that reports one wraps it, so a caller tells them apart with
// errors.Is and not by the message, which quotes the caller's name.
var (
	ErrUnknownSeries   = errors.New("unknown series")
	ErrDuplicateSeries = errors.New("duplicate series name")
)

// Options configures a Store; every shard gets the same.
type Options struct {
	// Schema is the feature layout; the zero value selects the paper's
	// six-dimensional polar schema.
	Schema feature.Schema
	// PageSize for the simulated relations (<= 0: 4 KiB).
	PageSize int
	// RTree carries node capacity options for the index.
	RTree rtree.Options
	// Backing, when non-empty, stores the relations in disk-backed page
	// files under this directory instead of in memory: pages fault in
	// through a buffer pool on demand, so the store can exceed RAM. The
	// directory is created if needed; the page files are process scratch
	// (snapshots remain the durability format) and are removed by Close.
	// Each shard gets its own subdirectory.
	Backing string
	// CachePages is the per-relation buffer-pool capacity (in pages) when
	// Backing is set; <= 0 selects relation.DefaultDiskCachePages. The
	// time- and frequency-domain relations get one pool apiece.
	CachePages int
}

// shard is one partition of a Store: a k-index, the two paged relations and
// the record directory over a hash-assigned subset of the series, behind its
// own lock. It is the storage unit — everything Algorithm 2 touches for one
// partition — and nothing above that: plans and the global ID space belong
// to the Store. Methods assume the caller holds mu in
// the mode the operation needs.
type shard struct {
	mu      sync.RWMutex
	schema  feature.Schema
	length  int
	opts    Options
	idx     *index.KIndex
	timeRel *relation.Relation
	freqRel *relation.Relation
	// recs holds what the shard keeps per record beside the relations,
	// indexed by the record's slot in freqRel (relation.View.Slot): a
	// candidate's spectrum head and name are both one directory lookup
	// away. Like the directory it is derived state, rebuilt by every load
	// and by Compact.
	recs   []record
	byName map[string]int64
	ids    []int64 // live IDs, arbitrary order (swap-delete)
	// gen numbers the relation generations of a disk-backed shard: Compact
	// builds generation gen+1's page files alongside the live pair before
	// swapping, so scratch file names never collide. madeDir is whether the
	// shard created its backing directory, and so removes it on close.
	gen     int
	madeDir bool
	// dv is derive's working memory, used under the write lock.
	dv deriver
}

// record is one stored series' entry in shard.recs. A deleted series keeps
// its slot (the relations are append-only until Compact) with the zero
// record in it.
type record struct {
	name  string
	point geom.Point // the indexed feature point; nil once deleted
	pos   int32      // position in shard.ids, for O(1) delete
}

// rec returns the live record stored under id, or nil.
func (sh *shard) rec(id int64) *record {
	slot, ok := sh.freqRel.Slot(id)
	if !ok || sh.recs[slot].point == nil {
		return nil
	}
	return &sh.recs[slot]
}

// addRecord enters a series just stored in both relations: its record
// takes the slot freqRel gave it, the next one.
func (sh *shard) addRecord(id int64, name string, p geom.Point) {
	sh.recs = append(sh.recs, record{name: name, point: p, pos: int32(len(sh.ids))})
	sh.byName[name] = id
	sh.ids = append(sh.ids, id)
}

// newShard creates an empty partition for series of the given length.
func newShard(length int, opts Options) (*shard, error) {
	if length < 4 {
		return nil, fmt.Errorf("core: series length %d too short", length)
	}
	if opts.Schema == (feature.Schema{}) {
		opts.Schema = feature.DefaultSchema
	}
	if err := opts.Schema.Validate(); err != nil {
		return nil, err
	}
	if length < opts.Schema.K+1 {
		return nil, fmt.Errorf("core: length %d cannot support K=%d coefficients", length, opts.Schema.K)
	}
	ix, err := index.New(opts.Schema, opts.RTree)
	if err != nil {
		return nil, err
	}
	sh := &shard{
		schema: opts.Schema,
		length: length,
		opts:   opts,
		idx:    ix,
		byName: make(map[string]int64),
	}
	if opts.Backing != "" {
		if sh.madeDir, err = makeDir(opts.Backing); err != nil {
			return nil, err
		}
	}
	if sh.timeRel, sh.freqRel, err = newRelationPair(opts, 0); err != nil {
		sh.removeDir()
		return nil, err
	}
	return sh, nil
}

// makeDir creates directory dir, and its parent if need be, reporting
// whether it made dir itself (false: it was there already).
func makeDir(dir string) (bool, error) {
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return false, fmt.Errorf("core: creating backing directory: %w", err)
	}
	switch err := os.Mkdir(dir, 0o755); {
	case err == nil:
		return true, nil
	case errors.Is(err, fs.ErrExist):
		return false, nil
	default:
		return false, fmt.Errorf("core: creating backing directory: %w", err)
	}
}

// removeDir removes the shard's backing directory if the shard made it.
// os.Remove never removes a directory that still holds something.
func (sh *shard) removeDir() error {
	if !sh.madeDir {
		return nil
	}
	return os.Remove(sh.opts.Backing)
}

// newRelationPair builds a shard's time- and frequency-domain relations
// per the options: disk-backed page files in the opts.Backing directory when set
// (gen picks the generation-suffixed scratch names, so a compaction can
// build its replacement pair next to the live one), in-memory otherwise.
func newRelationPair(opts Options, gen int) (timeRel, freqRel *relation.Relation, err error) {
	if opts.Backing == "" {
		timeRel, freqRel = relation.New(opts.PageSize), relation.New(opts.PageSize)
		freqRel.KeepHeads()
		return timeRel, freqRel, nil
	}
	timeRel, err = relation.NewDisk(filepath.Join(opts.Backing, fmt.Sprintf("time-g%03d.pages", gen)), opts.PageSize, opts.CachePages)
	if err != nil {
		return nil, nil, err
	}
	freqRel, err = relation.NewDisk(filepath.Join(opts.Backing, fmt.Sprintf("freq-g%03d.pages", gen)), opts.PageSize, opts.CachePages)
	if err != nil {
		timeRel.Close()
		return nil, nil, err
	}
	freqRel.KeepHeads()
	return timeRel, freqRel, nil
}

// close releases the shard's backing storage, removing the disk scratch
// files of a disk-backed store (snapshots are the durability format) and
// the directory the shard made for them.
func (sh *shard) close() error {
	err := sh.timeRel.Close()
	if ferr := sh.freqRel.Close(); err == nil {
		err = ferr
	}
	if derr := sh.removeDir(); err == nil {
		err = derr
	}
	return err
}

// reset empties a shard whose bulk load failed part way: an empty relation
// pair of the next generation replaces the live one, and the index and the
// record directory start over.
func (sh *shard) reset() error {
	ix, err := index.New(sh.schema, sh.opts.RTree)
	if err != nil {
		return err
	}
	timeRel, freqRel, err := newRelationPair(sh.opts, sh.gen+1)
	if err != nil {
		return err
	}
	sh.timeRel.Close()
	sh.freqRel.Close()
	sh.timeRel, sh.freqRel, sh.idx, sh.gen = timeRel, freqRel, ix, sh.gen+1
	sh.recs, sh.ids, sh.byName = nil, nil, make(map[string]int64)
	return nil
}

// PoolStats aggregates buffer-pool counters across a store's relations
// (time- and frequency-domain pools of every shard summed). Zero-valued
// with DiskBacked false when no pools are attached.
type PoolStats struct {
	Hits, Misses, Evictions int64
	Resident, Pinned        int
	Capacity                int
	DiskBacked              bool
}

// add folds in one relation's pool counters, if it has a pool.
func (p *PoolStats) add(rel *relation.Relation) {
	info, ok := rel.PoolInfo()
	if !ok {
		return
	}
	p.Hits += info.Hits
	p.Misses += info.Misses
	p.Evictions += info.Evictions
	p.Resident += info.Resident
	p.Pinned += info.Pinned
	p.Capacity += info.Capacity
}

// name returns the name stored for an ID ("" if absent).
func (sh *shard) name(id int64) string {
	if r := sh.rec(id); r != nil {
		return r.name
	}
	return ""
}

// queryPrep assembles the stored-record planning artifacts of a series:
// a private copy of its indexed feature point plus its stored half
// spectrum. Planning a by-name query from these skips the derivation a
// literal query series pays, without changing the plan — the point and the
// spectrum are bit-identical to what deriving the stored window again would
// give. ok is false when the id is not a live series.
func (sh *shard) queryPrep(id int64) (*QueryPrep, bool) {
	r := sh.rec(id)
	if r == nil {
		return nil, false
	}
	spec, err := sh.spectrum(nil, id)
	if err != nil {
		return nil, false
	}
	return &QueryPrep{Point: append([]float64(nil), r.point...), Spectrum: spec}, true
}

// validateInsert runs the cheap structural checks of an insert — name
// present and unique, length matching — without touching storage, so the
// store can reject a doomed insert before burning a global ID on it.
func (sh *shard) validateInsert(name string, values []float64) error {
	if name == "" {
		return fmt.Errorf("core: empty series name")
	}
	if _, dup := sh.byName[name]; dup {
		return fmt.Errorf("core: %w %q", ErrDuplicateSeries, name)
	}
	if len(values) != sh.length {
		return fmt.Errorf("core: series %q has length %d, DB expects %d", name, len(values), sh.length)
	}
	return nil
}

// deriver is the working memory of derive: the transform's scratch and the
// record of a write that stores a copy. A shard's write path uses the
// shard's own under its write lock; each worker of a bulk load has its own.
type deriver struct {
	scratch feature.Scratch
	recBuf  []byte
}

// derive computes everything a shard stores about a window beside the
// window, from one real-input transform (feature.Schema.Derive): the feature
// point it is indexed under and the frequency relation's record — the stored
// half of the normal form's spectrum, appended to rec or, with rec nil,
// written in dv until its next derive (the relations copy what they store).
// insertAt, overwrite and a bulk load all store what it returns, so an
// updated or appended series equals the same window inserted whole bit for
// bit, and a point's coefficients are its record's X_1 … X_K. A non-finite
// value is rejected here, before any writer has touched storage: NaN has no
// place in the index's order.
func (dv *deriver) derive(schema feature.Schema, name string, values []float64, rec []byte) (geom.Point, []byte, error) {
	for i, x := range values {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, nil, fmt.Errorf("core: series %q has a non-finite value at position %d", name, i)
		}
	}
	p, half, err := schema.Derive(values, &dv.scratch)
	if err != nil {
		return nil, nil, err
	}
	if rec == nil {
		dv.recBuf = relation.AppendComplex(dv.recBuf[:0], half)
		return p, dv.recBuf, nil
	}
	return p, relation.AppendComplex(rec, half), nil
}

// derive is the shard's deriver at its schema. The caller holds the write
// lock.
func (sh *shard) derive(name string, values []float64, rec []byte) (geom.Point, []byte, error) {
	return sh.dv.derive(sh.schema, name, values, rec)
}

// insertAt stores and indexes a validated series — values with the point and
// spectrum record derive gave for them — under the ID the store assigned it:
// unused, and unique across every shard for the store's lifetime. The index
// entry's prefix is copied from the head the record just got.
func (sh *shard) insertAt(id int64, name string, values []float64, p geom.Point, rec []byte) error {
	if err := sh.timeRel.Insert(id, values); err != nil {
		return err
	}
	if err := sh.freqRel.InsertRaw(id, rec); err != nil {
		return err
	}
	if err := sh.idx.Insert(id, p, sh.leafPrefix(id)); err != nil {
		return err
	}
	sh.addRecord(id, name, p)
	return nil
}

// leafPrefix returns the first relation.LeafCoeffs coefficients of the
// record stored under id — a view of its resident head, so the k-index leaf
// that copies it and the head hold the same floats — or nil when id is not
// stored.
func (sh *shard) leafPrefix(id int64) []complex128 {
	rv, err := sh.freqRel.View(id)
	if err != nil {
		return nil
	}
	return rv.Head[:min(len(rv.Head), relation.LeafCoeffs)]
}

// remove deletes a series by name: its feature point leaves the index and
// it disappears from all query and scan results. The relation pages it
// occupied are not reclaimed (the storage substrate is append-only, like
// a heap file awaiting compaction); page-read accounting of later scans is
// unaffected because scans iterate live IDs. Removal from the live-ID list
// is O(1) via the record's position and swap-delete, so deletes stay cheap
// at scale; scan iteration order is consequently arbitrary, which is
// harmless because every query re-sorts its results deterministically.
// It reports the removed ID, or false when the name was not stored.
func (sh *shard) remove(name string) (int64, bool) {
	id, ok := sh.byName[name]
	if !ok {
		return 0, false
	}
	r := sh.rec(id)
	sh.idx.Delete(id, r.point)
	delete(sh.byName, name)
	last := len(sh.ids) - 1
	moved := sh.ids[last]
	sh.ids[r.pos] = moved
	sh.rec(moved).pos = r.pos
	sh.ids = sh.ids[:last]
	*r = record{}
	return id, true
}

// spectrum fetches the stored half spectrum of a series' normal form into
// dst's capacity, decoding straight off the record's head and page views —
// one pass instead of the byte-copy + float-decode + complex-pair passes a
// Get-based decode would take.
func (sh *shard) spectrum(dst []complex128, id int64) ([]complex128, error) {
	rv, err := sh.freqRel.View(id)
	if err != nil {
		return nil, err
	}
	out := slices.Grow(dst[:0], halfLen(sh.length))[:halfLen(sh.length)]
	if copy(out, rv.Head) == len(out) {
		return out, nil
	}
	cur, err := sh.pinTail(rv, nil, len(rv.Head))
	if err != nil {
		return nil, err
	}
	for f := len(rv.Head); f < len(out); f++ {
		out[f] = cur.Next()
	}
	sh.freqRel.ReleaseView(rv)
	return out, nil
}

// pinTail pins the pages of a viewed record and returns a cursor on its
// coefficient `from`. Every distance loop reads a stored spectrum the same
// way: the view's resident head (the first relation.HeadCoeffs stored
// coefficients) as a plain slice, and the rest through
// pinTail by the first term past the head and not before — so a loop that
// abandons inside the head costs the directory lookup and a sequential read
// of the slab: no hash probe, no buffer-pool mutex, no frame map, no pread,
// no pin. Terms come back in the same order with the same values either
// way, so a running sum carries across the boundary unchanged. pbuf is a
// caller-owned page-view buffer (typically an arena's) so the hot loop
// faults records in without allocating; nil allocates. The caller gives the
// pins back with freqRel.ReleaseView(rv).
func (sh *shard) pinTail(rv relation.View, pbuf *[][]byte, from int) (relation.Cursor, error) {
	var buf [][]byte
	if pbuf != nil {
		buf = (*pbuf)[:0]
	}
	pages, err := sh.freqRel.ViewPagesInto(rv, buf)
	if err != nil {
		return relation.Cursor{}, err
	}
	if pbuf != nil {
		*pbuf = pages
	}
	return relation.CursorAt(pages, sh.freqRel.PageSize(), from), nil
}

// pageReads snapshots the combined relation read counters.
func (sh *shard) pageReads() int64 {
	return sh.timeRel.Stats().Reads + sh.freqRel.Stats().Reads
}

// ExecStats reports the cost of one query execution.
type ExecStats struct {
	// Elapsed wall-clock time.
	Elapsed time.Duration
	// NodeAccesses is the number of index nodes visited (the paper's
	// "disk accesses" for the index side).
	NodeAccesses int
	// PageReads is the number of relation pages read (scan + verification
	// I/O): the accesses the index and the resident head could not avoid.
	PageReads int64
	// Candidates is the number of items the filter phase passed to
	// verification.
	Candidates int
	// HeadResolved is the number of those candidates verification decided
	// from resident memory — abandoned inside the spectrum head — so
	// Candidates minus HeadResolved is the number of records whose pages
	// were opened.
	// Time-domain verification (warped queries, the naive scan) reads every
	// record and resolves none here.
	HeadResolved int
	// LeafResolved is the number of those head-resolved candidates an
	// indexed read decided inside a k-index leaf, on the entry's copy of its
	// record's first stored coefficients (leafTest), without looking the
	// record up.
	LeafResolved int
	// Results is the number of verified answers.
	Results int
	// DistanceTerms counts accumulated squared-difference terms across all
	// distance computations; early abandoning shows up as a small value
	// relative to Candidates * length.
	DistanceTerms int64
	// Shards is the per-shard provenance of a fan-out execution: one entry
	// per shard with its share of the filter cost and its contribution to
	// the merged answer. Nil on a one-shard store, whose execution is the
	// whole of it.
	Shards []ShardExec
	// Strategy is the execution strategy the plan resolved or was forced
	// to ("index", "scan", "scantime"); empty for SelfJoin(method) and
	// SubsequenceScan, which run no plan.
	Strategy string
	// Delta echoes the approximate tier's guaranteed relative error
	// bound; 0 on exact executions.
	Delta float64
	// Filter is the Lemma 1 geometry of the range/NN plan that ran — query
	// feature point, index action, mirror weight — whatever strategy
	// executed it: the test a later write must pass to be able to change
	// the answer, which is what the server keeps beside a cached result.
	// Nil for the time-domain scan and the join kinds, which build no such
	// plan.
	Filter *Prefilter
	// Spans is the execution's trace tree — named wall-time spans for the
	// plan → fan-out → merge pipeline, with per-shard children. TRACE
	// statements and the flight recorder surface it.
	Spans []Span
}

// Result is one similarity-query answer.
type Result struct {
	ID   int64
	Name string
	// Dist is the Euclidean distance between the (transformed) normal form
	// of the stored series and the normal form of the query.
	Dist float64
}

// verifyFreq computes whether the kernel's distance is within eps — D(A*X+B,
// Q) over the full spectrum, read off the stored half one coefficient and
// its twin at a time (half.go) — with early abandoning, evaluated lazily off
// the stored record: the resident head is walked as a plain slice, and only
// a comparison that survives it pins the record's pages and deserializes the
// tail one coefficient at a time — so an early-abandoned comparison skips the
// page fetch and the decoding of everything after the abandonment point. This
// is what makes the paper's scan method (b) an order of magnitude faster
// than (a): the dominant per-record cost is proportional to the terms
// actually examined. It is the one exact verification every index
// candidate, scan row, join probe and monitor check goes through; it
// returns the decision and the exact distance when within, and accumulates
// DistanceTerms (stored coefficients read) and HeadResolved into st. pbuf is
// the page-view buffer the tail is pinned into (see pinTail).
func (sh *shard) verifyFreq(st *ExecStats, pbuf *[][]byte, id int64, k []twin, eps float64) (bool, float64, error) {
	rv, err := sh.freqRel.View(id)
	if err != nil {
		return false, 0, err
	}
	limit := eps * eps
	var pinned bool
	terms, sum, err := sh.recordSum(rv, k, limit, pbuf, &pinned)
	if err != nil {
		return false, 0, err
	}
	st.DistanceTerms += int64(terms)
	if pinned {
		sh.freqRel.ReleaseView(rv)
	} else {
		st.HeadResolved++
	}
	if sum > limit {
		return false, 0, nil
	}
	return true, math.Sqrt(sum), nil
}

// recordSum is the one walk of an exact distance over an opened record:
// headSum over the resident head, then — only if the sum is still within
// limit and the record is longer than its head — the tail, pinned into pbuf
// (pinTail) and decoded one coefficient at a time, stopping at the first
// coefficient that takes the sum past limit. It returns the terms read and
// the sum, past limit exactly when the walk stopped early; limit +Inf reads
// every term. *pinned records whether the tail's pages are pinned: a walk
// that finds it set reads the pages already in pbuf, so a second walk over
// the same record (a two-sided scan-join step) shares the first one's pin.
// The caller releases it (freqRel.ReleaseView) once, when *pinned.
func (sh *shard) recordSum(rv relation.View, k []twin, limit float64, pbuf *[][]byte, pinned *bool) (terms int, sum float64, err error) {
	head := rv.Head
	if terms, sum = headSum(k, head, limit); sum > limit || len(head) == len(k) {
		return terms, sum, nil
	}
	var cur relation.Cursor
	if *pinned {
		cur = relation.CursorAt(*pbuf, sh.freqRel.PageSize(), len(head))
	} else if cur, err = sh.pinTail(rv, pbuf, len(head)); err != nil {
		return terms, sum, err
	}
	*pinned = true
	for f := len(head); f < len(k); f++ {
		if sum += k[f].term(cur.Next()); sum > limit {
			return f + 1, sum, nil
		}
	}
	return len(k), sum, nil
}

// headSum is verification's walk over the start of a record's stored half:
// it sums k[f].term(x[f]) in order and stops at the first f where the sum
// passes limit, returning the terms read (f+1, or len(x) if none passed)
// and the sum so far — past limit exactly when it stopped early. verifyFreq
// runs it over the resident head and leafTest over a leaf's copy of the
// head's start, so the two read the same partial sums, bit for bit.
func headSum(k []twin, x []complex128, limit float64) (terms int, sum float64) {
	k = k[:len(x)] // one bounds check, not one a term
	for f, v := range x {
		sum += k[f].term(v)
		if sum > limit {
			return f + 1, sum
		}
	}
	return len(x), sum
}

// leafTest is the start of verifyFreq run inside a k-index leaf, on the
// entry's copy of its record's first relation.LeafCoeffs stored coefficients
// (an rtree.PrefixTest): headSum over the same kernel, against a limit no
// tighter than verification's — eps² for a range read; for an NN read the
// square of the shared k-th best, re-read for each item, which only
// tightens. An item it calls far is one verification would dismiss inside
// the head. When the walk would have handed it over (VisitFar), it is
// counted as verification would count it — a candidate, resolved in the
// head, its terms read — and as LeafResolved; it never reaches the record
// directory. It is arena-held, so handing it over as an interface never
// allocates.
type leafTest struct {
	k     []twin
	limit float64 // a range read's eps²
	best  *topK   // an NN read's k-set, nil for a range read
	st    *ExecStats
}

// FarPrefix returns the terms headSum read to call pre far, 0 if it did not.
func (lt *leafTest) FarPrefix(pre []complex128) int {
	limit := lt.limit
	if lt.best != nil {
		eps := lt.best.threshold()
		limit = eps * eps
	}
	if terms, sum := headSum(lt.k, pre[:min(len(pre), len(lt.k))], limit); sum > limit {
		return terms
	}
	return 0
}

// VisitFar counts the far items the walk would have handed over, and the
// terms that decided them.
func (lt *leafTest) VisitFar(items, terms int) {
	lt.st.Candidates += items
	lt.st.HeadResolved += items
	lt.st.LeafResolved += items
	lt.st.DistanceTerms += int64(terms)
}
