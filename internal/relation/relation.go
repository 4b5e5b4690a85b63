// Package relation stores sets of sequences on simulated disk pages.
// The paper's experiments use two relations per data set: the time-domain
// relation holding raw series (consulted during post-processing to compute
// exact distances, and by join method (a)), and the frequency-domain
// relation holding spectra. A real series' spectrum is conjugate-symmetric,
// X_{n-f} = conj(X_f), so a record is its first ⌊n/2⌋+1 coefficients in
// natural frequency order — 16·(⌊n/2⌋+1) bytes, the rest being their
// conjugates — and for the paper's series that order is energy order: the
// sequential-scan baselines run over this relation so early abandoning can
// stop "within the first few coefficients" (Section 5).
//
// Records are encoded with encoding/binary (little endian) and may span
// pages; all page access is charged to the underlying pagefile's counters.
// The frequency-domain relation also keeps every record's first HeadCoeffs
// coefficients resident (KeepHeads, View), so a distance computation that
// abandons "within the first few coefficients" never reaches a page.
//
// Records are reached through a dense directory (directory.go): an id
// resolves to a slot — the record's position in insertion order — with two
// array loads, and everything kept per record (page range, head) is indexed
// by that slot.
package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/pagefile"
)

// HeadCoeffs is H, the number of leading complex coefficients of every
// record that a relation keeping heads (KeepHeads) holds resident beside
// the pages. In the frequency relation those are sixteen distinct
// frequencies, X_0..X_15, each standing for its conjugate twin as well. It
// is a constant, not a knob, chosen from a measurement on the benchmark's
// data shape (20,000 x 256 random walks in families of four, NN k = 10,
// against the final k-th distance): an index candidate reads 6.2 stored
// coefficients on average before it is abandoned (median 5, p99 26), and a
// 16-coefficient prefix test dismisses all but 51 of 20,000 records (203 at
// 8 coefficients, 23 at 32) — so 256 bytes per record decide nearly every
// candidate without touching its pages. (With each coefficient interleaved
// with its mirror, as until PR 25, the same 256 bytes held 8 frequencies
// and let 169 records through.)
const HeadCoeffs = 16

// LeafCoeffs is P, the number of leading stored coefficients (X_0..X_7, 128
// bytes) of every record a k-index leaf entry carries beside its point, so
// an NN or range read tests the first P terms of a candidate's verification
// inside the leaf, before the record is looked up. Measured like HeadCoeffs
// (20,000 x 256 family walks, 300 NN queries, k = 10, against the final 10th
// distance), the records a prefix test lets through are 1,802 of 20,000 at 2
// coefficients — the K the tree tiles — 536 at 4, 146 at 8 and 50 at 16;
// NN reads at P = 6, 8 and 16 took the same time within noise, and 8 is half
// the bytes of 16. A leaf's values are copies of the record's head, so P may
// not exceed HeadCoeffs (checked below): filling the column never reads a
// page.
const LeafCoeffs = 8

// The leaf prefix is a copy of part of the head: this fails to compile when
// LeafCoeffs exceeds HeadCoeffs.
const _ = uint(HeadCoeffs - LeafCoeffs)

// headChunkSlots is the number of head slots (HeadCoeffs coefficients
// apiece) per slab chunk: 64 KiB. The slab grows a chunk at a time and never
// moves a head once its first chunk is full, so loading a large store leaves
// 4 KiB of reallocation garbage behind and a sweep in insertion order still
// reads memory front to back. The first chunk starts at a sixteenth of its
// size, so a relation of a few records — a shard's share of a store split
// many ways — holds 4 KiB of heads, not 64.
const headChunkSlots = 256

// location is a stored record's page range. Locations are indexed by the
// record's slot, as are the heads.
type location struct {
	firstPage, pageCount int
}

// Relation is an insert-only table of float64 vectors keyed by int64 IDs.
// Complex spectra are stored as interleaved (real, imaginary) floats: a
// record built by AppendComplex, read back by DecodeComplex.
//
// A relation is either memory-backed (New — every page resident, outside
// the Go heap, and views are stable references to it until Close) or
// disk-backed (NewDisk — pages fault in through
// a mandatory buffer pool, so the file's read counter reports physical I/O,
// pool misses, and views are pinned frames that the reader must give back
// with ReleaseView). The access surface is identical; only the
// release discipline differs, and ReleaseView is a no-op for memory
// relations so callers can always pair page view and release. The heads of
// a relation keeping them are memory either way.
type Relation struct {
	file pagefile.Backing
	mem  *pagefile.File       // non-nil iff memory-backed
	disk *pagefile.DiskFile   // non-nil iff disk-backed
	pool *pagefile.BufferPool // non-nil iff disk-backed
	// dir resolves an id to its slot; ids and locs are indexed by slot (ids
	// is also the insertion order of deterministic scans). All three are
	// derived state: a load rebuilds them record by record and nothing of
	// them is persisted.
	dir  directory
	ids  []int64
	locs []location
	// heads is the resident slab of a relation keeping heads: the first
	// min(HeadCoeffs, n) complex coefficients of every record, slot by slot,
	// in chunks of headChunkSlots slots. It is derived state — rebuilt from
	// the records on every load, never persisted — and every write that
	// changes a record's pages rewrites its head in the same call, so the two
	// cannot disagree.
	heads [][]complex128
	// headLens is how many coefficients of each slot's head are filled. It
	// is a column of its own, a byte a record, so that reaching a head
	// touches the directory, this, and the slab — and not the 16-byte
	// locations, which only a reader going on to the pages needs.
	headLens  []uint8
	keepHeads bool
}

// New creates an empty relation over a fresh in-memory page file with the
// given page size (<= 0 selects the default).
func New(pageSize int) *Relation {
	mem := pagefile.New(pageSize)
	return &Relation{file: mem, mem: mem}
}

// DefaultDiskCachePages is the buffer-pool size a disk relation gets when
// the caller does not choose one (cachePages <= 0): 1024 pages = 4 MiB at
// the default page size.
const DefaultDiskCachePages = 1024

// NewDisk creates an empty relation over a disk-backed page file at path
// (created, truncated; removed again by Close). All reads go through a
// buffer pool of cachePages pages (<= 0 selects DefaultDiskCachePages) —
// the pool is mandatory for disk relations because page frames are
// recycled on eviction.
func NewDisk(path string, pageSize, cachePages int) (*Relation, error) {
	disk, err := pagefile.OpenDisk(path, pageSize)
	if err != nil {
		return nil, err
	}
	if cachePages <= 0 {
		cachePages = DefaultDiskCachePages
	}
	pool, err := pagefile.NewBufferPool(disk, cachePages)
	if err != nil {
		disk.Close()
		return nil, err
	}
	return &Relation{file: disk, disk: disk, pool: pool}, nil
}

// KeepHeads makes the relation hold the first HeadCoeffs complex
// coefficients of every record resident (see View). The store's
// frequency-domain relation keeps heads; the time-domain relation does not.
// It must be called before the first insert.
func (r *Relation) KeepHeads() {
	if len(r.ids) != 0 {
		panic("relation: KeepHeads on a non-empty relation")
	}
	r.keepHeads = true
}

// Reserve sizes the per-record tables for n further records, so a bulk
// load of known size grows none of them by doubling inside its loop, and
// has a memory relation map the pages of n records of size bytes each as
// one chunk, which the Carve and Insert calls that follow take them from.
// (The directory and the head slab grow a fixed-size page or chunk at a
// time and need no reservation.)
func (r *Relation) Reserve(n, size int) {
	r.ids = slices.Grow(r.ids, n)
	r.locs = slices.Grow(r.locs, n)
	if r.keepHeads {
		r.headLens = slices.Grow(r.headLens, n)
	}
	if r.mem != nil {
		r.mem.Reserve(n * size)
	}
}

// Carve returns size bytes of a memory relation's own page memory for the
// record an InsertOwned will store, which adopts it in place. A disk
// relation has no page memory: its records are copied into the page file
// from memory of the caller's.
func (r *Relation) Carve(size int) ([]byte, error) { return r.mem.Carve(size) }

// head returns the filled part of a slot's slab entry.
func (r *Relation) head(slot int32) []complex128 {
	if !r.keepHeads {
		return nil
	}
	off, n := int(slot%headChunkSlots)*HeadCoeffs, int(r.headLens[slot])
	return r.heads[slot/headChunkSlots][off : off+n : off+n]
}

// fillHead writes a slot's head from its encoded record (little-endian
// interleaved (re, im) float64 pairs).
func (r *Relation) fillHead(slot int32, data []byte) {
	if !r.keepHeads {
		return
	}
	const chunk = headChunkSlots * HeadCoeffs
	switch c := int(slot / headChunkSlots); {
	case c == len(r.heads) && c == 0:
		r.heads = append(r.heads, make([]complex128, chunk/16))
	case c == len(r.heads):
		r.heads = append(r.heads, make([]complex128, chunk))
	case int(slot%headChunkSlots)*HeadCoeffs == len(r.heads[c]):
		r.heads[c] = append(r.heads[c], make([]complex128, chunk-len(r.heads[c]))...)
	}
	if int(slot) == len(r.headLens) {
		r.headLens = append(r.headLens, 0)
	}
	r.headLens[slot] = uint8(min(len(data)/16, HeadCoeffs))
	for i, head := 0, r.head(slot); i < len(head); i++ {
		head[i] = complexOf(data, i)
	}
}

// admit checks that id can take the next slot with the encoded record data.
func (r *Relation) admit(id int64, data []byte) error {
	if len(data)%8 != 0 {
		return fmt.Errorf("relation: raw record of %d bytes is not a float64 vector", len(data))
	}
	if id < 0 {
		return fmt.Errorf("relation: negative id %d", id)
	}
	if _, ok := r.dir.get(id); ok {
		return fmt.Errorf("relation: duplicate id %d", id)
	}
	if len(r.ids) == math.MaxInt32 {
		return errors.New("relation: out of slots")
	}
	return nil
}

// enter records a freshly stored record under the next slot.
func (r *Relation) enter(id int64, first, count int, data []byte) {
	slot := int32(len(r.ids))
	r.locs = append(r.locs, location{first, count})
	r.fillHead(slot, data)
	r.ids = append(r.ids, id)
	r.dir.set(id, slot)
}

// complexOf decodes the i-th (re, im) pair of an encoded record.
func complexOf(data []byte, i int) complex128 {
	return complex(
		math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:])),
		math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:])))
}

// Close releases the backing storage: it unmaps a memory relation's pages
// and removes a disk relation's scratch file. The relation must not be
// used afterwards; a page read of a closed memory relation returns
// pagefile.ErrClosed. No reader may hold a page view across it.
func (r *Relation) Close() error {
	if r.disk != nil {
		return r.disk.Close()
	}
	return r.mem.Close()
}

// Len returns the number of stored records.
func (r *Relation) Len() int { return len(r.ids) }

// Pages returns the number of allocated pages.
func (r *Relation) Pages() int { return r.file.NumPages() }

// PageSize returns the underlying page size in bytes.
func (r *Relation) PageSize() int { return r.file.PageSize() }

// Stats exposes the page I/O counters.
func (r *Relation) Stats() pagefile.Stats { return r.file.Stats() }

// ResetStats zeroes the page I/O counters.
func (r *Relation) ResetStats() { r.file.ResetStats() }

// Insert stores vec under id. Inserting a duplicate ID is an error.
func (r *Relation) Insert(id int64, vec []float64) error {
	return r.InsertRaw(id, AppendFloats(nil, vec))
}

// InsertRaw stores an already-encoded record — the exact byte layout
// AppendFloats produces (little-endian float64s) — under id without
// re-encoding. A snapshot load uses it to copy records from the snapshot
// straight into a disk relation's pages: the SERS and DERV sections share
// the record layout, so adopting a snapshot never round-trips bytes through
// float64 or complex128 values.
func (r *Relation) InsertRaw(id int64, data []byte) error {
	if err := r.admit(id, data); err != nil {
		return err
	}
	first, count, err := r.file.AppendPages(data)
	if err != nil {
		r.unwind()
		return err
	}
	r.enter(id, first, count, data)
	return nil
}

// InsertOwned is InsertRaw for a record written into memory that Carve
// returned: a memory-backed relation adopts the bytes as its pages in
// place (no copy). A disk-backed one copies them, from wherever they are,
// into its page file (its open run, in a bulk write). The caller must not
// read or write data afterwards.
func (r *Relation) InsertOwned(id int64, data []byte) error {
	if r.mem == nil {
		return r.InsertRaw(id, data)
	}
	if err := r.admit(id, data); err != nil {
		return err
	}
	first, count, err := r.mem.AppendOwned(data)
	if err != nil {
		return err
	}
	r.enter(id, first, count, data)
	return nil
}

// StartRun opens a bulk write on a disk relation: the inserts that follow
// reach the page file runs of pages at a time, until EndRun (see
// pagefile.DiskFile.StartRun; buf is memory an earlier EndRun handed back,
// or nil). Between the two the relation takes inserts only. A memory
// relation ignores both.
func (r *Relation) StartRun(buf []byte) {
	if r.disk != nil {
		r.disk.StartRun(buf)
	}
}

// EndRun writes what the open run still holds and hands back its memory.
// If the write fails, the records the run held are forgotten, as if never
// inserted, and the error is returned.
func (r *Relation) EndRun() ([]byte, error) {
	if r.disk == nil {
		return nil, nil
	}
	buf, err := r.disk.EndRun()
	if err != nil {
		r.unwind()
	}
	return buf, err
}

// unwind forgets the records whose pages a failed page write dropped from
// the file: the last ones inserted, since within a run the relation takes
// inserts only. Their ids may be inserted again.
func (r *Relation) unwind() {
	n := len(r.ids)
	for ; n > 0; n-- {
		if loc := r.locs[n-1]; loc.firstPage+loc.pageCount <= r.file.NumPages() {
			break
		}
		r.dir.drop(r.ids[n-1])
	}
	r.ids, r.locs = r.ids[:n], r.locs[:n]
	if r.keepHeads {
		r.headLens = r.headLens[:n]
	}
}

// Replace overwrites the record stored under id. When the new encoding has
// the record's existing byte size — always true for the fixed-length
// series and spectra of an update or a streaming append — the pages are
// rewritten in place: the record keeps its location and no storage grows. A
// size-changing replacement falls back to appending a fresh copy and
// repointing the record, leaving the old pages orphaned until Compact
// (exactly like Delete). Either way the record keeps its slot, and the
// slot's location and head are rewritten in the same call.
func (r *Relation) Replace(id int64, vec []float64) error {
	return r.ReplaceRaw(id, AppendFloats(nil, vec))
}

// ReplaceRaw is Replace with an already-encoded record (see InsertRaw).
func (r *Relation) ReplaceRaw(id int64, data []byte) error {
	slot, ok := r.dir.get(id)
	if !ok {
		return fmt.Errorf("relation: id %d not found", id)
	}
	loc := r.locs[slot]
	var err error
	if r.pool != nil {
		// Write through the pool so cached disk frames refresh in place.
		err = r.pool.Overwrite(loc.firstPage, loc.pageCount, data)
	} else {
		err = r.file.Overwrite(loc.firstPage, loc.pageCount, data)
	}
	first, count := loc.firstPage, loc.pageCount
	if errors.Is(err, pagefile.ErrSizeMismatch) {
		first, count, err = r.file.AppendPages(data)
	}
	if err != nil {
		return err
	}
	r.locs[slot] = location{first, count}
	r.fillHead(slot, data)
	return nil
}

// PoolInfo is a point-in-time snapshot of a relation's buffer pool.
type PoolInfo struct {
	Hits, Misses, Evictions int64
	Resident, Pinned        int
	Capacity                int
}

// PoolInfo returns the full buffer-pool state, or ok=false if no pool is
// attached.
func (r *Relation) PoolInfo() (PoolInfo, bool) {
	if r.pool == nil {
		return PoolInfo{}, false
	}
	h, m := r.pool.HitsMisses()
	return PoolInfo{
		Hits:      h,
		Misses:    m,
		Evictions: r.pool.Evictions(),
		Resident:  r.pool.Resident(),
		Pinned:    r.pool.Pinned(),
		Capacity:  r.pool.Capacity(),
	}, true
}

// DiskBacked reports whether the relation's pages live on disk.
func (r *Relation) DiskBacked() bool { return r.disk != nil }

// Get fetches the record stored under id, charging page reads.
func (r *Relation) Get(id int64) ([]float64, error) {
	data, err := r.AppendRecord(nil, id)
	if err != nil {
		return nil, err
	}
	return decodeFloats(data)
}

// AppendRecord appends the encoded record stored under id — the bytes
// InsertRaw took — to dst, charging page reads. A snapshot write copies
// records through one buffer with it, the layout unchanged.
func (r *Relation) AppendRecord(dst []byte, id int64) ([]byte, error) {
	slot, ok := r.dir.get(id)
	if !ok {
		return nil, fmt.Errorf("relation: id %d not found", id)
	}
	loc := r.locs[slot]
	if r.pool != nil {
		return r.pool.ReadInto(loc.firstPage, loc.pageCount, dst)
	}
	return r.mem.ReadInto(loc.firstPage, loc.pageCount, dst)
}

// IDs returns the stored IDs in insertion order. The caller must not
// modify the returned slice.
func (r *Relation) IDs() []int64 { return r.ids }

// View is a handle on one stored record: its resident head and the slot
// its pages are found under. Taking one costs the directory lookup and
// nothing else — a reader that decides within Head never reaches the page
// file or its buffer pool at all.
type View struct {
	// Head holds the record's first min(HeadCoeffs, n) complex coefficients
	// (read-only; empty in a relation that keeps no heads). It is valid
	// until the next write to the relation.
	Head []complex128
	// Slot is the record's position in insertion order: dense, stable
	// until the relation is rebuilt, and shared by everything else a caller
	// keeps per record.
	Slot int32
}

// Slot resolves an id to its slot.
func (r *Relation) Slot(id int64) (int32, bool) { return r.dir.get(id) }

// View opens the record stored under id.
func (r *Relation) View(id int64) (View, error) {
	slot, ok := r.dir.get(id)
	if !ok {
		return View{}, fmt.Errorf("relation: id %d not found", id)
	}
	return View{Head: r.head(slot), Slot: slot}, nil
}

// ViewPagesInto appends direct (read-only) references to the pages holding
// the viewed record to buf (pass buf[:0] to reuse its backing array, so
// steady-state readers allocate nothing), charging page reads without
// copying or decoding. Combined with a Cursor this lets distance
// computations deserialize coefficients lazily, so early abandonment skips
// both arithmetic and decoding — the behavior the paper's scan baseline
// relies on. For a disk relation the returned pages are pinned buffer-pool
// frames: the caller must call ReleaseView(v) when done (safe and free to
// call for memory relations too).
func (r *Relation) ViewPagesInto(v View, buf [][]byte) ([][]byte, error) {
	loc := r.locs[v.Slot]
	if r.pool != nil {
		return r.pool.ViewInto(loc.firstPage, loc.pageCount, buf)
	}
	return r.mem.ViewInto(loc.firstPage, loc.pageCount, buf)
}

// ReleaseView drops the pins taken by a ViewPagesInto of the same view.
// No-op (and allocation-free) for memory relations. It must be called once
// per successful ViewPagesInto and not otherwise: releasing a view whose
// pages were never taken could drop a pin another reader holds on them.
func (r *Relation) ReleaseView(v View) {
	if r.pool == nil {
		return
	}
	loc := r.locs[v.Slot]
	r.pool.Release(loc.firstPage, loc.pageCount)
}

// Cursor reads a record's complex coefficients in order off its page view
// (records are interleaved (re, im) float64 pairs; page sizes are multiples
// of 8, so floats never straddle pages). It keeps a running (page, offset)
// position: the one division is in CursorAt, none per coefficient.
type Cursor struct {
	pages   [][]byte
	pg, off int
}

// CursorAt positions a cursor on the i-th coefficient of a page view.
func CursorAt(pages [][]byte, pageSize, i int) Cursor {
	return Cursor{pages: pages, pg: 16 * i / pageSize, off: 16 * i % pageSize}
}

// Next decodes the coefficient under the cursor and steps past it.
func (c *Cursor) Next() complex128 {
	re := c.float()
	return complex(re, c.float())
}

// float decodes one float64, moving to the next page at a page's end (the
// imaginary part opens a new page when the page size is not a multiple of
// 16).
func (c *Cursor) float() float64 {
	page := c.pages[c.pg]
	if c.off == len(page) {
		c.pg++
		c.off = 0
		page = c.pages[c.pg]
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(page[c.off:]))
	c.off += 8
	return v
}

// AppendFloats appends vec to dst as a float record — little-endian
// float64s, the one definition of that layout — for InsertRaw, InsertOwned
// or ReplaceRaw, in memory of the caller's choosing.
func AppendFloats(dst []byte, vec []float64) []byte {
	off := len(dst)
	dst = slices.Grow(dst, 8*len(vec))[:off+8*len(vec)]
	for i, v := range vec {
		binary.LittleEndian.PutUint64(dst[off+8*i:], math.Float64bits(v))
	}
	return dst
}

func decodeFloats(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("relation: corrupt record of %d bytes", len(data))
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out, nil
}

// AppendComplex appends vec to dst as a complex record — (re, im) pairs of
// little-endian float64s, the one definition of that layout — for
// InsertRaw, InsertOwned or ReplaceRaw, in memory of the caller's choosing.
func AppendComplex(dst []byte, vec []complex128) []byte {
	off := len(dst)
	dst = slices.Grow(dst, 16*len(vec))[:off+16*len(vec)]
	for i, c := range vec {
		b := dst[off+16*i : off+16*i+16]
		binary.LittleEndian.PutUint64(b, math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(c)))
	}
	return dst
}

// DecodeComplex turns a complex record, as Get returns it, back into its
// values.
func DecodeComplex(vec []float64) ([]complex128, error) {
	if len(vec)%2 != 0 {
		return nil, fmt.Errorf("relation: complex record with odd length %d", len(vec))
	}
	out := make([]complex128, len(vec)/2)
	for i := range out {
		out[i] = complex(vec[2*i], vec[2*i+1])
	}
	return out, nil
}
