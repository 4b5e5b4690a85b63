// Package relation stores sets of sequences on simulated disk pages.
// The paper's experiments use two relations per data set: the time-domain
// relation holding raw series (consulted during post-processing to compute
// exact distances, and by join method (a)), and the frequency-domain
// relation holding full spectra in an energy-friendly order (the
// sequential-scan baselines run over this one so early abandoning can stop
// "within the first few coefficients", Section 5).
//
// Records are encoded with encoding/binary (little endian) and may span
// pages; all page access is charged to the underlying pagefile's counters.
// The frequency-domain relation also keeps every record's first HeadCoeffs
// coefficients resident (KeepHeads, View), so a distance computation that
// abandons "within the first few coefficients" never reaches a page.
package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/pagefile"
)

// HeadCoeffs is H, the number of leading complex coefficients of every
// record that a relation keeping heads (KeepHeads) holds resident beside
// the pages. It is a constant, not a knob, chosen from a measurement on
// the benchmark's data shape (20,000 x 256 random walks in families of
// four, NN k = 10): an index candidate accumulates 8 distance terms on
// average before it is abandoned (p99 17), and a 16-coefficient prefix
// test against the final k-th distance dismisses all but 169 of 20,000
// records (711 at 8 coefficients, 52 at 32) — so 256 bytes per record
// decide nearly every candidate without touching its pages.
const HeadCoeffs = 16

// headChunkSlots is the number of head slots (HeadCoeffs coefficients
// apiece) per slab chunk: 64 KiB. The slab grows a chunk at a time and never
// moves a head, so loading a large store leaves no reallocation garbage
// behind and a sweep in insertion order still reads memory front to back.
const headChunkSlots = 256

// location identifies a stored record: its page range and, in a relation
// keeping heads, its slot in the slab — one map lookup yields both.
type location struct {
	firstPage, pageCount int
	slot, headLen        int32 // the first headLen coefficients of slab slot `slot`
}

// Relation is an insert-only table of float64 vectors keyed by int64 IDs.
// Complex spectra are stored as interleaved (real, imaginary) floats via
// the EncodeComplex / DecodeComplex helpers. An optional buffer pool
// (AttachPool) absorbs repeated reads, so the file's read counter then
// reports physical I/O (pool misses) rather than logical requests.
//
// A relation is either memory-backed (New — every page resident, views
// are stable references) or disk-backed (NewDisk — pages fault in through
// a mandatory buffer pool, views are pinned frames that the reader must
// give back with ReleaseView). The access surface is identical; only the
// release discipline differs, and ReleaseView is a no-op for memory
// relations so callers can always pair page view and release. The heads of
// a relation keeping them are memory either way.
type Relation struct {
	file pagefile.Backing
	mem  *pagefile.File     // non-nil iff memory-backed
	disk *pagefile.DiskFile // non-nil iff disk-backed
	pool *pagefile.BufferPool
	locs map[int64]location
	ids  []int64 // insertion order, for deterministic scans
	// heads is the resident slab of a relation keeping heads: the first
	// min(HeadCoeffs, n) complex coefficients of every record, one slot per
	// record in insertion order, in chunks of headChunkSlots slots. It is
	// derived state — rebuilt from the records on every load, never
	// persisted — and every write that changes a record's pages rewrites its
	// head in the same call, so the two cannot disagree.
	heads     [][]complex128
	slots     int32 // slots handed out
	keepHeads bool
}

// New creates an empty relation over a fresh in-memory page file with the
// given page size (<= 0 selects the default).
func New(pageSize int) *Relation {
	mem := pagefile.New(pageSize)
	return &Relation{
		file: mem,
		mem:  mem,
		locs: make(map[int64]location),
	}
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
	return &Relation{
		file: disk,
		disk: disk,
		pool: pool,
		locs: make(map[int64]location),
	}, nil
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

// head returns the filled part of a location's slab slot.
func (r *Relation) head(loc location) []complex128 {
	if loc.headLen == 0 {
		return nil
	}
	off := int(loc.slot%headChunkSlots) * HeadCoeffs
	return r.heads[loc.slot/headChunkSlots][off : off+int(loc.headLen) : off+int(loc.headLen)]
}

// newSlot hands out the next slab slot (0 in a relation keeping no heads).
func (r *Relation) newSlot() int32 {
	if !r.keepHeads {
		return 0
	}
	if int(r.slots) == len(r.heads)*headChunkSlots {
		r.heads = append(r.heads, make([]complex128, headChunkSlots*HeadCoeffs))
	}
	r.slots++
	return r.slots - 1
}

// place builds the location of an encoded record (little-endian
// interleaved (re, im) float64 pairs) stored in the given pages and fills
// its slab slot from the bytes.
func (r *Relation) place(first, count int, slot int32, data []byte) location {
	loc := location{firstPage: first, pageCount: count, slot: slot}
	if r.keepHeads {
		loc.headLen = int32(min(len(data)/16, HeadCoeffs))
	}
	for i, head := 0, r.head(loc); i < len(head); i++ {
		head[i] = complexOf(data, i)
	}
	return loc
}

// complexOf decodes the i-th (re, im) pair of an encoded record.
func complexOf(data []byte, i int) complex128 {
	return complex(
		math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:])),
		math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:])))
}

// Close releases the backing storage (removing the scratch file of a disk
// relation). The relation must not be used afterwards. No-op for memory
// relations.
func (r *Relation) Close() error {
	if r.disk != nil {
		return r.disk.Close()
	}
	return nil
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
	if _, ok := r.locs[id]; ok {
		return fmt.Errorf("relation: duplicate id %d", id)
	}
	return r.insertEncoded(id, encodeFloats(vec))
}

// insertEncoded appends an encoded record's pages and head under a fresh id.
func (r *Relation) insertEncoded(id int64, data []byte) error {
	first, count, err := r.file.AppendPages(data)
	if err != nil {
		return err
	}
	r.locs[id] = r.place(first, count, r.newSlot(), data)
	r.ids = append(r.ids, id)
	return nil
}

// InsertRaw stores an already-encoded record — the exact byte layout
// encodeFloats produces (little-endian float64s) — under id without
// re-encoding. The snapshot cold-start load uses it to move spectra from
// the snapshot straight into pages: the on-disk DERV section shares the
// record layout, so adopting a snapshot never round-trips bytes through
// float64 or complex128 values.
func (r *Relation) InsertRaw(id int64, data []byte) error {
	if len(data)%8 != 0 {
		return fmt.Errorf("relation: raw record of %d bytes is not a float64 vector", len(data))
	}
	if _, ok := r.locs[id]; ok {
		return fmt.Errorf("relation: duplicate id %d", id)
	}
	return r.insertEncoded(id, data)
}

// InsertOwned is InsertRaw transferring ownership of data's memory to the
// relation: a memory-backed relation adopts the bytes as its pages in
// place (no page allocation, no copy), a disk-backed one falls back to
// the copying append (its write path copies regardless). The caller must
// not read or write data afterwards.
func (r *Relation) InsertOwned(id int64, data []byte) error {
	if r.mem == nil {
		return r.InsertRaw(id, data)
	}
	if len(data)%8 != 0 {
		return fmt.Errorf("relation: raw record of %d bytes is not a float64 vector", len(data))
	}
	if _, ok := r.locs[id]; ok {
		return fmt.Errorf("relation: duplicate id %d", id)
	}
	first, count := r.mem.AppendOwned(data)
	r.locs[id] = r.place(first, count, r.newSlot(), data)
	r.ids = append(r.ids, id)
	return nil
}

// Replace overwrites the record stored under id. When the new encoding has
// the record's existing byte size — always true for the fixed-length
// series and spectra of a streaming append — the pages are rewritten in
// place: the record keeps its location, no storage grows, and any attached
// buffer pool stays coherent for free because pool entries reference the
// same page buffers. A size-changing replacement falls back to appending a
// fresh copy and repointing the record, leaving the old pages orphaned
// until Compact (exactly like Delete). Either way the record keeps its slab
// slot and the head in it is rewritten in the same call.
func (r *Relation) Replace(id int64, vec []float64) error {
	loc, ok := r.locs[id]
	if !ok {
		return fmt.Errorf("relation: id %d not found", id)
	}
	data := encodeFloats(vec)
	var err error
	if r.pool != nil {
		// Write through the pool so cached disk frames refresh in place
		// (memory frames alias the file's pages and need no refresh).
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
	// An in-place rewrite leaves the location as it was: the streaming
	// append takes this path on every call and need not touch the map.
	if placed := r.place(first, count, loc.slot, data); placed != loc {
		r.locs[id] = placed
	}
	return nil
}

// AttachPool routes all reads through a buffer pool of the given page
// capacity. After attaching, Stats().Reads counts physical reads (misses);
// PoolStats exposes the hit/miss split. Attaching replaces any previous
// pool.
func (r *Relation) AttachPool(pages int) error {
	bp, err := pagefile.NewBufferPool(r.file, pages)
	if err != nil {
		return err
	}
	r.pool = bp
	return nil
}

// PoolStats returns buffer-pool hits and misses, or zeros with ok=false if
// no pool is attached.
func (r *Relation) PoolStats() (hits, misses int64, ok bool) {
	if r.pool == nil {
		return 0, 0, false
	}
	h, m := r.pool.HitsMisses()
	return h, m, true
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
	loc, ok := r.locs[id]
	if !ok {
		return nil, fmt.Errorf("relation: id %d not found", id)
	}
	var (
		data []byte
		err  error
	)
	if r.pool != nil {
		data, err = r.pool.Read(loc.firstPage, loc.pageCount)
	} else {
		data, err = r.mem.Read(loc.firstPage, loc.pageCount)
	}
	if err != nil {
		return nil, err
	}
	return decodeFloats(data)
}

// IDs returns the stored IDs in insertion order. The caller must not
// modify the returned slice.
func (r *Relation) IDs() []int64 { return r.ids }

// View is a handle on one stored record: its resident head and the
// location of its pages. Taking one costs the id lookup and nothing else —
// a reader that decides within Head never reaches the page file or its
// buffer pool at all.
type View struct {
	// Head holds the record's first min(HeadCoeffs, n) complex coefficients
	// (read-only; empty in a relation that keeps no heads). It is valid
	// until the next write to the relation.
	Head []complex128
	loc  location
}

// View opens the record stored under id.
func (r *Relation) View(id int64) (View, error) {
	loc, ok := r.locs[id]
	if !ok {
		return View{}, fmt.Errorf("relation: id %d not found", id)
	}
	return View{Head: r.head(loc), loc: loc}, nil
}

// ViewPagesInto appends direct (read-only) references to the pages holding
// the viewed record to buf (pass buf[:0] to reuse its backing array, so
// steady-state readers allocate nothing), charging page reads without
// copying or decoding. Combined with ComplexAt this lets distance
// computations deserialize coefficients lazily, so early abandonment skips
// both arithmetic and decoding — the behavior the paper's scan baseline
// relies on. For a disk relation the returned pages are pinned buffer-pool
// frames: the caller must call ReleaseView(v) when done (safe and free to
// call for memory relations too).
func (r *Relation) ViewPagesInto(v View, buf [][]byte) ([][]byte, error) {
	if r.pool != nil {
		return r.pool.ViewInto(v.loc.firstPage, v.loc.pageCount, buf)
	}
	return r.mem.ViewInto(v.loc.firstPage, v.loc.pageCount, buf)
}

// ReleaseView drops the pins taken by a ViewPagesInto of the same view.
// No-op (and allocation-free) for memory relations. It must be called once
// per successful ViewPagesInto and not otherwise: releasing a view whose
// pages were never taken could drop a pin another reader holds on them.
func (r *Relation) ReleaseView(v View) {
	if r.disk == nil || r.pool == nil {
		return
	}
	r.pool.Release(v.loc.firstPage, v.loc.pageCount)
}

// ComplexAt decodes the i-th complex coefficient from a record's page view
// (records are interleaved (re, im) float64 pairs; page sizes are multiples
// of 8, so floats never straddle pages).
func ComplexAt(pages [][]byte, pageSize, i int) complex128 {
	byteOff := 16 * i
	pg := byteOff / pageSize
	off := byteOff % pageSize
	re := math.Float64frombits(binary.LittleEndian.Uint64(pages[pg][off:]))
	// The imaginary part may start on the next page only if pageSize is
	// not a multiple of 16; guard for correctness.
	off += 8
	if off >= pageSize {
		pg++
		off -= pageSize
	}
	im := math.Float64frombits(binary.LittleEndian.Uint64(pages[pg][off:]))
	return complex(re, im)
}

// Scan iterates the relation in insertion order (the sequential access
// pattern of the paper's scan baselines), decoding each record and charging
// its page reads. Returning false stops the scan. The raw page bytes are
// staged through one reused buffer across records; each callback still
// receives a freshly decoded vector it may retain.
func (r *Relation) Scan(fn func(id int64, vec []float64) bool) error {
	var data []byte
	for _, id := range r.ids {
		loc := r.locs[id]
		var err error
		if r.pool != nil {
			data, err = r.pool.ReadInto(loc.firstPage, loc.pageCount, data[:0])
		} else {
			data, err = r.mem.ReadInto(loc.firstPage, loc.pageCount, data[:0])
		}
		if err != nil {
			return err
		}
		vec, err := decodeFloats(data)
		if err != nil {
			return err
		}
		if !fn(id, vec) {
			return nil
		}
	}
	return nil
}

func encodeFloats(vec []float64) []byte {
	out := make([]byte, 8*len(vec))
	for i, v := range vec {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
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

// EncodeComplex interleaves a complex vector as (re, im) float pairs for
// storage.
func EncodeComplex(vec []complex128) []float64 {
	out := make([]float64, 2*len(vec))
	for i, c := range vec {
		out[2*i] = real(c)
		out[2*i+1] = imag(c)
	}
	return out
}

// DecodeComplex reverses EncodeComplex.
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

// EnergyOrder returns a permutation of spectrum indices 0..n-1 that fronts
// the low-frequency coefficients while interleaving their conjugate-
// symmetric mirrors: 0, 1, n-1, 2, n-2, ... For the random-walk-like
// series of the paper's experiments this ordering is monotonically
// energy-decreasing in expectation, so a scan accumulating squared distance
// in this order abandons as early as possible ("each series in the
// frequency domain has its larger coefficients at the beginning").
func EnergyOrder(n int) []int {
	out := make([]int, 0, n)
	if n == 0 {
		return out
	}
	out = append(out, 0)
	lo, hi := 1, n-1
	for lo <= hi {
		if lo == hi {
			out = append(out, lo)
			break
		}
		out = append(out, lo, hi)
		lo++
		hi--
	}
	return out
}

// Permute reorders vec by the given index permutation: out[i] = vec[perm[i]].
func Permute(vec []complex128, perm []int) []complex128 {
	if len(vec) != len(perm) {
		panic(fmt.Sprintf("relation: permutation length %d != vector length %d", len(perm), len(vec)))
	}
	out := make([]complex128, len(vec))
	for i, p := range perm {
		out[i] = vec[p]
	}
	return out
}

// InversePermutation returns the inverse of perm.
func InversePermutation(perm []int) []int {
	out := make([]int, len(perm))
	for i, p := range perm {
		out[p] = i
	}
	return out
}

// SortedIDs returns the stored IDs in ascending order (useful for
// deterministic join result comparison).
func (r *Relation) SortedIDs() []int64 {
	out := make([]int64, len(r.ids))
	copy(out, r.ids)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
