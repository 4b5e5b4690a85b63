// Package pagefile provides the paged storage underneath the paper's
// experiments. The original system measured query cost partly in disk page
// accesses; both backings preserve that accounting: every page read and
// write is counted, records larger than a page span contiguous pages (each
// touch of a spanned record costs its page count), and sequential scans
// touch every allocated page exactly once.
//
// Two backings implement the same page-addressed surface: the in-memory
// File (the original simulation, every page resident) and the disk-backed
// DiskFile (pages live in an os.File and are read on demand, so a store
// can exceed RAM). A page is a unit of account, not of storage: a DiskFile
// writes each page's payload where the previous page's ends, so its file
// is as long as the payloads written to it. A BufferPool caches pages of
// either backing with clock eviction and pin counts; over a DiskFile it is
// the only safe read path, because page frames are reused after eviction.
package pagefile

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// DefaultPageSize is 4 KiB, the page size assumed throughout the
// experiment harness.
const DefaultPageSize = 4096

// Stats counts page-level I/O.
type Stats struct {
	Reads  int64
	Writes int64
}

// Backing is the page-addressed storage surface shared by the in-memory
// File and the disk-backed DiskFile: fixed-size pages appended in record
// granules, overwritten in place, and read one page at a time. A
// BufferPool serves cached reads over any Backing.
type Backing interface {
	PageSize() int
	NumPages() int
	// PageLen returns the payload length of page i (the final page of a
	// record may be shorter than PageSize).
	PageLen(i int) int
	Stats() Stats
	ResetStats()
	// AppendPages writes data across as many fresh pages as needed,
	// returning the first page index and the page count.
	AppendPages(data []byte) (firstPage, pageCount int, err error)
	// Overwrite replaces the contents of an existing record's pages in
	// place; the payload must match the record's byte size exactly
	// (ErrSizeMismatch otherwise).
	Overwrite(firstPage, pageCount int, data []byte) error
	// ReadPage returns the contents of page i, charging one physical
	// read. A memory File returns its live page buffer (zero copy, dst
	// ignored); a DiskFile fills dst (grown as needed) and returns it, so
	// the bytes are only valid until the caller reuses dst — a BufferPool's
	// frame in practice, which is why readers hold pages pinned.
	ReadPage(i int, dst []byte) ([]byte, error)
}

// File is an append-only in-memory collection of fixed-size pages. Reads
// (including zero-copy views) are safe to perform concurrently; writes
// require external synchronization, like the structures above it.
type File struct {
	pageSize int
	pages    [][]byte
	slab     []byte // arena the next page buffers are carved from
	reads    atomic.Int64
	writes   atomic.Int64
}

// slabPages is how many pages' worth of buffer one arena allocation
// holds. Carving page buffers out of shared slabs instead of allocating
// each page separately keeps a bulk load from creating one GC object per
// page — at 2,000 series × 3 pages that is thousands of small objects
// whose allocation and sweep cost shows up directly in cold-start time.
const slabPages = 64

var _ Backing = (*File)(nil)

// New creates a page file. pageSize <= 0 selects DefaultPageSize.
func New(pageSize int) *File {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &File{pageSize: pageSize}
}

// PageSize returns the page size in bytes.
func (f *File) PageSize() int { return f.pageSize }

// NumPages returns the number of allocated pages.
func (f *File) NumPages() int { return len(f.pages) }

// PageLen returns the payload length of page i.
func (f *File) PageLen(i int) int { return len(f.pages[i]) }

// Stats returns the accumulated I/O counters.
func (f *File) Stats() Stats {
	return Stats{Reads: f.reads.Load(), Writes: f.writes.Load()}
}

// ResetStats zeroes the I/O counters (each experiment run starts fresh).
func (f *File) ResetStats() {
	f.reads.Store(0)
	f.writes.Store(0)
}

// Append writes data across as many fresh pages as needed and returns the
// index of the first page and the number of pages used.
func (f *File) Append(data []byte) (firstPage, pageCount int) {
	if len(data) == 0 {
		// Zero-length records still occupy a slot on one page.
		f.pages = append(f.pages, make([]byte, 0, f.pageSize))
		f.writes.Add(1)
		return len(f.pages) - 1, 1
	}
	firstPage = len(f.pages)
	for off := 0; off < len(data); off += f.pageSize {
		end := off + f.pageSize
		if end > len(data) {
			end = len(data)
		}
		page := f.alloc(end - off)
		copy(page, data[off:end])
		f.pages = append(f.pages, page)
		f.writes.Add(1)
		pageCount++
	}
	return firstPage, pageCount
}

// alloc carves an n-byte page buffer out of the current slab, starting a
// fresh slab when the remainder is too small (the sliver left behind is
// abandoned to the garbage collector with the rest of the slab once its
// pages die, e.g. after Compact swaps in a new file).
func (f *File) alloc(n int) []byte {
	if len(f.slab) < n {
		f.slab = make([]byte, slabPages*f.pageSize)
	}
	b := f.slab[:n:n]
	f.slab = f.slab[n:]
	return b
}

// AppendOwned adopts data as page payloads without copying: the record is
// sliced in place into page-size chunks that become the file's pages, so
// a bulk load whose input buffer already has the record layout (a
// snapshot read) skips both the page allocation and the copy. Ownership
// of data's memory transfers to the file — the caller must not touch it
// again (in-place Overwrite mutates it). Like Delete'd records, the
// memory is only reclaimed wholesale when compaction rewrites the file.
func (f *File) AppendOwned(data []byte) (firstPage, pageCount int) {
	if len(data) == 0 {
		return f.Append(data)
	}
	firstPage = len(f.pages)
	for off := 0; off < len(data); off += f.pageSize {
		end := off + f.pageSize
		if end > len(data) {
			end = len(data)
		}
		f.pages = append(f.pages, data[off:end:end])
		f.writes.Add(1)
		pageCount++
	}
	return firstPage, pageCount
}

// AppendPages is Append behind the Backing surface (memory appends cannot
// fail).
func (f *File) AppendPages(data []byte) (firstPage, pageCount int, err error) {
	firstPage, pageCount = f.Append(data)
	return firstPage, pageCount, nil
}

// ReadPage returns the live buffer of page i, charging one read. dst is
// ignored.
func (f *File) ReadPage(i int, dst []byte) ([]byte, error) {
	if i < 0 || i >= len(f.pages) {
		return nil, fmt.Errorf("pagefile: page %d out of range of %d pages", i, len(f.pages))
	}
	f.reads.Add(1)
	return f.pages[i], nil
}

// ErrSizeMismatch reports an Overwrite whose payload does not match the
// record's existing on-page footprint; callers fall back to appending a
// fresh copy (the old pages stay orphaned until compaction).
var ErrSizeMismatch = errors.New("pagefile: overwrite size mismatch")

// Overwrite replaces the contents of an existing record's pages in place,
// charging one write per page. The payload must have exactly the record's
// current byte size (same-length records always do, which is what the
// streaming append path relies on); otherwise ErrSizeMismatch is returned
// and nothing changes. Like Append, Overwrite requires external
// synchronization against concurrent readers: the page slices are mutated
// directly, so any view handed out earlier observes the new contents.
func (f *File) Overwrite(firstPage, pageCount int, data []byte) error {
	if firstPage < 0 || pageCount < 1 || firstPage+pageCount > len(f.pages) {
		return fmt.Errorf("pagefile: overwrite [%d, %d) out of range of %d pages", firstPage, firstPage+pageCount, len(f.pages))
	}
	var size int
	for i := firstPage; i < firstPage+pageCount; i++ {
		size += len(f.pages[i])
	}
	if size != len(data) {
		return fmt.Errorf("%w: record holds %d bytes, payload has %d", ErrSizeMismatch, size, len(data))
	}
	off := 0
	for i := firstPage; i < firstPage+pageCount; i++ {
		off += copy(f.pages[i], data[off:])
		f.writes.Add(1)
	}
	return nil
}

// ViewInto appends direct references to the pages of a record (no
// copying) to buf (pass buf[:0] to reuse its backing array, so
// steady-state readers allocate nothing), charging one read per page. The
// caller must treat the returned slices as read-only. This models what the
// original system did: compute distances straight off the buffer-pool
// page, so that early-abandoned comparisons skip not just arithmetic but
// also record deserialization.
func (f *File) ViewInto(firstPage, pageCount int, buf [][]byte) ([][]byte, error) {
	if firstPage < 0 || pageCount < 1 || firstPage+pageCount > len(f.pages) {
		return nil, fmt.Errorf("pagefile: view [%d, %d) out of range of %d pages", firstPage, firstPage+pageCount, len(f.pages))
	}
	for i := 0; i < pageCount; i++ {
		buf = append(buf, f.pages[firstPage+i])
	}
	f.reads.Add(int64(pageCount))
	return buf, nil
}

// ReadInto appends the concatenated contents of pageCount pages starting
// at firstPage to buf (pass buf[:0] to reuse its backing array, so looping
// readers allocate nothing once the buffer has grown), charging one read
// per page.
func (f *File) ReadInto(firstPage, pageCount int, buf []byte) ([]byte, error) {
	if firstPage < 0 || pageCount < 1 || firstPage+pageCount > len(f.pages) {
		return nil, fmt.Errorf("pagefile: read [%d, %d) out of range of %d pages", firstPage, firstPage+pageCount, len(f.pages))
	}
	for i := firstPage; i < firstPage+pageCount; i++ {
		buf = append(buf, f.pages[i]...)
	}
	f.reads.Add(int64(pageCount))
	return buf, nil
}
