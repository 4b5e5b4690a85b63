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
	"runtime"
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
// (including zero-copy views) are safe to perform concurrently; writes and
// Close require external synchronization, like the structures above it.
//
// The page bytes live outside the Go heap, in chunks the File maps (mem)
// and unmaps when it is closed, or when it is dropped unclosed and
// collected: pointer-free bytes the collector would otherwise count as live
// heap, and pace its next cycle by. No page is ever handed out beyond a
// read that holds the File: views are read in place under the caller's
// lock and everything else is copied out.
type File struct {
	pageSize int
	pages    [][]byte
	mem      *chunks
	closed   bool
	reads    atomic.Int64
	writes   atomic.Int64
}

// ErrClosed reports a read or write of a File after its Close.
var ErrClosed = errors.New("pagefile: file is closed")

var _ Backing = (*File)(nil)

// New creates a page file. pageSize <= 0 selects DefaultPageSize.
func New(pageSize int) *File {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f := &File{pageSize: pageSize, mem: new(chunks)}
	runtime.AddCleanup(f, (*chunks).release, f.mem)
	return f
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

// Close unmaps the file's page memory. Every read and write after it
// returns ErrClosed. The caller must hold off every reader first: a page
// view still in use would point at memory that is gone. Closing a closed
// File does nothing.
func (f *File) Close() error {
	f.closed = true
	f.pages = nil
	f.mem.release()
	return nil
}

// AppendPages writes data across as many fresh pages as needed and returns
// the index of the first page and the number of pages used. It fails, and
// appends nothing, on a closed file or when no page memory can be mapped.
func (f *File) AppendPages(data []byte) (firstPage, pageCount int, err error) {
	if f.closed {
		return 0, 0, ErrClosed
	}
	firstPage = len(f.pages)
	if len(data) == 0 {
		// Zero-length records still occupy a slot on one page.
		f.pages = append(f.pages, []byte{})
		f.writes.Add(1)
		return firstPage, 1, nil
	}
	for off := 0; off < len(data); off += f.pageSize {
		end := min(off+f.pageSize, len(data))
		page, err := f.mem.carve(end - off)
		if err != nil {
			f.pages = f.pages[:firstPage]
			return 0, 0, err
		}
		copy(page, data[off:end])
		f.pages = append(f.pages, page)
	}
	pageCount = len(f.pages) - firstPage
	f.writes.Add(int64(pageCount))
	return firstPage, pageCount, nil
}

// Reserve asks that the next n bytes that Carve and AppendPages take come
// from one chunk, mapping it now, n bytes large, unless the current chunk
// has them left. A bulk write that knows its size reserves it, so it is
// neither split across chunks nor leaves one partly used. It is a hint: if
// the mapping fails, the writes that follow map as they go and report it.
func (f *File) Reserve(n int) {
	_ = f.mem.reserve(n, n) // a failure is reported by the write that needs the bytes
}

// Carve returns n bytes of the file's page memory, zeroed and not yet a
// page, for the record an AppendOwned will store: a bulk load writes each
// record in place, where its pages will be. Chunks grow with the file:
// each as large as all before it, from 64 KiB to 32 MiB.
func (f *File) Carve(n int) ([]byte, error) {
	if f.closed {
		return nil, ErrClosed
	}
	return f.mem.carve(n)
}

// AppendOwned stores data, which Carve returned, as page payloads without
// copying: the record is sliced in place into page-size chunks that become
// the file's pages. The caller must not touch data again (in-place
// Overwrite mutates it). Like Delete'd records, the memory is only
// reclaimed wholesale, when compaction rewrites the file and closes the
// old one.
func (f *File) AppendOwned(data []byte) (firstPage, pageCount int, err error) {
	if f.closed || len(data) == 0 {
		return f.AppendPages(data)
	}
	firstPage = len(f.pages)
	for off := 0; off < len(data); off += f.pageSize {
		end := min(off+f.pageSize, len(data))
		f.pages = append(f.pages, data[off:end:end])
	}
	pageCount = len(f.pages) - firstPage
	f.writes.Add(int64(pageCount))
	return firstPage, pageCount, nil
}

// ReadPage returns the live buffer of page i, charging one read. dst is
// ignored.
func (f *File) ReadPage(i int, dst []byte) ([]byte, error) {
	if f.closed {
		return nil, ErrClosed
	}
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
	if f.closed {
		return ErrClosed
	}
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
// caller must treat the returned slices as read-only and drop them before
// the next write to the file or its Close: they are the file's page
// memory, not copies. This models what the
// original system did: compute distances straight off the buffer-pool
// page, so that early-abandoned comparisons skip not just arithmetic but
// also record deserialization.
func (f *File) ViewInto(firstPage, pageCount int, buf [][]byte) ([][]byte, error) {
	if f.closed {
		return nil, ErrClosed
	}
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
	if f.closed {
		return nil, ErrClosed
	}
	if firstPage < 0 || pageCount < 1 || firstPage+pageCount > len(f.pages) {
		return nil, fmt.Errorf("pagefile: read [%d, %d) out of range of %d pages", firstPage, firstPage+pageCount, len(f.pages))
	}
	for i := firstPage; i < firstPage+pageCount; i++ {
		buf = append(buf, f.pages[i]...)
	}
	f.reads.Add(int64(pageCount))
	return buf, nil
}
