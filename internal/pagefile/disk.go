package pagefile

import (
	"fmt"
	"os"
	"sync/atomic"
)

// DiskFile is the disk-backed Backing: pages live in an os.File and are
// read on demand, so the store's working set — not the store — has to fit
// in RAM. It exposes the same page-addressed surface as the in-memory
// File, and the same concurrency contract (concurrent reads, externally
// synchronized writes). Only the per-page payload lengths are kept
// resident (4 bytes/page), everything else pages in through ReadPage —
// which callers reach through a BufferPool, never directly.
//
// Page i occupies the pageSize slot at offset i*pageSize; a short page
// leaves its slot's tail unread. A single append writes its record's slots
// with one pwrite. A bulk write (StartRun … EndRun) writes its first
// runPages/4 pages the same way, then gathers slots in memory and writes
// them runPages at a time.
//
// The file is process-scratch, not a durability format: Open truncates,
// and the snapshot (TSQ4) remains the way a store persists. Disk backing
// exists so a running store can exceed RAM.
type DiskFile struct {
	f        *os.File
	path     string
	pageSize int
	// lens[i] is the payload length of page i. Appends grow lens under the
	// writer's external lock; readers only index pages that were fully
	// written before they learned the page number, so the append-only slice
	// is safe to read concurrently.
	lens []int32
	// written is how many pages are in the file. Pages from written on are
	// in run, the slots of the open bulk write, and nowhere else yet.
	written int
	// running is whether a bulk write is open and runStart the page it
	// opened at. run holds the slots of pages written … len(lens)-1, back
	// to back up to the last payload byte, in memory of runPages slots that
	// is nil until the bulk write gathers.
	running  bool
	runStart int
	run      []byte
	reads    atomic.Int64
	writes   atomic.Int64
}

var _ Backing = (*DiskFile)(nil)

// runPages is how many page slots a bulk write gathers before it writes
// them with one pwrite: 1 MiB at the default page size. A bulk write given
// no memory gathers only once runPages/4 of its pages have gone out one
// record at a time, so one that stays small — a shard's share of a load
// over many shards — takes none, and a run's memory is at most four times
// the pages the bulk write has seen.
const runPages = 256

// OpenDisk creates (truncating) the scratch page file at path.
// pageSize <= 0 selects DefaultPageSize.
func OpenDisk(path string, pageSize int) (*DiskFile, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: open disk backing: %w", err)
	}
	return &DiskFile{f: f, path: path, pageSize: pageSize}, nil
}

// PageSize returns the page size in bytes.
func (d *DiskFile) PageSize() int { return d.pageSize }

// NumPages returns the number of allocated pages.
func (d *DiskFile) NumPages() int { return len(d.lens) }

// PageLen returns the payload length of page i.
func (d *DiskFile) PageLen(i int) int { return int(d.lens[i]) }

// Path returns the backing file's path.
func (d *DiskFile) Path() string { return d.path }

// Stats returns the accumulated I/O counters.
func (d *DiskFile) Stats() Stats {
	return Stats{Reads: d.reads.Load(), Writes: d.writes.Load()}
}

// ResetStats zeroes the I/O counters.
func (d *DiskFile) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
}

// Close closes and removes the scratch file. An open run is dropped
// unwritten.
func (d *DiskFile) Close() error {
	d.running, d.run = false, nil
	err := d.f.Close()
	if rmErr := os.Remove(d.path); err == nil {
		err = rmErr
	}
	return err
}

// AppendPages writes data across as many fresh pages as needed and
// returns the index of the first page and the number of pages used (one
// for an empty record). Written through, the record goes out with one
// pwrite, and if that fails nothing is appended. Gathered, its slots join
// the run, which is written when full; if that write fails, the pages the
// run held — earlier records' too — are dropped and the error is returned.
func (d *DiskFile) AppendPages(data []byte) (firstPage, pageCount int, err error) {
	firstPage, pageCount = len(d.lens), max(1, (len(data)+d.pageSize-1)/d.pageSize)
	gather := d.running && pageCount <= runPages && (d.run != nil || firstPage-d.runStart >= runPages/4)
	if !gather {
		if err := d.flush(); err != nil {
			return 0, 0, err
		}
		if _, err := d.f.WriteAt(data, int64(firstPage)*int64(d.pageSize)); err != nil {
			return 0, 0, fmt.Errorf("pagefile: write pages [%d, %d): %w", firstPage, firstPage+pageCount, err)
		}
		d.written += pageCount
	} else {
		if firstPage-d.written+pageCount > runPages {
			if err := d.flush(); err != nil {
				return 0, 0, err
			}
		}
		if d.run == nil {
			d.run = make([]byte, 0, runPages*d.pageSize)
		}
		// The run ends at the last payload byte: pad the slot tail of its
		// last page before this record's first.
		at, end := (firstPage-d.written)*d.pageSize, len(d.run)
		d.run = d.run[:at+len(data)]
		clear(d.run[end:at])
		copy(d.run[at:], data)
	}
	for off := 0; off < pageCount; off++ {
		d.lens = append(d.lens, int32(min(d.pageSize, len(data)-off*d.pageSize)))
	}
	d.writes.Add(int64(pageCount))
	return firstPage, pageCount, nil
}

// StartRun opens a bulk write: the appends that follow go out runPages at
// a time, until EndRun. buf is memory the run may gather in from its first
// page — what an earlier EndRun handed back — or nil: then the first
// runPages/4 pages go out singly and the run allocates its memory after
// them.
func (d *DiskFile) StartRun(buf []byte) {
	d.running, d.runStart = true, len(d.lens)
	if cap(buf) >= runPages*d.pageSize {
		d.run = buf[:0]
	}
}

// EndRun writes what the run still holds and returns the file to
// write-through appends. It hands back the run's memory (nil if it never
// gathered), for another run to start in. If the write fails, the pages the
// run held are dropped (NumPages no longer counts them) and the error is
// returned.
func (d *DiskFile) EndRun() ([]byte, error) {
	err := d.flush()
	buf := d.run
	d.running, d.run = false, nil
	return buf, err
}

// flush writes the run's gathered slots with one pwrite.
func (d *DiskFile) flush() error {
	n := len(d.lens) - d.written
	if n == 0 {
		return nil
	}
	_, err := d.f.WriteAt(d.run, int64(d.written)*int64(d.pageSize))
	d.run = d.run[:0]
	if err != nil {
		d.lens = d.lens[:d.written]
		return fmt.Errorf("pagefile: write pages [%d, %d): %w", d.written, d.written+n, err)
	}
	d.written += n
	return nil
}

// Overwrite replaces the contents of an existing record's pages in place,
// charging one write per page. The payload must match the record's byte
// size exactly (ErrSizeMismatch otherwise), mirroring File.Overwrite.
func (d *DiskFile) Overwrite(firstPage, pageCount int, data []byte) error {
	if firstPage < 0 || pageCount < 1 || firstPage+pageCount > d.written {
		return fmt.Errorf("pagefile: overwrite [%d, %d) out of range of %d written pages", firstPage, firstPage+pageCount, d.written)
	}
	var size int
	for i := firstPage; i < firstPage+pageCount; i++ {
		size += int(d.lens[i])
	}
	if size != len(data) {
		return fmt.Errorf("%w: record holds %d bytes, payload has %d", ErrSizeMismatch, size, len(data))
	}
	off := 0
	for i := firstPage; i < firstPage+pageCount; i++ {
		n := int(d.lens[i])
		if n > 0 {
			if _, err := d.f.WriteAt(data[off:off+n], int64(i)*int64(d.pageSize)); err != nil {
				return fmt.Errorf("pagefile: overwrite page %d: %w", i, err)
			}
		}
		off += n
		d.writes.Add(1)
	}
	return nil
}

// ReadPage fills dst (grown as needed) with the payload of page i,
// charging one physical read. A page an open run still holds is not in
// the file yet and cannot be read.
func (d *DiskFile) ReadPage(i int, dst []byte) ([]byte, error) {
	if i < 0 || i >= d.written {
		return nil, fmt.Errorf("pagefile: page %d out of range of %d written pages", i, d.written)
	}
	n := int(d.lens[i])
	if cap(dst) < n {
		dst = make([]byte, n, d.pageSize)
	}
	dst = dst[:n]
	if n > 0 {
		if _, err := d.f.ReadAt(dst, int64(i)*int64(d.pageSize)); err != nil {
			return nil, fmt.Errorf("pagefile: read page %d: %w", i, err)
		}
	}
	d.reads.Add(1)
	return dst, nil
}
