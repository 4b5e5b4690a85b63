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
// The file is process-scratch, not a durability format: Open truncates,
// and the snapshot (TSQ3) remains the way a store persists. Disk backing
// exists so a running store can exceed RAM.
type DiskFile struct {
	f        *os.File
	path     string
	pageSize int
	// lens[i] is the payload length of page i; the slot on disk is
	// always pageSize bytes, tail pages are simply short. Appends grow
	// lens under the writer's external lock; readers only index pages
	// that were fully written before they learned the page number, so
	// the append-only slice is safe to read concurrently.
	lens   []int32
	reads  atomic.Int64
	writes atomic.Int64
}

var _ Backing = (*DiskFile)(nil)

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

// Close closes and removes the scratch file.
func (d *DiskFile) Close() error {
	err := d.f.Close()
	if rmErr := os.Remove(d.path); err == nil {
		err = rmErr
	}
	return err
}

// AppendPages writes data across as many fresh pages as needed and
// returns the index of the first page and the number of pages used. Each
// page occupies a full pageSize slot on disk; a short tail page is
// zero-padded so page offsets stay a pure multiply.
func (d *DiskFile) AppendPages(data []byte) (firstPage, pageCount int, err error) {
	firstPage = len(d.lens)
	if len(data) == 0 {
		if err := d.writeSlot(firstPage, nil); err != nil {
			return 0, 0, err
		}
		d.lens = append(d.lens, 0)
		d.writes.Add(1)
		return firstPage, 1, nil
	}
	for off := 0; off < len(data); off += d.pageSize {
		end := off + d.pageSize
		if end > len(data) {
			end = len(data)
		}
		if err := d.writeSlot(firstPage+pageCount, data[off:end]); err != nil {
			// Roll back the half-appended record so the next append
			// reuses the slots.
			return 0, 0, err
		}
		d.lens = append(d.lens, int32(end-off))
		d.writes.Add(1)
		pageCount++
	}
	return firstPage, pageCount, nil
}

// writeSlot writes payload into page slot i, padding the slot to a full
// pageSize so later slots start at i*pageSize.
func (d *DiskFile) writeSlot(i int, payload []byte) error {
	off := int64(i) * int64(d.pageSize)
	if len(payload) > 0 {
		if _, err := d.f.WriteAt(payload, off); err != nil {
			return fmt.Errorf("pagefile: write page %d: %w", i, err)
		}
	}
	if len(payload) < d.pageSize {
		// Extend the file to the slot boundary; the gap reads as zeros.
		if err := d.f.Truncate(off + int64(d.pageSize)); err != nil {
			return fmt.Errorf("pagefile: extend page %d: %w", i, err)
		}
	}
	return nil
}

// Overwrite replaces the contents of an existing record's pages in place,
// charging one write per page. The payload must match the record's byte
// size exactly (ErrSizeMismatch otherwise), mirroring File.Overwrite.
func (d *DiskFile) Overwrite(firstPage, pageCount int, data []byte) error {
	if firstPage < 0 || pageCount < 1 || firstPage+pageCount > len(d.lens) {
		return fmt.Errorf("pagefile: overwrite [%d, %d) out of range of %d pages", firstPage, firstPage+pageCount, len(d.lens))
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
// charging one physical read.
func (d *DiskFile) ReadPage(i int, dst []byte) ([]byte, error) {
	if i < 0 || i >= len(d.lens) {
		return nil, fmt.Errorf("pagefile: page %d out of range of %d pages", i, len(d.lens))
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
