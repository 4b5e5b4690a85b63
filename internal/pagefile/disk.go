package pagefile

import (
	"fmt"
	"os"
	"slices"
	"sync/atomic"
)

// DiskFile is the disk-backed Backing: pages live in an os.File and are
// read on demand, so the store's working set — not the store — has to fit
// in RAM. It exposes the same page-addressed surface as the in-memory
// File, and the same concurrency contract (concurrent reads, externally
// synchronized writes). Only the page offsets are kept resident (4
// bytes/page), everything else pages in through ReadPage — which callers
// reach through a BufferPool, never directly.
//
// The file holds payload only: page i starts where page i-1's payload
// ends, so a record's pages are one contiguous byte range and the file is
// as long as the payloads written to it. A single append writes its record
// with one pwrite. A bulk write (StartRun … EndRun) writes its first
// runPages/4 pages the same way, then gathers records back to back in
// memory and writes them a run (runPages·pageSize bytes) at a time.
//
// The file is process-scratch, not a durability format: Open truncates,
// and the snapshot (TSQ4) remains the way a store persists. Disk backing
// exists so a running store can exceed RAM. An open DiskFile holds an
// exclusive lock on its file, so a second one cannot open — and truncate —
// a path the first still holds.
type DiskFile struct {
	f        *os.File
	path     string
	pageSize int
	// ends[i] is the low 32 bits of the byte offset where page i's payload
	// ends (see end); the page starts where page i-1's ends (0 for page 0).
	// wraps lists, ascending, the pages whose end lies in a higher 4 GiB
	// than their start: none in a file under 4 GiB. Appends grow both under
	// the writer's external lock; readers only index pages that were fully
	// written before they learned the page number, so the append-only
	// slices are safe to read concurrently.
	ends  []uint32
	wraps []int
	// written is how many pages are in the file. Pages from written on are
	// in run, the payloads of the open bulk write, and nowhere else yet.
	written int
	// running is whether a bulk write is open and runStart the page it
	// opened at. run holds the payloads of pages written … len(ends)-1, back
	// to back, in memory of runPages·pageSize bytes that is nil until the
	// bulk write gathers.
	running  bool
	runStart int
	run      []byte
	reads    atomic.Int64
	writes   atomic.Int64
}

var _ Backing = (*DiskFile)(nil)

// runPages sizes a bulk write's memory: it gathers up to runPages·pageSize
// bytes of payload (1 MiB at the default page size) before it writes them
// with one pwrite. A bulk write given no memory gathers only once
// runPages/4 of its pages have gone out one record at a time, so one that
// stays small — a shard's share of a load over many shards — takes none.
const runPages = 256

// OpenDisk creates (truncating) the scratch page file at path, locked for
// as long as it is open. pageSize <= 0 selects DefaultPageSize. A path
// another open DiskFile holds is refused, and left as it is.
func OpenDisk(path string, pageSize int) (*DiskFile, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, openFlags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: open disk backing: %w", err)
	}
	if err := lock(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: disk backing %s is held by another open page file: %w", path, err)
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: truncate disk backing: %w", err)
	}
	return &DiskFile{f: f, path: path, pageSize: pageSize}, nil
}

// PageSize returns the page size in bytes.
func (d *DiskFile) PageSize() int { return d.pageSize }

// NumPages returns the number of allocated pages.
func (d *DiskFile) NumPages() int { return len(d.ends) }

// end is the byte offset where page i's payload ends: its low 32 bits from
// ends, and one 4 GiB for every wrap at a page up to i.
func (d *DiskFile) end(i int) int64 {
	hi, _ := slices.BinarySearch(d.wraps, i+1)
	return int64(hi)<<32 | int64(d.ends[i])
}

// start is the byte offset page i starts at: where page i-1's payload
// ends. start(NumPages()) is the end of the last page.
func (d *DiskFile) start(i int) int64 {
	if i == 0 {
		return 0
	}
	return d.end(i - 1)
}

// push appends a page whose payload ends at byte offset end.
func (d *DiskFile) push(end int64) {
	if i := len(d.ends); end>>32 != d.start(i)>>32 {
		d.wraps = append(d.wraps, i)
	}
	d.ends = append(d.ends, uint32(end))
}

// forget drops the pages from n on, whose write failed, and cuts from the
// file what part of them the write left, so the file stays its pages'
// payload (if the cut fails too, the next write covers those bytes).
func (d *DiskFile) forget(n int) {
	at := d.start(n)
	w, _ := slices.BinarySearch(d.wraps, n)
	d.ends, d.wraps = d.ends[:n], d.wraps[:w]
	_ = d.f.Truncate(at)
}

// PageLen returns the payload length of page i.
func (d *DiskFile) PageLen(i int) int { return int(d.end(i) - d.start(i)) }

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

// Close closes and removes the scratch file, releasing its lock. An open
// run is dropped unwritten.
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
// pwrite, and if that fails nothing is appended. Gathered, it joins the
// run, which is written when full; if that write fails, the pages the run
// held — earlier records' too — are dropped and the error is returned.
func (d *DiskFile) AppendPages(data []byte) (firstPage, pageCount int, err error) {
	firstPage, pageCount = len(d.ends), max(1, (len(data)+d.pageSize-1)/d.pageSize)
	runBytes := runPages * d.pageSize
	gather := d.running && len(data) <= runBytes && (d.run != nil || firstPage-d.runStart >= runPages/4)
	if !gather {
		if err := d.flush(); err != nil {
			return 0, 0, err
		}
		if _, err := d.f.WriteAt(data, d.start(firstPage)); err != nil {
			d.forget(firstPage)
			return 0, 0, fmt.Errorf("pagefile: write pages [%d, %d): %w", firstPage, firstPage+pageCount, err)
		}
		d.written += pageCount
	} else {
		if len(d.run)+len(data) > runBytes {
			if err := d.flush(); err != nil {
				return 0, 0, err
			}
		}
		if d.run == nil {
			d.run = make([]byte, 0, runBytes)
		}
		d.run = append(d.run, data...)
	}
	end := d.start(firstPage)
	for off := 0; off < pageCount; off++ {
		end += int64(min(d.pageSize, len(data)-off*d.pageSize))
		d.push(end)
	}
	d.writes.Add(int64(pageCount))
	return firstPage, pageCount, nil
}

// StartRun opens a bulk write: the appends that follow go out a run at a
// time, until EndRun. buf is memory the run may gather in from its first
// page — what an earlier EndRun handed back — or nil: then the first
// runPages/4 pages go out singly and the run allocates its memory after
// them.
func (d *DiskFile) StartRun(buf []byte) {
	d.running, d.runStart = true, len(d.ends)
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

// flush writes the run's gathered payloads with one pwrite.
func (d *DiskFile) flush() error {
	n := len(d.ends) - d.written
	if n == 0 {
		return nil
	}
	_, err := d.f.WriteAt(d.run, d.start(d.written))
	d.run = d.run[:0]
	if err != nil {
		d.forget(d.written)
		return fmt.Errorf("pagefile: write run of pages [%d, %d): %w", d.written, d.written+n, err)
	}
	d.written += n
	return nil
}

// Overwrite replaces the contents of an existing record's pages in place
// with one pwrite, charging one write per page. The payload must match the
// record's byte size exactly (ErrSizeMismatch otherwise), mirroring
// File.Overwrite.
func (d *DiskFile) Overwrite(firstPage, pageCount int, data []byte) error {
	if firstPage < 0 || pageCount < 1 || firstPage+pageCount > d.written {
		return fmt.Errorf("pagefile: overwrite [%d, %d) out of range of %d written pages", firstPage, firstPage+pageCount, d.written)
	}
	at := d.start(firstPage)
	if size := d.end(firstPage+pageCount-1) - at; size != int64(len(data)) {
		return fmt.Errorf("%w: record holds %d bytes, payload has %d", ErrSizeMismatch, size, len(data))
	}
	if _, err := d.f.WriteAt(data, at); err != nil {
		return fmt.Errorf("pagefile: overwrite pages [%d, %d): %w", firstPage, firstPage+pageCount, err)
	}
	d.writes.Add(int64(pageCount))
	return nil
}

// ReadPage fills dst (grown as needed) with the payload of page i,
// charging one physical read. A page an open run still holds is not in
// the file yet and cannot be read.
func (d *DiskFile) ReadPage(i int, dst []byte) ([]byte, error) {
	if i < 0 || i >= d.written {
		return nil, fmt.Errorf("pagefile: page %d out of range of %d written pages", i, d.written)
	}
	n := d.PageLen(i)
	if cap(dst) < n {
		dst = make([]byte, n, d.pageSize)
	}
	dst = dst[:n]
	if n > 0 {
		if _, err := d.f.ReadAt(dst, d.start(i)); err != nil {
			return nil, fmt.Errorf("pagefile: read page %d: %w", i, err)
		}
	}
	d.reads.Add(1)
	return dst, nil
}
