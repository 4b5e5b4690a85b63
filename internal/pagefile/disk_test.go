package pagefile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func newDisk(t *testing.T, pageSize int) *DiskFile {
	t.Helper()
	d, err := OpenDisk(filepath.Join(t.TempDir(), "pages.db"), pageSize)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// record returns deterministic record bytes of the given length.
func record(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*31)
	}
	return b
}

func TestDiskFileRoundTrip(t *testing.T) {
	d := newDisk(t, 64)
	sizes := []int{1, 63, 64, 65, 128, 200, 0, 300}
	type loc struct{ first, count int }
	locs := make([]loc, len(sizes))
	for i, n := range sizes {
		first, count, err := d.AppendPages(record(byte(i), n))
		if err != nil {
			t.Fatalf("AppendPages(%d bytes): %v", n, err)
		}
		wantPages := (n + 63) / 64
		if n == 0 {
			wantPages = 1
		}
		if count != wantPages {
			t.Fatalf("record %d: got %d pages, want %d", i, count, wantPages)
		}
		locs[i] = loc{first, count}
	}
	pool, err := NewBufferPool(d, 4)
	if err != nil {
		t.Fatalf("NewBufferPool: %v", err)
	}
	for i, n := range sizes {
		got, err := pool.ReadInto(locs[i].first, locs[i].count, nil)
		if err != nil {
			t.Fatalf("Read record %d: %v", i, err)
		}
		if !bytes.Equal(got, record(byte(i), n)) {
			t.Fatalf("record %d: round-trip mismatch (%d bytes)", i, n)
		}
	}
}

func TestDiskFileOverwriteWriteThrough(t *testing.T) {
	d := newDisk(t, 32)
	orig := record(1, 80) // 3 pages: 32+32+16
	first, count, err := d.AppendPages(orig)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewBufferPool(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache, then overwrite through the pool.
	if _, err := pool.ReadInto(first, count, nil); err != nil {
		t.Fatal(err)
	}
	repl := record(9, 80)
	if err := pool.Overwrite(first, count, repl); err != nil {
		t.Fatalf("Overwrite: %v", err)
	}
	hits0, _ := pool.HitsMisses()
	got, err := pool.ReadInto(first, count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, repl) {
		t.Fatal("cached frames not refreshed by write-through Overwrite")
	}
	hits1, _ := pool.HitsMisses()
	if hits1-hits0 != int64(count) {
		t.Fatalf("re-read after Overwrite should hit the cache: got %d hits, want %d", hits1-hits0, count)
	}
	// And the backing itself must hold the new bytes (fresh pool = all misses).
	pool2, _ := NewBufferPool(d, 8)
	got2, err := pool2.ReadInto(first, count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, repl) {
		t.Fatal("backing file not updated by Overwrite")
	}
	// Size mismatch is rejected.
	if err := pool.Overwrite(first, count, record(3, 81)); err == nil {
		t.Fatal("Overwrite with wrong size should fail")
	}
}

func TestDiskPoolEvictionBounded(t *testing.T) {
	d := newDisk(t, 16)
	const pages = 64
	for i := 0; i < pages; i++ {
		if _, _, err := d.AppendPages(record(byte(i), 16)); err != nil {
			t.Fatal(err)
		}
	}
	pool, err := NewBufferPool(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Three sequential sweeps over 64 pages through an 8-page pool.
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < pages; i++ {
			got, err := pool.ReadInto(i, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, record(byte(i), 16)) {
				t.Fatalf("pass %d page %d: wrong contents after eviction recycling", pass, i)
			}
		}
	}
	if r := pool.Resident(); r > 8 {
		t.Fatalf("resident %d pages exceeds capacity 8 with nothing pinned", r)
	}
	if pool.Evictions() == 0 {
		t.Fatal("sequential sweeps over a small pool must evict")
	}
	hits, misses := pool.HitsMisses()
	if hits+misses != 3*pages {
		t.Fatalf("hits %d + misses %d != %d requests", hits, misses, 3*pages)
	}
	if pool.Pinned() != 0 {
		t.Fatalf("%d pins leaked by Read", pool.Pinned())
	}
}

// TestDiskPoolPinnedViewsSurviveEviction holds pinned views across reads
// that force eviction pressure and checks the views still carry their
// original bytes — i.e. pinned frames are never recycled.
func TestDiskPoolPinnedViewsSurviveEviction(t *testing.T) {
	d := newDisk(t, 16)
	const pages = 40
	for i := 0; i < pages; i++ {
		if _, _, err := d.AppendPages(record(byte(i), 16)); err != nil {
			t.Fatal(err)
		}
	}
	pool, err := NewBufferPool(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	views, err := pool.ViewInto(0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Pinned() != 3 {
		t.Fatalf("pinned = %d, want 3", pool.Pinned())
	}
	// Churn every other page through the tiny pool.
	for pass := 0; pass < 2; pass++ {
		for i := 3; i < pages; i++ {
			if _, err := pool.ReadInto(i, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, v := range views {
		if !bytes.Equal(v, record(byte(i), 16)) {
			t.Fatalf("pinned view %d corrupted by eviction churn", i)
		}
	}
	pool.Release(0, 3)
	if pool.Pinned() != 0 {
		t.Fatalf("pinned = %d after Release, want 0", pool.Pinned())
	}
	// Once released the pages are evictable again and residency shrinks
	// back under capacity on further churn.
	for i := 3; i < pages; i++ {
		if _, err := pool.ReadInto(i, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if r := pool.Resident(); r > 4 {
		t.Fatalf("resident %d > capacity 4 after pins released", r)
	}
}

// TestDiskPoolAllPinnedOverflows pins more pages than the pool holds: the
// pool must overflow capacity rather than fail or recycle a pinned frame.
func TestDiskPoolAllPinnedOverflows(t *testing.T) {
	d := newDisk(t, 16)
	const pages = 6
	for i := 0; i < pages; i++ {
		if _, _, err := d.AppendPages(record(byte(i), 16)); err != nil {
			t.Fatal(err)
		}
	}
	pool, err := NewBufferPool(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	views, err := pool.ViewInto(0, pages, nil)
	if err != nil {
		t.Fatalf("ViewInto across all pages with tiny pool: %v", err)
	}
	for i, v := range views {
		if !bytes.Equal(v, record(byte(i), 16)) {
			t.Fatalf("view %d wrong while overflowed", i)
		}
	}
	if r := pool.Resident(); r != pages {
		t.Fatalf("resident = %d, want %d while all pinned", r, pages)
	}
	pool.Release(0, pages)
	if pool.Pinned() != 0 {
		t.Fatal("pins leaked")
	}
}

// TestBufferPoolEvictionStressRace hammers a tiny pool from many
// goroutines under -race: concurrent ViewInto readers verify their pinned
// views byte-for-byte while eviction churns, and the hit/miss ledger must
// exactly cover the logical requests with physical reads == misses.
func TestBufferPoolEvictionStressRace(t *testing.T) {
	d := newDisk(t, 32)
	const pages = 128
	for i := 0; i < pages; i++ {
		if _, _, err := d.AppendPages(record(byte(i), 32)); err != nil {
			t.Fatal(err)
		}
	}
	pool, err := NewBufferPool(d, 8) // capacity << pages
	if err != nil {
		t.Fatal(err)
	}
	d.ResetStats()

	const (
		workers = 8
		rounds  = 400
		span    = 3 // pages per view
	)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var views [][]byte
			for r := 0; r < rounds; r++ {
				first := (w*31 + r*7) % (pages - span)
				var err error
				views, err = pool.ViewInto(first, span, views[:0])
				if err != nil {
					errc <- err
					return
				}
				for j, v := range views {
					if !bytes.Equal(v, record(byte(first+j), 32)) {
						errc <- fmt.Errorf("worker %d round %d: pinned view of page %d corrupted under eviction churn", w, r, first+j)
						pool.Release(first, span)
						return
					}
				}
				pool.Release(first, span)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	hits, misses := pool.HitsMisses()
	if total := int64(workers * rounds * span); hits+misses != total {
		t.Fatalf("hits %d + misses %d != %d logical requests", hits, misses, total)
	}
	if reads := d.Stats().Reads; reads != misses {
		t.Fatalf("physical reads %d != misses %d", reads, misses)
	}
	if pool.Pinned() != 0 {
		t.Fatalf("%d pins outstanding after all workers released", pool.Pinned())
	}
	if r := pool.Resident(); r > 8+workers*span {
		t.Fatalf("resident %d far exceeds capacity+pin bound", r)
	}
}

// TestDiskFileRun: appends inside a run — records of every size, one larger
// than the run itself, an empty one — read back exactly as write-through
// appends do once EndRun has written them; a run given no memory takes none
// for its first runPages/4 pages, and one given the memory an earlier run
// handed back gathers from its first page; a run never holds more than
// runPages·pageSize bytes of payload; a page the open run holds cannot be
// read yet; and a run whose write fails drops the pages it held and keeps
// those it had written.
func TestDiskFileRun(t *testing.T) {
	const pageSize = 64
	var sizes []int
	for i := 0; i < 100; i++ {
		sizes = append(sizes, 100+i%50)
	}
	sizes = append(sizes, 1, 63, 64, 65, 200, 0, runPages*pageSize+5, 300)
	for i := 0; i < 3*runPages; i++ {
		sizes = append(sizes, 100+i%50)
	}
	run := newDisk(t, pageSize)
	through := newDisk(t, pageSize)
	type stored struct {
		first, count int
		data         []byte
	}
	var recs []stored
	appendRun := func(data []byte) {
		t.Helper()
		first, count, err := run.AppendPages(data)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, stored{first, count, data})
	}
	run.StartRun(nil)
	for i, n := range sizes {
		if run.run != nil && run.NumPages() < runPages/4 {
			t.Fatalf("the run took memory after %d pages", run.NumPages())
		}
		appendRun(record(byte(i), n))
		f2, c2, err := through.AppendPages(record(byte(i), n))
		if err != nil {
			t.Fatal(err)
		}
		if r := recs[i]; r.first != f2 || r.count != c2 {
			t.Fatalf("record %d: run placed it at [%d, +%d), write-through at [%d, +%d)", i, r.first, r.count, f2, c2)
		}
	}
	if held := run.start(run.NumPages()) - run.start(run.written); held == 0 || held > runPages*pageSize {
		t.Fatalf("the open run holds %d bytes in %d of %d pages, want 1 to %d bytes", held, run.NumPages()-run.written, run.NumPages(), runPages*pageSize)
	}
	if _, err := run.ReadPage(run.NumPages()-1, nil); err == nil {
		t.Fatal("a page the open run holds was read")
	}
	buf, err := run.EndRun()
	if err != nil {
		t.Fatal(err)
	}
	if cap(buf) != runPages*pageSize || run.written != run.NumPages() {
		t.Fatalf("EndRun handed back %d bytes of memory and wrote %d of %d pages, want a run of %d and every page", cap(buf), run.written, run.NumPages(), runPages*pageSize)
	}

	before := run.NumPages()
	run.StartRun(buf)
	for i := 0; i < 3; i++ {
		appendRun(record(byte(i), 100))
	}
	if run.written != before {
		t.Fatalf("a run given memory wrote %d of its pages singly", run.written-before)
	}
	if _, err := run.EndRun(); err != nil {
		t.Fatal(err)
	}
	pool, err := NewBufferPool(run, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if got, err := pool.ReadInto(r.first, r.count, nil); err != nil || !bytes.Equal(got, r.data) {
			t.Fatalf("record %d (%d bytes) reads back wrong after the run (err %v)", i, len(r.data), err)
		}
	}

	// A failed run write drops exactly the pages the run held: the first
	// runPages/4 went out singly and stay.
	before = run.NumPages()
	run.StartRun(nil)
	for i := 0; i < runPages/4; i++ {
		if _, _, err := run.AppendPages(record(byte(i), 100)); err != nil { // two pages
			t.Fatal(err)
		}
	}
	written := run.written
	if held := run.NumPages() - written; held != runPages/4 || written-before != runPages/4 {
		t.Fatalf("of %d pages appended, %d went out singly and the run holds %d; want %d of each", run.NumPages()-before, written-before, held, runPages/4)
	}
	f := run.f
	ro, err := os.Open(run.path)
	if err != nil {
		t.Fatal(err)
	}
	run.f = ro
	if _, err := run.EndRun(); err == nil {
		t.Fatal("a run written to a read-only file ended without an error")
	}
	run.f = f
	ro.Close()
	if run.NumPages() != written {
		t.Fatalf("after a failed run NumPages = %d, want the %d written pages", run.NumPages(), written)
	}
}
