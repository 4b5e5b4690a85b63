package pagefile

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// FuzzDiskFile drives a DiskFile and the in-memory File, its oracle, with
// a script of up to 64 operations read from the input, a byte for the
// operation and two for its argument: appends of empty, sub-page, one-page
// and multi-page records and of records larger than a run (until the file
// has 4·runPages pages), written through or gathered, StartRun with
// and without memory handed back by an earlier EndRun, EndRun, and
// Overwrite of a record with a payload of its own size and of another.
// After every operation both files have the same pages; every page the
// DiskFile has written has the oracle's length and bytes, and every page
// an open run still holds cannot be read; and the file is exactly as long
// as the payloads written to it.
func FuzzDiskFile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 5, 0, 2, 0, 0, 3, 40, 1, 6, 0, 0, 7, 1, 0})
	f.Add([]byte{4, 0, 0, 3, 200, 0, 3, 200, 0, 3, 255, 15, 1, 3, 0, 6, 0, 0, 5, 0, 0, 3, 100, 0, 2, 0, 0, 7, 2, 0, 6, 0, 0})
	f.Add([]byte{4, 0, 0, 3, 255, 255, 3, 9, 1, 0, 0, 0, 6, 0, 0, 8, 1, 0, 8, 0, 0, 5, 0, 0, 7, 0, 0, 3, 30, 0})
	// A run that gathers — past its first runPages/4 pages, overwrites of a
	// written record and of a held one, one larger than the run — and a
	// second run in the memory the first handed back.
	gather := []byte{4, 0, 0}
	for i := byte(0); i < 24; i++ {
		gather = append(gather, 3, 7*i, 0)
	}
	gather = append(gather, 7, 1, 0, 7, 23, 0, 8, 2, 0, 9, 3, 0, 6, 0, 0, 5, 0, 0, 3, 9, 0, 1, 4, 0, 7, 26, 0, 6, 0, 0, 8, 26, 0)
	f.Add(gather)
	f.Fuzz(func(t *testing.T, script []byte) {
		const pageSize = 16
		d := newDisk(t, pageSize)
		oracle := New(pageSize)
		type stored struct{ first, count, size int }
		var (
			recs    []stored
			handed  []byte
			running bool
			seed    byte
		)
		for pc := 0; pc+3 <= len(script) && pc < 3*64; pc += 3 {
			op, arg := script[pc]%10, int(script[pc+1])|int(script[pc+2])<<8
			switch op {
			case 0, 1, 2, 3, 9:
				if d.NumPages() >= 4*runPages {
					continue
				}
				n := 0
				switch op {
				case 1:
					n = 1 + arg%(pageSize-1)
				case 2:
					n = pageSize
				case 3:
					n = pageSize + 1 + arg%(8*pageSize)
				case 9:
					n = runPages*pageSize + 1 + arg%pageSize
				}
				seed++
				data := record(seed, n)
				first, count, err := d.AppendPages(data)
				if err != nil {
					t.Fatalf("append of %d bytes: %v", n, err)
				}
				of, oc, _ := oracle.AppendPages(data)
				if first != of || count != oc {
					t.Fatalf("append of %d bytes took [%d, +%d), the oracle [%d, +%d)", n, first, count, of, oc)
				}
				recs = append(recs, stored{first, count, n})
			case 4, 5:
				if running {
					continue
				}
				buf := []byte(nil)
				if op == 5 {
					buf = handed
				}
				d.StartRun(buf)
				running = true
			case 6:
				buf, err := d.EndRun()
				if err != nil {
					t.Fatalf("EndRun: %v", err)
				}
				if buf != nil {
					handed = buf
				}
				running = false
			case 7, 8:
				if len(recs) == 0 {
					continue
				}
				r := recs[arg%len(recs)]
				size := r.size
				if op == 8 {
					size = r.size + 1 - 2*min(1, r.size) // a byte less, or one byte
				}
				seed++
				data := record(seed, size)
				err := d.Overwrite(r.first, r.count, data)
				switch {
				case r.first+r.count > d.written:
					if err == nil {
						t.Fatalf("a record an open run holds, pages [%d, +%d), was overwritten", r.first, r.count)
					}
					continue
				case op == 8:
					if !errors.Is(err, ErrSizeMismatch) {
						t.Fatalf("overwrite of a %d-byte record with %d bytes: got %v, want ErrSizeMismatch", r.size, size, err)
					}
				case err != nil:
					t.Fatalf("overwrite of a %d-byte record: %v", r.size, err)
				}
				if oerr := oracle.Overwrite(r.first, r.count, data); (oerr == nil) != (err == nil) {
					t.Fatalf("overwrite of a %d-byte record with %d bytes: %v, the oracle %v", r.size, size, err, oerr)
				}
			}
			if !running && d.written != d.NumPages() {
				t.Fatalf("no run is open but %d of %d pages are written", d.written, d.NumPages())
			}
			if d.NumPages() != oracle.NumPages() {
				t.Fatalf("%d pages, the oracle has %d", d.NumPages(), oracle.NumPages())
			}
			var payload int64
			for i := 0; i < d.NumPages(); i++ {
				got, err := d.ReadPage(i, nil)
				if i >= d.written {
					if err == nil {
						t.Fatalf("page %d, held by the open run, was read", i)
					}
					continue
				}
				want, _ := oracle.ReadPage(i, nil)
				if err != nil || d.PageLen(i) != oracle.PageLen(i) || !bytes.Equal(got, want) {
					t.Fatalf("page %d: read %d bytes (PageLen %d, err %v), the oracle's page holds %d, same bytes %t", i, len(got), d.PageLen(i), err, len(want), bytes.Equal(got, want))
				}
				payload += int64(d.PageLen(i))
			}
			fi, err := os.Stat(d.Path())
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != payload {
				t.Fatalf("the file is %d bytes, its written pages hold %d", fi.Size(), payload)
			}
		}
	})
}

// TestDiskFileOffsetsPastFourGiB: a page offset keeps its low 32 bits a
// page and the 4 GiB it lies in apart, so pages past 4 GiB — one that
// straddles the boundary and one wholly beyond it — have their lengths,
// read back and overwrite at their own offsets, and forgetting them forgets
// the wrap and cuts the file. The file is sparse: page 0 is placed, not
// written.
func TestDiskFileOffsetsPastFourGiB(t *testing.T) {
	d := newDisk(t, 64)
	d.push(1<<32 - 10)
	d.written = 1
	first, count, err := d.AppendPages(record(1, 100)) // 64 bytes across 4 GiB, then 36
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || count != 2 || d.PageLen(1) != 64 || d.PageLen(2) != 36 || len(d.wraps) != 1 {
		t.Fatalf("the record took [%d, +%d) of lengths %d and %d with %d wraps, want [1, +2) of 64 and 36 with 1", first, count, d.PageLen(1), d.PageLen(2), len(d.wraps))
	}
	if got := d.start(3); got != 1<<32+90 {
		t.Fatalf("the last page ends at %d, want %d", got, int64(1<<32+90))
	}
	repl := record(2, 100)
	if err := d.Overwrite(first, count, repl); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i := first; i < first+count; i++ {
		page, err := d.ReadPage(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
	}
	if !bytes.Equal(got, repl) {
		t.Fatal("the pages past 4 GiB read back other bytes")
	}
	fi, err := os.Stat(d.Path())
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 1<<32+90 {
		t.Fatalf("the file is %d bytes, want %d", fi.Size(), int64(1<<32+90))
	}
	d.forget(1)
	if fi, err = os.Stat(d.Path()); err != nil {
		t.Fatal(err)
	}
	if len(d.wraps) != 0 || d.start(1) != 1<<32-10 || fi.Size() != 1<<32-10 {
		t.Fatalf("forgetting the pages past 4 GiB left %d wraps, an end at %d and a %d-byte file", len(d.wraps), d.start(1), fi.Size())
	}
}
