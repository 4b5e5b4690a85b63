//go:build unix

package relation

import (
	"os"
	"slices"
	"syscall"
	"testing"
)

// TestFailedRunForgetsItsRecords: when the page file refuses a run's write
// — at a file-size limit, once when EndRun writes what the run holds and
// once when a full run is written during an insert — the relation forgets
// exactly the records whose pages never reached the file: every record it
// still lists reads back, head and pages, as inserted; the forgotten ids are
// not found and can be inserted again; and no page of a listed record is
// handed to a later one.
func TestFailedRunForgetsItsRecords(t *testing.T) {
	const pageSize = 64
	r := newDiskRel(t, pageSize, 8)
	r.KeepHeads()
	vec := func(id int64) []float64 { return seriesFor(id, 8) } // one page
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	// limit caps the page file four pages past what it holds until the
	// returned function restores the old limit.
	limit := func() func() {
		fi, err := os.Stat(r.disk.Path())
		if err != nil {
			t.Fatal(err)
		}
		lim := old
		lim.Cur = uint64(fi.Size()) + 4*pageSize
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
			t.Skipf("cannot limit the file size: %v", err)
		}
		return func() {
			if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
				t.Fatal(err)
			}
		}
	}
	var next int64 // ids 0 … next-1 have been inserted
	check := func(step string) {
		t.Helper()
		if r.Len() >= int(next) {
			t.Fatalf("%s: the failed write forgot none of %d records", step, next)
		}
		if ids := r.IDs(); !slices.IsSorted(ids) || len(ids) > 0 && ids[len(ids)-1] != int64(len(ids)-1) {
			t.Fatalf("%s: the relation lists %d ids, not the first %d inserted", step, len(ids), r.Len())
		}
		for id := int64(0); id < next; id++ {
			got, err := r.Get(id)
			if id >= int64(r.Len()) {
				if err == nil {
					t.Fatalf("%s: forgotten id %d still reads", step, id)
				}
				continue
			}
			if err != nil || !slices.Equal(got, vec(id)) {
				t.Fatalf("%s: id %d reads back wrong (err %v)", step, id, err)
			}
			v, err := r.View(id)
			if err != nil {
				t.Fatal(err)
			}
			if want := vec(id); v.Head[0] != complex(want[0], want[1]) || v.Head[3] != complex(want[6], want[7]) {
				t.Fatalf("%s: id %d has another record's head", step, id)
			}
		}
		// Insert the forgotten ids again, written through: every record
		// reads back, so no page went to two records.
		for id := int64(r.Len()); id < next; id++ {
			if err := r.Insert(id, vec(id)); err != nil {
				t.Fatal(err)
			}
		}
		for id := int64(0); id < next; id++ {
			if got, err := r.Get(id); err != nil || !slices.Equal(got, vec(id)) {
				t.Fatalf("%s, inserted again: id %d reads back wrong (err %v)", step, id, err)
			}
		}
	}

	// EndRun's write fails.
	r.StartRun(nil)
	for ; next < 200; next++ {
		if err := r.Insert(next, vec(next)); err != nil {
			t.Fatal(err)
		}
	}
	restore := limit()
	buf, err := r.EndRun()
	restore()
	if err == nil {
		t.Fatal("a run past the file-size limit was written")
	}
	check("EndRun")

	// A run given memory gathers from its first page; the write of the
	// full run, inside an insert, fails.
	r.StartRun(buf)
	restore = limit()
	for err = nil; err == nil; {
		if err = r.Insert(next, vec(next)); err == nil {
			next++
		}
		if next == 2000 {
			restore()
			t.Fatal("2,000 records were inserted past the file-size limit")
		}
	}
	restore()
	if _, err := r.EndRun(); err != nil {
		t.Fatal(err)
	}
	check("Insert")
}
